// Unit and property tests for the dense linear algebra substrate.

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/rng.hpp"
#include "linalg/stats.hpp"

namespace baco {
namespace {

TEST(Matrix, IdentityAndTranspose)
{
    Matrix m = Matrix::identity(3);
    EXPECT_EQ(m(0, 0), 1.0);
    EXPECT_EQ(m(0, 1), 0.0);

    Matrix a(2, 3);
    a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
    a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
    Matrix t = a.transposed();
    ASSERT_EQ(t.rows(), 3u);
    ASSERT_EQ(t.cols(), 2u);
    EXPECT_EQ(t(2, 1), 6.0);
    EXPECT_EQ(t(0, 1), 4.0);
}

TEST(Matrix, MatVecMatchesManual)
{
    Matrix a(2, 2);
    a(0, 0) = 1; a(0, 1) = 2;
    a(1, 0) = 3; a(1, 1) = 4;
    std::vector<double> x{5, 6};
    std::vector<double> y = mat_vec(a, x);
    EXPECT_DOUBLE_EQ(y[0], 17.0);
    EXPECT_DOUBLE_EQ(y[1], 39.0);
}

TEST(Matrix, MatMatAgainstIdentity)
{
    RngEngine rng(1);
    Matrix a(4, 4);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            a(i, j) = rng.uniform(-1, 1);
    Matrix prod = mat_mat(a, Matrix::identity(4));
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            EXPECT_DOUBLE_EQ(prod(i, j), a(i, j));
}

TEST(VectorOps, DotAxpyNorm)
{
    std::vector<double> a{1, 2, 3};
    std::vector<double> b{4, 5, 6};
    EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
    std::vector<double> c = axpy(a, 2.0, b);
    EXPECT_DOUBLE_EQ(c[2], 15.0);
    EXPECT_DOUBLE_EQ(norm2({3, 4}), 5.0);
}

TEST(Cholesky, FactorizesKnownSpd)
{
    // A = [[4,2],[2,3]] => L = [[2,0],[1,sqrt(2)]]
    Matrix a(2, 2);
    a(0, 0) = 4; a(0, 1) = 2;
    a(1, 0) = 2; a(1, 1) = 3;
    auto f = cholesky(a);
    ASSERT_TRUE(f.has_value());
    EXPECT_NEAR(f->lower()(0, 0), 2.0, 1e-12);
    EXPECT_NEAR(f->lower()(1, 0), 1.0, 1e-12);
    EXPECT_NEAR(f->lower()(1, 1), std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(f->log_det(), std::log(4 * 3 - 2 * 2), 1e-12);
}

TEST(Cholesky, RejectsIndefinite)
{
    Matrix a(2, 2);
    a(0, 0) = 1; a(0, 1) = 2;
    a(1, 0) = 2; a(1, 1) = 1;  // eigenvalues 3, -1
    EXPECT_FALSE(cholesky(a).has_value());
}

TEST(Cholesky, JitterRecoversNearSingular)
{
    Matrix a(2, 2);
    a(0, 0) = 1; a(0, 1) = 1;
    a(1, 0) = 1; a(1, 1) = 1;  // rank 1
    CholeskyFactor f = cholesky_with_jitter(a);
    // Solving should not blow up.
    std::vector<double> x = f.solve({1.0, 1.0});
    EXPECT_TRUE(std::isfinite(x[0]));
    EXPECT_TRUE(std::isfinite(x[1]));
}

/** Property: random SPD solves satisfy A x = b to high accuracy. */
class CholeskySolveProperty : public ::testing::TestWithParam<int> {};

TEST_P(CholeskySolveProperty, SolvesRandomSpdSystems)
{
    int n = GetParam();
    RngEngine rng(static_cast<std::uint64_t>(n));
    // A = B B^T + n*I is SPD.
    Matrix b(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < b.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j)
            b(i, j) = rng.uniform(-1, 1);
    Matrix a = mat_mat(b, b.transposed());
    for (std::size_t i = 0; i < a.rows(); ++i)
        a(i, i) += n;

    std::vector<double> rhs(static_cast<std::size_t>(n));
    for (double& v : rhs)
        v = rng.uniform(-10, 10);

    auto f = cholesky(a);
    ASSERT_TRUE(f.has_value());
    std::vector<double> x = f->solve(rhs);
    std::vector<double> back = mat_vec(a, x);
    for (std::size_t i = 0; i < rhs.size(); ++i)
        EXPECT_NEAR(back[i], rhs[i], 1e-8 * n);

    // Inverse consistency: A * A^{-1} = I.
    Matrix inv = f->inverse();
    Matrix prod = mat_mat(a, inv);
    for (std::size_t i = 0; i < prod.rows(); ++i)
        for (std::size_t j = 0; j < prod.cols(); ++j)
            EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-8 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySolveProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(CholeskyBlockedSolves, RowsMatchOneAtATimeSubstitutionBitForBit)
{
    // The blocked solves run four right-hand sides per row of L; each
    // must keep the bits of the plain one-vector substitutions below
    // (dot_n order forward, saxpy order backward). 0..9 rows cover every
    // block remainder; n = 37 leaves a dot_n tail.
    const std::size_t n = 37;
    RngEngine rng(41);
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            b(i, j) = rng.uniform(-1, 1);
    Matrix a = mat_mat(b, b.transposed());
    for (std::size_t i = 0; i < n; ++i)
        a(i, i) += 1.0;
    auto f = cholesky(a);
    ASSERT_TRUE(f.has_value());
    const Matrix& l = f->lower();

    for (std::size_t m = 0; m <= 9; ++m) {
        Matrix rhs(m, n);
        for (double& v : rhs.data())
            v = rng.uniform(-5, 5);
        Matrix lower = rhs, upper = rhs;
        f->solve_lower_rows(lower);
        f->solve_upper_rows(upper);
        for (std::size_t r = 0; r < m; ++r) {
            std::vector<double> z(n, 0.0);
            for (std::size_t i = 0; i < n; ++i)
                z[i] = (rhs(r, i) - dot_n(l.row(i), z.data(), i)) / l(i, i);
            std::vector<double> u(rhs.row(r), rhs.row(r) + n);
            for (std::size_t i = n; i-- > 0;) {
                u[i] /= l(i, i);
                for (std::size_t j = 0; j < i; ++j)
                    u[j] -= l(i, j) * u[i];
            }
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(lower(r, i), z[i]) << "m " << m << " row " << r;
                EXPECT_EQ(upper(r, i), u[i]) << "m " << m << " row " << r;
            }
        }
    }

    // solve_matrix solves columns: each equals solve() on that column.
    Matrix x = f->solve_matrix(b);
    for (std::size_t j = 0; j < n; ++j) {
        std::vector<double> col(n);
        for (std::size_t i = 0; i < n; ++i)
            col[i] = b(i, j);
        std::vector<double> want = f->solve(col);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(x(i, j), want[i]);
    }
}

TEST(Stats, BasicMoments)
{
    std::vector<double> v{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(mean(v), 3.0);
    EXPECT_DOUBLE_EQ(variance(v), 2.5);
    EXPECT_DOUBLE_EQ(median(v), 3.0);
    EXPECT_NEAR(geometric_mean({1, 100}), 10.0, 1e-12);
    EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 1.0), 4.0);
}

TEST(Stats, NormalCdfPdf)
{
    EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
    EXPECT_NEAR(normal_pdf(0.0), 0.3989422804, 1e-9);
    // Symmetry.
    EXPECT_NEAR(normal_cdf(-1.3) + normal_cdf(1.3), 1.0, 1e-12);
}

TEST(Stats, StandardizerRoundTrip)
{
    Standardizer s;
    std::vector<double> v{10, 20, 30};
    s.fit(v);
    for (double x : v)
        EXPECT_NEAR(s.inverse(s.transform(x)), x, 1e-12);
    EXPECT_NEAR(s.transform(20.0), 0.0, 1e-12);
    // Degenerate scale falls back to 1 instead of dividing by ~0.
    Standardizer d;
    d.fit({5.0, 5.0, 5.0});
    EXPECT_DOUBLE_EQ(d.scale(), 1.0);
}

}  // namespace
}  // namespace baco
