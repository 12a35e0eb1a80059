#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace baco {

namespace {

// Schur-complement diagonal entries below this fraction of the factored
// matrix's scale are treated as "not safely positive": the math may still
// produce a finite sqrt, but the resulting factor is so ill-conditioned
// that solves amplify noise. Callers fall back to a jittered refit instead.
constexpr double kMinPivotRatio = 1e-12;

}  // namespace

std::vector<double>
CholeskyFactor::solve_lower(const std::vector<double>& b) const
{
    assert(b.size() == l_.rows());
    Matrix rhs(1, b.size());
    std::copy(b.begin(), b.end(), rhs.data().begin());
    solve_lower_rows(rhs);
    return std::move(rhs.data());
}

void
CholeskyFactor::solve_lower_rows(Matrix& rhs) const
{
    std::size_t n = l_.rows();
    assert(rhs.cols() == n);
    // Row-oriented forward substitution: row i of L is contiguous, so the
    // inner reduction is a streaming dot product. z[i] only reads z[0..i),
    // so each right-hand side is overwritten by its solution in place.
    std::size_t r = 0;
    for (; r + 4 <= rhs.rows(); r += 4) {
        double* z[4] = {rhs.row(r), rhs.row(r + 1), rhs.row(r + 2),
                        rhs.row(r + 3)};
        double acc[4];
        for (std::size_t i = 0; i < n; ++i) {
            const double* li = l_.row(i);
            dot_n4(li, z, i, acc);
            for (int k = 0; k < 4; ++k)
                z[k][i] = (z[k][i] - acc[k]) / li[i];
        }
    }
    for (; r < rhs.rows(); ++r) {
        double* z = rhs.row(r);
        for (std::size_t i = 0; i < n; ++i) {
            const double* li = l_.row(i);
            z[i] = (z[i] - dot_n(li, z, i)) / li[i];
        }
    }
}

std::vector<double>
CholeskyFactor::solve_upper(const std::vector<double>& b) const
{
    assert(b.size() == l_.rows());
    Matrix rhs(1, b.size());
    std::copy(b.begin(), b.end(), rhs.data().begin());
    solve_upper_rows(rhs);
    return std::move(rhs.data());
}

void
CholeskyFactor::solve_upper_rows(Matrix& rhs) const
{
    std::size_t n = l_.rows();
    assert(rhs.cols() == n);
    // Backward substitution against L^T, restructured into saxpy form:
    // column i of L^T is row i of L, so once z[i] is known we subtract
    // z[i] * L(i, 0..i-1) from the running right-hand side. Every access
    // streams a contiguous row instead of striding down a column.
    std::size_t r = 0;
    for (; r + 4 <= rhs.rows(); r += 4) {
        double* z[4] = {rhs.row(r), rhs.row(r + 1), rhs.row(r + 2),
                        rhs.row(r + 3)};
        for (std::size_t ii = n; ii > 0; --ii) {
            std::size_t i = ii - 1;
            const double* li = l_.row(i);
            double zi[4];
            for (int k = 0; k < 4; ++k) {
                zi[k] = z[k][i] / li[i];
                z[k][i] = zi[k];
            }
            for (int k = 0; k < 4; ++k)
                for (std::size_t j = 0; j < i; ++j)
                    z[k][j] -= li[j] * zi[k];
        }
    }
    for (; r < rhs.rows(); ++r) {
        double* z = rhs.row(r);
        for (std::size_t ii = n; ii > 0; --ii) {
            std::size_t i = ii - 1;
            const double* li = l_.row(i);
            double zi = z[i] / li[i];
            z[i] = zi;
            for (std::size_t j = 0; j < i; ++j)
                z[j] -= li[j] * zi;
        }
    }
}

std::vector<double>
CholeskyFactor::solve(const std::vector<double>& b) const
{
    return solve_upper(solve_lower(b));
}

Matrix
CholeskyFactor::solve_matrix(const Matrix& b) const
{
    assert(b.rows() == l_.rows());
    // Columns of b become rows, so both substitutions run blocked.
    Matrix x = b.transposed();
    solve_lower_rows(x);
    solve_upper_rows(x);
    return x.transposed();
}

double
CholeskyFactor::log_det() const
{
    double acc = 0.0;
    for (std::size_t i = 0; i < l_.rows(); ++i)
        acc += std::log(l_(i, i));
    return 2.0 * acc;
}

Matrix
CholeskyFactor::inverse() const
{
    return solve_matrix(Matrix::identity(l_.rows()));
}

bool
CholeskyFactor::append(const std::vector<double>& cross, double diag)
{
    std::size_t n = l_.rows();
    assert(cross.size() == n);
    // New bottom row: l21 solves L l21 = cross; the new pivot is the Schur
    // complement of the appended diagonal entry.
    std::vector<double> l21 = solve_lower(cross);
    double schur = diag - dot_n(l21.data(), l21.data(), n);
    double scale = diag;
    for (std::size_t i = 0; i < n; ++i)
        scale = std::max(scale, l_(i, i) * l_(i, i));
    if (!std::isfinite(schur) || schur <= kMinPivotRatio * std::max(scale, 1.0))
        return false;
    l_.resize_preserving(n + 1, n + 1);
    double* last = l_.row(n);
    for (std::size_t j = 0; j < n; ++j)
        last[j] = l21[j];
    last[n] = std::sqrt(schur);
    return true;
}

bool
CholeskyFactor::append_block(const Matrix& cross, const Matrix& corner)
{
    std::size_t n = l_.rows();
    std::size_t m = cross.rows();
    assert(cross.cols() == n);
    assert(corner.rows() == m && corner.cols() == m);
    if (m == 0)
        return true;
    // L21 row r solves L L21_r = cross_r.
    Matrix l21(m, n);
    std::vector<double> row(n);
    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t j = 0; j < n; ++j)
            row[j] = cross(r, j);
        std::vector<double> sol = solve_lower(row);
        for (std::size_t j = 0; j < n; ++j)
            l21(r, j) = sol[j];
    }
    // Trailing block factors the Schur complement S = C - L21 L21^T. Plain
    // cholesky (no jitter) on purpose: if S is not SPD the caller must
    // refactorize the whole bordered matrix with a consistent jitter.
    Matrix s(m, m);
    for (std::size_t r = 0; r < m; ++r)
        for (std::size_t c = 0; c <= r; ++c) {
            double v = corner(r, c) - dot_n(l21.row(r), l21.row(c), n);
            s(r, c) = v;
            s(c, r) = v;
        }
    double scale = 1.0;
    for (std::size_t i = 0; i < n; ++i)
        scale = std::max(scale, l_(i, i) * l_(i, i));
    for (std::size_t r = 0; r < m; ++r)
        scale = std::max(scale, std::abs(corner(r, r)));
    for (std::size_t r = 0; r < m; ++r)
        if (!(s(r, r) > kMinPivotRatio * scale))
            return false;
    std::optional<CholeskyFactor> ls = cholesky(s);
    if (!ls)
        return false;
    l_.resize_preserving(n + m, n + m);
    for (std::size_t r = 0; r < m; ++r) {
        double* dst = l_.row(n + r);
        const double* src = l21.row(r);
        for (std::size_t j = 0; j < n; ++j)
            dst[j] = src[j];
        for (std::size_t c = 0; c <= r; ++c)
            dst[n + c] = ls->lower()(r, c);
    }
    return true;
}

void
CholeskyFactor::shrink(std::size_t k)
{
    assert(k <= l_.rows());
    if (k < l_.rows())
        l_.resize_preserving(k, k);
}

std::optional<CholeskyFactor>
cholesky(const Matrix& a)
{
    assert(a.rows() == a.cols());
    std::size_t n = a.rows();
    Matrix l(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double* li = l.row(i);
        for (std::size_t j = 0; j <= i; ++j) {
            // Rows i and j of L are both contiguous prefixes — the inner
            // reduction streams two rows, never a column.
            double acc = a(i, j) - dot_n(li, l.row(j), j);
            if (i == j) {
                if (acc <= 0.0 || !std::isfinite(acc))
                    return std::nullopt;
                l(i, i) = std::sqrt(acc);
            } else {
                l(i, j) = acc / l(j, j);
            }
        }
    }
    return CholeskyFactor(std::move(l));
}

CholeskyFactor
cholesky_with_jitter(const Matrix& a, double initial_jitter, int max_tries,
                     double* applied_jitter)
{
    if (auto f = cholesky(a)) {
        if (applied_jitter)
            *applied_jitter = 0.0;
        return *f;
    }
    // Scale the jitter to the matrix magnitude so very large kernels still
    // stabilize within max_tries.
    double scale = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        scale = std::max(scale, std::abs(a(i, i)));
    if (scale == 0.0)
        scale = 1.0;
    double jitter = initial_jitter * scale;
    for (int t = 0; t < max_tries; ++t) {
        Matrix aj = a;
        for (std::size_t i = 0; i < aj.rows(); ++i)
            aj(i, i) += jitter;
        if (auto f = cholesky(aj)) {
            if (applied_jitter)
                *applied_jitter = jitter;
            return *f;
        }
        jitter *= 10.0;
    }
    throw std::runtime_error("cholesky_with_jitter: matrix is not SPD even "
                             "with maximum jitter");
}

}  // namespace baco
