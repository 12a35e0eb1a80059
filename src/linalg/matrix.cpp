#include "linalg/matrix.hpp"

#include <cmath>
#include <cstring>

namespace baco {

void
Matrix::resize_preserving(std::size_t new_rows, std::size_t new_cols)
{
    if (new_rows == rows_ && new_cols == cols_)
        return;
    if (new_cols == cols_) {
        // Row count change with unchanged stride: no repack needed.
        data_.resize(new_rows * cols_, 0.0);
        rows_ = new_rows;
        return;
    }
    std::vector<double> fresh(new_rows * new_cols, 0.0);
    std::size_t copy_rows = std::min(rows_, new_rows);
    std::size_t copy_cols = std::min(cols_, new_cols);
    for (std::size_t i = 0; i < copy_rows; ++i) {
        const double* src = data_.data() + i * cols_;
        double* dst = fresh.data() + i * new_cols;
        for (std::size_t j = 0; j < copy_cols; ++j)
            dst[j] = src[j];
    }
    data_ = std::move(fresh);
    rows_ = new_rows;
    cols_ = new_cols;
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::transposed() const
{
    Matrix t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            t(j, i) = (*this)(i, j);
    return t;
}

std::vector<double>
mat_vec(const Matrix& a, const std::vector<double>& x)
{
    assert(x.size() == a.cols());
    std::vector<double> y(a.rows(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i)
        y[i] = dot_n(a.row(i), x.data(), a.cols());
    return y;
}

Matrix
mat_mat(const Matrix& a, const Matrix& b)
{
    assert(a.cols() == b.rows());
    Matrix c(a.rows(), b.cols(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        double* ci = c.row(i);
        for (std::size_t k = 0; k < a.cols(); ++k) {
            double aik = a(i, k);
            if (aik == 0.0)
                continue;
            const double* bk = b.row(k);
            for (std::size_t j = 0; j < b.cols(); ++j)
                ci[j] += aik * bk[j];
        }
    }
    return c;
}

double
dot(const std::vector<double>& a, const std::vector<double>& b)
{
    assert(a.size() == b.size());
    return dot_n(a.data(), b.data(), a.size());
}

double
dot_n(const double* a, const double* b, std::size_t n)
{
    // Four independent accumulators: without -ffast-math a compiler may not
    // reorder a single-accumulator reduction, so the unroll is what lets it
    // keep multiple FMAs in flight (and auto-vectorize where available).
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
    }
    for (; i < n; ++i)
        s0 += a[i] * b[i];
    return (s0 + s1) + (s2 + s3);
}

namespace {

/** Two doubles in one register; lane-wise ops round like scalar ones. */
typedef double Pair __attribute__((vector_size(16)));

Pair
load_pair(const double* p)
{
    Pair v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

}  // namespace

void
dot_n4(const double* a, const double* const* b, std::size_t n, double* out)
{
    // lo[r] holds dot_n's accumulators (s0, s1) for right-hand side r and
    // hi[r] its (s2, s3): the same four partial sums, eight chains in all.
    Pair lo[4] = {}, hi[4] = {};
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        Pair alo = load_pair(a + i);
        Pair ahi = load_pair(a + i + 2);
        for (int r = 0; r < 4; ++r) {
            lo[r] += alo * load_pair(b[r] + i);
            hi[r] += ahi * load_pair(b[r] + i + 2);
        }
    }
    for (int r = 0; r < 4; ++r) {
        double s0 = lo[r][0];
        for (std::size_t t = i; t < n; ++t)
            s0 += a[t] * b[r][t];
        out[r] = (s0 + lo[r][1]) + (hi[r][0] + hi[r][1]);
    }
}

std::vector<double>
axpy(const std::vector<double>& a, double s, const std::vector<double>& b)
{
    assert(a.size() == b.size());
    std::vector<double> r(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        r[i] = a[i] + s * b[i];
    return r;
}

double
norm2(const std::vector<double>& v)
{
    return std::sqrt(dot(v, v));
}

}  // namespace baco
