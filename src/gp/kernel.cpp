#include "gp/kernel.hpp"

#include <cassert>
#include <cmath>

namespace baco {

namespace {
const double kSqrt5 = 2.23606797749978969;
}

std::vector<double>
GpHyperparams::to_vector() const
{
    std::vector<double> v = log_lengthscales;
    v.push_back(log_outputscale);
    v.push_back(log_noise);
    return v;
}

GpHyperparams
GpHyperparams::from_vector(const std::vector<double>& v)
{
    assert(v.size() >= 2);
    GpHyperparams hp;
    hp.log_lengthscales.assign(v.begin(), v.end() - 2);
    hp.log_outputscale = v[v.size() - 2];
    hp.log_noise = v[v.size() - 1];
    return hp;
}

double
matern52(double r)
{
    double a = kSqrt5 * r;
    return (1.0 + a + 5.0 * r * r / 3.0) * std::exp(-a);
}

double
matern52_with_dlog_factor(double r, double* factor)
{
    double a = kSqrt5 * r;
    double e = std::exp(-a);
    *factor = (5.0 / 3.0) * (1.0 + kSqrt5 * r) * e;
    return (1.0 + a + 5.0 * r * r / 3.0) * e;
}

Matrix
kernel_matrix(const DistanceTensor& t, const GpHyperparams& hp)
{
    std::size_t n = t.n;
    double s2 = std::exp(hp.log_outputscale);
    double noise = std::exp(hp.log_noise);

    // Accumulate r^2 one dimension at a time: each pass streams a single
    // distance matrix row-by-row instead of hopping across all D matrices
    // per (i, j) entry, which thrashes the cache once D x N x N outgrows L2.
    Matrix k(n, n, 0.0);
    for (std::size_t d = 0; d < t.dists.size(); ++d) {
        double inv = std::exp(-2.0 * hp.log_lengthscales[d]);
        const Matrix& dist = t.dists[d];
        for (std::size_t i = 0; i < n; ++i) {
            const double* di = dist.row(i);
            double* ki = k.row(i);
            for (std::size_t j = i + 1; j < n; ++j)
                ki[j] += di[j] * di[j] * inv;
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        double* ki = k.row(i);
        ki[i] = s2 + noise;
        for (std::size_t j = i + 1; j < n; ++j) {
            double v = s2 * matern52(std::sqrt(ki[j]));
            ki[j] = v;
            k(j, i) = v;
        }
    }
    return k;
}

}  // namespace baco
