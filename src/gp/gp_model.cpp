#include "gp/gp_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace baco {

namespace {

const double kLogTwoPi = 1.8378770664093453;
const double kThetaBound = 8.0;  // soft box on log-hyperparameters

/** Quadratic penalty outside [-bound, bound], with gradient. */
double
box_penalty(double theta, double* grad)
{
    double excess = std::abs(theta) - kThetaBound;
    if (excess <= 0.0) {
        *grad = 0.0;
        return 0.0;
    }
    *grad = 2.0 * excess * (theta > 0 ? 1.0 : -1.0);
    return excess * excess;
}

/**
 * r2[i] += (distance(a, col[i]) / ls)^2 for i < n under a metric of kind
 * K: one dimension's contribution to a row of squared scaled distances.
 */
template <CoordMetric::Kind K>
void
add_scaled_squares(const CoordMetric& metric, double a, const double* col,
                   std::size_t n, double ls, double* r2)
{
    for (std::size_t i = 0; i < n; ++i) {
        double v = coord_distance_as<K>(metric, a, col[i]) / ls;
        r2[i] += v * v;
    }
}

using AddScaledSquares = void (*)(const CoordMetric&, double, const double*,
                                  std::size_t, double, double*);

AddScaledSquares
add_scaled_squares_for(CoordMetric::Kind kind)
{
    using Kind = CoordMetric::Kind;
    switch (kind) {
      case Kind::kScalar:
        return add_scaled_squares<Kind::kScalar>;
      case Kind::kMatch:
        return add_scaled_squares<Kind::kMatch>;
      case Kind::kSpearman:
        return add_scaled_squares<Kind::kSpearman>;
      case Kind::kKendall:
        return add_scaled_squares<Kind::kKendall>;
      case Kind::kHamming:
        break;
    }
    return add_scaled_squares<Kind::kHamming>;
}

}  // namespace

GpModel::GpModel(const SearchSpace& space, GpOptions opt)
    : space_(&space), opt_(opt)
{
}

GpHyperparams
GpModel::default_hyperparams() const
{
    GpHyperparams hp;
    hp.log_lengthscales.assign(space_->num_params(), std::log(0.5));
    hp.log_outputscale = 0.0;       // variance 1 on standardized outputs
    hp.log_noise = std::log(1e-4);
    return hp;
}

void
GpModel::fit(const std::vector<Configuration>& xs,
             const std::vector<double>& ys, RngEngine& rng)
{
    if (xs.size() != ys.size() || xs.size() < 2)
        throw std::runtime_error("GpModel::fit needs >= 2 matching points");
    set_training_set(xs, ys);
    std::size_t d = space_->num_params();

    // ---- Hyperparameter optimization (multistart MAP). ----
    auto objective_fn = [this](const std::vector<double>& theta,
                               std::vector<double>& grad) {
        return nll(theta, &grad);
    };

    std::vector<std::vector<double>> starts;
    starts.push_back(default_hyperparams().to_vector());
    if (warm_start_)
        starts.push_back(warm_start_->to_vector());

    LbfgsOptions lopt;
    std::vector<double> best_theta;
    double best_f = std::numeric_limits<double>::infinity();

    if (opt_.advanced_fit) {
        // Random hyperparameter draws, screened by objective value.
        std::vector<std::pair<double, std::vector<double>>> screened;
        for (int s = 0; s < opt_.multistart_samples; ++s) {
            std::vector<double> theta(d + 2);
            for (std::size_t k = 0; k < d; ++k)
                theta[k] = rng.uniform(std::log(0.05), std::log(2.0));
            theta[d] = rng.uniform(std::log(0.1), std::log(5.0));
            theta[d + 1] = rng.uniform(std::log(1e-6), std::log(1e-2));
            double f = nll(theta, nullptr);
            if (std::isfinite(f))
                screened.emplace_back(f, std::move(theta));
        }
        std::sort(screened.begin(), screened.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        for (int k = 0; k < opt_.multistart_keep &&
                        k < static_cast<int>(screened.size()); ++k) {
            starts.push_back(screened[static_cast<std::size_t>(k)].second);
        }
        lopt.max_iters = opt_.lbfgs_iters;
    } else {
        lopt.max_iters = opt_.naive_lbfgs_iters;
    }

    for (const auto& start : starts) {
        LbfgsResult r = lbfgs_minimize(objective_fn, start, lopt);
        if (std::isfinite(r.f) && r.f < best_f) {
            best_f = r.f;
            best_theta = r.x;
        }
    }
    if (best_theta.empty())
        best_theta = default_hyperparams().to_vector();

    hp_ = GpHyperparams::from_vector(best_theta);
    // Clamp to the same box the objective used so the posterior matrix is
    // exactly the one the optimizer scored (and numerically factorizable).
    for (double& v : hp_.log_lengthscales)
        v = std::clamp(v, -kThetaBound, kThetaBound);
    hp_.log_outputscale = std::clamp(hp_.log_outputscale, -kThetaBound,
                                     kThetaBound);
    hp_.log_noise = std::clamp(hp_.log_noise, -kThetaBound * 2, kThetaBound);
    warm_start_ = hp_;

    refresh_posterior();
}

void
GpModel::fit_with_hyperparams(const std::vector<Configuration>& xs,
                              const std::vector<double>& ys,
                              const GpHyperparams& hp)
{
    if (xs.size() != ys.size() || xs.size() < 2)
        throw std::runtime_error(
            "GpModel::fit_with_hyperparams needs >= 2 matching points");
    set_training_set(xs, ys);
    hp_ = hp;
    warm_start_ = hp_;
    refresh_posterior();
}

void
GpModel::set_training_set(const std::vector<Configuration>& xs,
                          const std::vector<double>& ys)
{
    standardizer_.fit(ys);
    ys_std_.resize(ys.size());
    for (std::size_t i = 0; i < ys.size(); ++i)
        ys_std_[i] = standardizer_.transform(ys[i]);

    std::size_t d = space_->num_params();
    metrics_.resize(d);
    for (std::size_t k = 0; k < d; ++k)
        metrics_[k] = space_->param(k).coord_metric();
    coords_ = coords_of(xs);

    // Pairwise per-dimension distances.
    std::size_t n = xs.size();
    tensor_.n = n;
    tensor_.dists.assign(d, Matrix(n, n));
    for (std::size_t k = 0; k < d; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                double v = coord_distance(metrics_[k], coords_(i, k),
                                          coords_(j, k));
                tensor_.dists[k](i, j) = v;
                tensor_.dists[k](j, i) = v;
            }
        }
    }
}

Matrix
GpModel::coords_of(const std::vector<Configuration>& xs) const
{
    std::size_t d = space_->num_params();
    Matrix c(xs.size(), d);
    for (std::size_t i = 0; i < xs.size(); ++i)
        for (std::size_t k = 0; k < d; ++k)
            c(i, k) = space_->param(k).coord(xs[i][k]);
    return c;
}

void
GpModel::refresh_posterior()
{
    std::size_t d = space_->num_params();
    lengthscales_.resize(d);
    for (std::size_t k = 0; k < d; ++k)
        lengthscales_[k] = std::exp(hp_.log_lengthscales[k]);
    // Permutation semimetrics are not strict metrics, so the kernel matrix
    // can be indefinite; after jitter rescues the factorization the solve
    // may still be badly conditioned (huge alpha => wild extrapolation).
    // Escalate an explicit diagonal boost until the posterior weights are
    // sane on the standardized outputs.
    Matrix kmat = kernel_matrix(tensor_, hp_);
    double boost = 0.0;
    double jitter = 0.0;
    double s2 = std::exp(hp_.log_outputscale);
    for (int attempt = 0; attempt < 10; ++attempt) {
        Matrix kj = kmat;
        for (std::size_t i = 0; i < kj.rows(); ++i)
            kj(i, i) += boost;
        chol_ = cholesky_with_jitter(kj, 1e-10, 16, &jitter);
        alpha_ = chol_->solve(ys_std_);
        double amax = 0.0;
        bool finite = true;
        for (double a : alpha_) {
            amax = std::max(amax, std::abs(a));
            finite &= std::isfinite(a);
        }
        if (finite && amax <= 1e4)
            break;
        boost = boost == 0.0 ? 1e-4 * std::max(s2, 1.0) : boost * 10.0;
    }
    // Record the total shift baked into the factored diagonal so extend()
    // appends rows of the *same* matrix the factor represents.
    diag_shift_ = boost + jitter;
    fitted_ = true;
}

Matrix
GpModel::cross_kernel(const Matrix& cand) const
{
    std::size_t m = cand.rows();
    std::size_t n = size();
    double s2 = std::exp(hp_.log_outputscale);
    // r^2 accumulates one dimension at a time, in dimension order, so every
    // entry sums exactly the terms (and in the order) of a per-pair loop.
    Matrix k(m, n, 0.0);
    std::vector<double> col(n);
    for (std::size_t dim = 0; dim < metrics_.size(); ++dim) {
        const CoordMetric& metric = metrics_[dim];
        AddScaledSquares add = add_scaled_squares_for(metric.kind);
        for (std::size_t i = 0; i < n; ++i)
            col[i] = coords_(i, dim);
        for (std::size_t c = 0; c < m; ++c)
            add(metric, cand(c, dim), col.data(), n, lengthscales_[dim],
                k.row(c));
    }
    for (double& v : k.data())
        v = s2 * matern52(std::sqrt(v));
    return k;
}

bool
GpModel::extend(const Configuration& x, double y)
{
    if (!fitted_)
        return false;
    double s2 = std::exp(hp_.log_outputscale);
    double noise = std::exp(hp_.log_noise);
    Matrix coord = coords_of({x});
    std::vector<double> cross = std::move(cross_kernel(coord).data());
    double diag = s2 + noise + diag_shift_;

    // Appending a near-duplicate of an existing point can make the bordered
    // matrix numerically semidefinite even though the base factor is fine.
    // Escalating jitter on the *new* diagonal entry only (extra observation
    // noise on the new point) preserves the base factor and is enough in
    // practice; if even that fails, tell the caller to refit from scratch.
    double extra = 1e-8 * std::max(diag, 1.0);
    for (int attempt = 0; attempt < 6; ++attempt) {
        if (chol_->append(cross, diag)) {
            std::size_t n = size();
            coords_.resize_preserving(n + 1, coords_.cols());
            std::copy(coord.data().begin(), coord.data().end(),
                      coords_.row(n));
            ys_std_.push_back(standardizer_.transform(y));
            alpha_ = chol_->solve(ys_std_);
            bool finite = true;
            for (double a : alpha_)
                finite &= std::isfinite(a);
            if (finite)
                return true;
            // Roll back the bad row and report failure.
            chol_->shrink(n);
            coords_.resize_preserving(n, coords_.cols());
            ys_std_.pop_back();
            alpha_ = chol_->solve(ys_std_);
            return false;
        }
        diag += extra;
        extra *= 10.0;
    }
    return false;
}

void
GpModel::truncate(std::size_t k)
{
    if (!fitted_ || k >= size())
        return;
    if (k < 2)
        throw std::runtime_error("GpModel::truncate below 2 points");
    coords_.resize_preserving(k, coords_.cols());
    ys_std_.resize(k);
    chol_->shrink(k);
    alpha_ = chol_->solve(ys_std_);
}

double
GpModel::data_nll_per_point() const
{
    if (!fitted_ || ys_std_.empty())
        return 0.0;
    double n = static_cast<double>(ys_std_.size());
    double nll_val = 0.5 * dot(ys_std_, alpha_) + 0.5 * chol_->log_det() +
                     0.5 * n * kLogTwoPi;
    return nll_val / n;
}

double
GpModel::nll(const std::vector<double>& theta, std::vector<double>* grad) const
{
    std::size_t n = tensor_.n;
    std::size_t d = tensor_.dims();
    GpHyperparams hp = GpHyperparams::from_vector(theta);

    if (grad)
        grad->assign(theta.size(), 0.0);

    // Soft box to keep exp() finite.
    double penalty = 0.0;
    for (std::size_t k = 0; k < theta.size(); ++k) {
        double g = 0.0;
        penalty += box_penalty(theta[k], &g);
        if (grad)
            (*grad)[k] += g;
    }
    // Clamp for the kernel evaluation itself.
    GpHyperparams hpc = hp;
    for (double& v : hpc.log_lengthscales)
        v = std::clamp(v, -kThetaBound, kThetaBound);
    hpc.log_outputscale = std::clamp(hpc.log_outputscale, -kThetaBound,
                                     kThetaBound);
    hpc.log_noise = std::clamp(hpc.log_noise, -kThetaBound * 2, kThetaBound);

    Matrix kmat = kernel_matrix(tensor_, hpc);
    auto chol = cholesky(kmat);
    if (!chol)
        return std::numeric_limits<double>::infinity();

    std::vector<double> alpha = chol->solve(ys_std_);
    double data_fit = 0.5 * dot(ys_std_, alpha);
    double nll_val = data_fit + 0.5 * chol->log_det() +
                     0.5 * static_cast<double>(n) * kLogTwoPi + penalty;

    // Priors (MAP in log space; density includes the log-space Jacobian):
    // -log p(theta) = -shape*theta + rate*exp(theta) + const.
    auto add_prior = [&](std::size_t idx, double shape, double rate) {
        double t = theta[idx];
        double v = std::exp(std::clamp(t, -kThetaBound * 2, kThetaBound));
        nll_val += -shape * t + rate * v;
        if (grad)
            (*grad)[idx] += -shape + rate * v;
    };
    if (opt_.use_priors) {
        for (std::size_t k = 0; k < d; ++k)
            add_prior(k, opt_.lengthscale_shape, opt_.lengthscale_rate);
        add_prior(d, opt_.outputscale_shape, opt_.outputscale_rate);
        add_prior(d + 1, opt_.noise_shape, opt_.noise_rate);
    }

    if (!grad)
        return nll_val;

    // dNLL/dtheta = -0.5 tr((alpha alpha' - K^{-1}) dK/dtheta).
    Matrix kinv = chol->inverse();
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = alpha[i] * alpha[j] - kinv(i, j);

    double s2 = std::exp(hpc.log_outputscale);
    double noise = std::exp(hpc.log_noise);
    std::vector<double> ls(d);
    for (std::size_t k = 0; k < d; ++k)
        ls[k] = std::exp(hpc.log_lengthscales[k]);

    // Scaled distances, upper triangle: r_ij^2 sums (d_k / l_k)^2 in
    // dimension order, one distance matrix at a time (the order a per-pair
    // loop over k would add them in).
    Matrix kr(n, n, 0.0);
    for (std::size_t k = 0; k < d; ++k) {
        const Matrix& dist = tensor_.dists[k];
        for (std::size_t i = 0; i < n; ++i) {
            const double* di = dist.row(i);
            double* ri = kr.row(i);
            for (std::size_t j = i + 1; j < n; ++j) {
                double v = di[j] / ls[k];
                ri[j] += v * v;
            }
        }
    }
    // Per pair, once: kr_ij becomes the Matern value at r_ij, and
    // g_ij = s2 * factor(r_ij) the lengthscale-derivative prefactor, both
    // from one exp.
    Matrix g(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j) {
            double factor;
            kr(i, j) = matern52_with_dlog_factor(std::sqrt(kr(i, j)), &factor);
            g(i, j) = s2 * factor;
        }

    // Lengthscale gradients.
    for (std::size_t k = 0; k < d; ++k) {
        double acc = 0.0;
        double l2 = ls[k] * ls[k];
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                double dd = tensor_.dists[k](i, j);
                if (dd == 0.0)
                    continue;
                double dk = g(i, j) * (dd * dd) / l2;
                acc += 2.0 * a(i, j) * dk;  // symmetric off-diagonal pair
            }
        }
        (*grad)[k] += -0.5 * acc;
    }

    // Output scale: dK/dlog s2 = s2 * matern(r) (including the diagonal s2).
    {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            acc += a(i, i) * s2;
            for (std::size_t j = i + 1; j < n; ++j)
                acc += 2.0 * a(i, j) * s2 * kr(i, j);
        }
        (*grad)[d] += -0.5 * acc;
    }

    // Noise: dK/dlog noise = noise * I.
    {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            acc += a(i, i);
        (*grad)[d + 1] += -0.5 * acc * noise;
    }

    return nll_val;
}

double
GpModel::objective(const GpHyperparams& hp) const
{
    return nll(hp.to_vector(), nullptr);
}

double
GpModel::objective_with_gradient(const GpHyperparams& hp,
                                 std::vector<double>* grad) const
{
    return nll(hp.to_vector(), grad);
}

GpPrediction
GpModel::predict(const Configuration& x) const
{
    std::vector<GpPrediction> out;
    predict_batch({x}, out);
    return out[0];
}

void
GpModel::predict_batch(const std::vector<Configuration>& xs,
                       std::vector<GpPrediction>& out) const
{
    if (!fitted_)
        throw std::runtime_error("GpModel::predict called before fit");

    double s2 = std::exp(hp_.log_outputscale);
    std::size_t n = size();
    Matrix k = cross_kernel(coords_of(xs));
    out.resize(xs.size());
    for (std::size_t c = 0; c < xs.size(); ++c)
        out[c].mean = standardizer_.inverse(dot_n(k.row(c), alpha_.data(), n));
    chol_->solve_lower_rows(k);  // row c becomes v = L^{-1} k_c
    for (std::size_t c = 0; c < xs.size(); ++c) {
        double var_std = s2 - dot_n(k.row(c), k.row(c), n);
        var_std = std::max(var_std, 1e-12);
        out[c].var = standardizer_.inverse_variance(var_std);
    }
}

}  // namespace baco
