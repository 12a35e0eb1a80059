// Gaussian process: kernel math, fitting, prediction quality, priors.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "gp/gp_model.hpp"

namespace baco {
namespace {

SearchSpace
one_d_space()
{
    SearchSpace s;
    s.add_real("x", 0.0, 1.0);
    return s;
}

Configuration
cfg1(double x)
{
    return {ParamValue{x}};
}

TEST(Matern52, KnownValues)
{
    EXPECT_DOUBLE_EQ(matern52(0.0), 1.0);
    // Monotone decreasing.
    double prev = 1.0;
    for (double r = 0.1; r < 3.0; r += 0.1) {
        double v = matern52(r);
        EXPECT_LT(v, prev);
        EXPECT_GT(v, 0.0);
        prev = v;
    }
}

TEST(GpHyperparams, VectorRoundTrip)
{
    GpHyperparams hp;
    hp.log_lengthscales = {0.1, -0.2, 0.3};
    hp.log_outputscale = 0.5;
    hp.log_noise = -5.0;
    GpHyperparams back = GpHyperparams::from_vector(hp.to_vector());
    EXPECT_EQ(back.log_lengthscales, hp.log_lengthscales);
    EXPECT_DOUBLE_EQ(back.log_outputscale, hp.log_outputscale);
    EXPECT_DOUBLE_EQ(back.log_noise, hp.log_noise);
}

TEST(GpModel, InterpolatesTrainingPoints)
{
    SearchSpace s = one_d_space();
    GpModel gp(s);
    RngEngine rng(1);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (double x : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        xs.push_back(cfg1(x));
        ys.push_back(std::sin(6.0 * x));
    }
    gp.fit(xs, ys, rng);
    // MAP fitting with a noise prior smooths slightly; allow 0.1.
    for (std::size_t i = 0; i < xs.size(); ++i) {
        GpPrediction p = gp.predict(xs[i]);
        EXPECT_NEAR(p.mean, ys[i], 0.1);
    }
}

TEST(GpModel, UncertaintyGrowsAwayFromData)
{
    SearchSpace s = one_d_space();
    GpModel gp(s);
    RngEngine rng(2);
    std::vector<Configuration> xs{cfg1(0.0), cfg1(0.1), cfg1(0.2)};
    std::vector<double> ys{1.0, 1.2, 0.9};
    gp.fit(xs, ys, rng);
    double var_near = gp.predict(cfg1(0.1)).var;
    double var_far = gp.predict(cfg1(0.9)).var;
    EXPECT_LT(var_near, var_far);
    EXPECT_GE(var_near, 0.0);
}

TEST(GpModel, PredictionAccuracyOnSmoothFunction)
{
    SearchSpace s = one_d_space();
    GpModel gp(s);
    RngEngine rng(3);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 20; ++i) {
        double x = i / 20.0;
        xs.push_back(cfg1(x));
        ys.push_back(x * x + 0.3 * std::sin(8 * x));
    }
    gp.fit(xs, ys, rng);
    // Held-out points.
    for (double x : {0.13, 0.37, 0.61, 0.83}) {
        double truth = x * x + 0.3 * std::sin(8 * x);
        EXPECT_NEAR(gp.predict(cfg1(x)).mean, truth, 0.08);
    }
}

TEST(GpModel, AnalyticGradientMatchesFiniteDifferences)
{
    SearchSpace s;
    s.add_real("x", 0.0, 1.0);
    s.add_ordinal("o", {1, 2, 4, 8}, true);
    s.add_permutation("p", 3);
    GpModel gp(s);
    RngEngine rng(4);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (int i = 0; i < 12; ++i) {
        Configuration c = s.sample_unconstrained(rng);
        ys.push_back(as_real(c[0]) + 0.1 * static_cast<double>(as_int(c[1])) +
                     rng.normal(0, 0.01));
        xs.push_back(std::move(c));
    }
    gp.fit(xs, ys, rng);

    GpHyperparams hp;
    hp.log_lengthscales = {std::log(0.4), std::log(0.7), std::log(0.9)};
    hp.log_outputscale = std::log(1.3);
    hp.log_noise = std::log(1e-3);

    std::vector<double> grad;
    double f0 = gp.objective_with_gradient(hp, &grad);
    ASSERT_TRUE(std::isfinite(f0));
    ASSERT_EQ(grad.size(), 5u);

    // Central finite differences on every log-hyperparameter.
    const double eps = 1e-6;
    std::vector<double> theta = hp.to_vector();
    for (std::size_t k = 0; k < theta.size(); ++k) {
        std::vector<double> up = theta, dn = theta;
        up[k] += eps;
        dn[k] -= eps;
        double fd = (gp.objective(GpHyperparams::from_vector(up)) -
                     gp.objective(GpHyperparams::from_vector(dn))) /
                    (2 * eps);
        EXPECT_NEAR(grad[k], fd,
                    1e-4 * std::max(1.0, std::abs(fd)))
            << "hyperparameter " << k;
    }
}

TEST(GpModel, FitLowersObjectiveVersusDefault)
{
    SearchSpace s = one_d_space();
    GpOptions opt;
    GpModel gp(s, opt);
    RngEngine rng(5);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 15; ++i) {
        double x = i / 15.0;
        xs.push_back(cfg1(x));
        ys.push_back(std::cos(5 * x));
    }
    gp.fit(xs, ys, rng);
    GpHyperparams def;
    def.log_lengthscales = {std::log(0.5)};
    def.log_outputscale = 0.0;
    def.log_noise = std::log(1e-4);
    EXPECT_LE(gp.objective(gp.hyperparams()), gp.objective(def) + 1e-6);
}

TEST(GpModel, PriorsShrinkExtremeLengthscales)
{
    // With a single informative dimension and an irrelevant one, the
    // no-prior fit can drive the irrelevant lengthscale to extremes; the
    // gamma prior keeps it moderate (paper Sec. 3.2).
    SearchSpace s;
    s.add_real("x", 0.0, 1.0);
    s.add_real("noise_dim", 0.0, 1.0);
    RngEngine rng(6);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (int i = 0; i < 14; ++i) {
        double x = rng.uniform(), z = rng.uniform();
        xs.push_back({ParamValue{x}, ParamValue{z}});
        ys.push_back(std::sin(5 * x));
    }
    GpOptions with;
    with.use_priors = true;
    GpModel gp_with(s, with);
    RngEngine r1(7);
    gp_with.fit(xs, ys, r1);
    for (double ll : gp_with.hyperparams().log_lengthscales) {
        EXPECT_GT(ll, std::log(1e-3));
        EXPECT_LT(ll, std::log(1e3));
    }
}

TEST(GpModel, MixedSpaceWithPermutation)
{
    SearchSpace s;
    s.add_ordinal("tile", {2, 4, 8, 16}, true);
    s.add_permutation("perm", 3);
    GpModel gp(s);
    RngEngine rng(8);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (int i = 0; i < 16; ++i) {
        Configuration c = s.sample_unconstrained(rng);
        const Permutation& p = as_permutation(c[1]);
        // Objective depends on the permutation (distance from identity).
        double d = std::abs(p[0] - 0) + std::abs(p[1] - 1) +
                   std::abs(p[2] - 2);
        ys.push_back(std::log2(static_cast<double>(as_int(c[0]))) + d);
        xs.push_back(std::move(c));
    }
    gp.fit(xs, ys, rng);
    // Identity permutation with small tile should predict lower than
    // reversed permutation with large tile.
    Configuration lo{ParamValue{std::int64_t{2}},
                     ParamValue{Permutation{0, 1, 2}}};
    Configuration hi{ParamValue{std::int64_t{16}},
                     ParamValue{Permutation{2, 1, 0}}};
    EXPECT_LT(gp.predict(lo).mean, gp.predict(hi).mean);
}

TEST(GpModel, RejectsDegenerateInput)
{
    SearchSpace s = one_d_space();
    GpModel gp(s);
    RngEngine rng(9);
    EXPECT_THROW(gp.fit({cfg1(0.5)}, {1.0}, rng), std::runtime_error);
    EXPECT_THROW(gp.predict(cfg1(0.5)), std::runtime_error);
}

// ---- Incremental extend() parity with full refits ----------------------

/**
 * Smooth 1-D target used by the extend parity tests. Points are laid out
 * in bit-reversed (van der Corput) order so every prefix of the history
 * samples the whole domain — the output standardizer of a prefix fit then
 * closely matches the full fit's, which is what makes tight parity
 * tolerances meaningful.
 */
void
smooth_history(std::size_t n, std::vector<Configuration>* xs,
               std::vector<double>* ys)
{
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t rev = 0, v = i;
        for (int b = 0; b < 6; ++b) {
            rev = (rev << 1) | (v & 1);
            v >>= 1;
        }
        double x = (static_cast<double>(rev) + 0.5) / 64.0;
        xs->push_back(cfg1(x));
        ys->push_back(x * x + 0.3 * std::sin(8 * x));
    }
}

GpHyperparams
fixed_hp()
{
    GpHyperparams hp;
    hp.log_lengthscales = {std::log(0.3)};
    hp.log_outputscale = 0.0;
    hp.log_noise = std::log(1e-4);
    return hp;
}

TEST(GpModelExtend, MatchesFullFitAcrossHistoryLengths)
{
    SearchSpace s = one_d_space();
    std::vector<Configuration> xs;
    std::vector<double> ys;
    smooth_history(28, &xs, &ys);

    for (std::size_t base : {5u, 10u, 20u}) {
        GpModel inc(s);
        inc.fit_with_hyperparams(
            {xs.begin(), xs.begin() + static_cast<long>(base)},
            {ys.begin(), ys.begin() + static_cast<long>(base)}, fixed_hp());
        for (std::size_t i = base; i < xs.size(); ++i)
            ASSERT_TRUE(inc.extend(xs[i], ys[i])) << "extend " << i;

        GpModel full(s);
        full.fit_with_hyperparams(xs, ys, fixed_hp());

        // The two models share hyperparameters and training data; they
        // differ only in the output standardizer (fit on the base prefix
        // vs the full history — extend intentionally freezes it between
        // refits). With prefix statistics close to full-history
        // statistics the models interpolate the same data, so held-out
        // predictions agree far below the function's scale (~1.3); 0.02
        // bounds the standardizer-induced drift with margin.
        for (double x : {0.07, 0.33, 0.52, 0.71, 0.96}) {
            GpPrediction pi = inc.predict(cfg1(x));
            GpPrediction pf = full.predict(cfg1(x));
            EXPECT_NEAR(pi.mean, pf.mean, 0.02) << "base " << base;
            EXPECT_NEAR(std::sqrt(pi.var), std::sqrt(pf.var), 0.02)
                << "base " << base;
        }
        // Training points are interpolated through the extended factor.
        for (std::size_t i = 0; i < xs.size(); ++i)
            EXPECT_NEAR(inc.predict(xs[i]).mean, ys[i], 0.02);
        // The marginal-likelihood score driving the tuner's drift-based
        // refit check is scale-sensitive (the frozen standardizer enters
        // the data-fit term quadratically), so it tracks more loosely than
        // the predictions — but must stay well inside the tuner's default
        // refit_nll_drift of 1.0, or drift refits would fire constantly.
        EXPECT_NEAR(inc.data_nll_per_point(), full.data_nll_per_point(), 0.75);
    }
}

TEST(GpModelExtend, TruncateRestoresExactPosterior)
{
    SearchSpace s = one_d_space();
    std::vector<Configuration> xs;
    std::vector<double> ys;
    smooth_history(12, &xs, &ys);

    GpModel gp(s);
    gp.fit_with_hyperparams(
        {xs.begin(), xs.begin() + 8}, {ys.begin(), ys.begin() + 8},
        fixed_hp());
    std::vector<GpPrediction> before;
    for (double x : {0.1, 0.4, 0.8})
        before.push_back(gp.predict(cfg1(x)));

    for (std::size_t i = 8; i < 12; ++i)
        ASSERT_TRUE(gp.extend(xs[i], ys[i]));
    gp.truncate(8);

    // Appends never touch the leading factor block and truncate recomputes
    // alpha from the same inputs, so restoration is bitwise — this is what
    // lets the tuner roll fantasy observations back between suggests.
    std::size_t k = 0;
    for (double x : {0.1, 0.4, 0.8}) {
        GpPrediction after = gp.predict(cfg1(x));
        EXPECT_DOUBLE_EQ(after.mean, before[k].mean);
        EXPECT_DOUBLE_EQ(after.var, before[k].var);
        ++k;
    }
}

TEST(GpModelExtend, DuplicatePointIsAbsorbed)
{
    // Appending an exact duplicate of a training point borders the kernel
    // matrix with a nearly dependent row; the noise term (plus, if needed,
    // extend's escalating extra jitter) must keep the factor viable.
    SearchSpace s = one_d_space();
    std::vector<Configuration> xs;
    std::vector<double> ys;
    smooth_history(8, &xs, &ys);
    GpModel gp(s);
    gp.fit_with_hyperparams(xs, ys, fixed_hp());
    ASSERT_TRUE(gp.extend(xs[3], ys[3]));
    GpPrediction p = gp.predict(cfg1(0.5));
    EXPECT_TRUE(std::isfinite(p.mean));
    EXPECT_TRUE(std::isfinite(p.var));
    EXPECT_GE(p.var, 0.0);
}

TEST(GpModelExtend, RefusesBeforeFit)
{
    SearchSpace s = one_d_space();
    GpModel gp(s);
    EXPECT_FALSE(gp.fitted());
    EXPECT_FALSE(gp.extend(cfg1(0.5), 1.0));
    std::vector<Configuration> xs;
    std::vector<double> ys;
    smooth_history(4, &xs, &ys);
    gp.fit_with_hyperparams(xs, ys, fixed_hp());
    EXPECT_TRUE(gp.fitted());
    EXPECT_TRUE(gp.extend(cfg1(0.9), 0.7));
}

TEST(GpModel, NaiveFitStillWorks)
{
    // BaCO--'s single-start fit must remain functional.
    SearchSpace s = one_d_space();
    GpOptions opt;
    opt.advanced_fit = false;
    opt.use_priors = false;
    GpModel gp(s, opt);
    RngEngine rng(10);
    std::vector<Configuration> xs{cfg1(0.0), cfg1(0.5), cfg1(1.0)};
    std::vector<double> ys{0.0, 1.0, 0.0};
    gp.fit(xs, ys, rng);
    EXPECT_NEAR(gp.predict(cfg1(0.5)).mean, 1.0, 0.2);
}

// ---- Batch prediction against the scalar posterior -----------------------

/**
 * The scalar posterior the batch path replaced, rebuilt from public
 * pieces: per-pair SearchSpace::dim_distance, one cross-covariance vector
 * and one forward substitution per candidate. It mirrors GpModel's fit,
 * extend and truncate for a factor without diagonal shift.
 */
class ScalarPosterior {
 public:
  ScalarPosterior(const SearchSpace& s, const GpHyperparams& hp,
                  const std::vector<Configuration>& xs,
                  const std::vector<double>& ys)
      : s_(&s), xs_(xs), s2_(std::exp(hp.log_outputscale)),
        noise_(std::exp(hp.log_noise))
  {
      for (double l : hp.log_lengthscales)
          ls_.push_back(std::exp(l));
      standardizer_.fit(ys);
      for (double y : ys)
          ys_std_.push_back(standardizer_.transform(y));
      DistanceTensor t;
      t.n = xs.size();
      t.dists.assign(s.num_params(), Matrix(t.n, t.n));
      for (std::size_t k = 0; k < s.num_params(); ++k)
          for (std::size_t i = 0; i < t.n; ++i)
              for (std::size_t j = i + 1; j < t.n; ++j) {
                  double v = s.dim_distance(k, xs[i], xs[j]);
                  t.dists[k](i, j) = v;
                  t.dists[k](j, i) = v;
              }
      chol_ = cholesky(kernel_matrix(t, hp));
      EXPECT_TRUE(chol_.has_value());
      alpha_ = chol_->solve(ys_std_);
  }

  bool extend(const Configuration& x, double y)
  {
      double diag = s2_ + noise_ + 0.0;
      double extra = 1e-8 * std::max(diag, 1.0);
      for (int attempt = 0; attempt < 6; ++attempt) {
          if (chol_->append(cross(x), diag)) {
              xs_.push_back(x);
              ys_std_.push_back(standardizer_.transform(y));
              alpha_ = chol_->solve(ys_std_);
              return true;
          }
          diag += extra;
          extra *= 10.0;
      }
      return false;
  }

  void truncate(std::size_t k)
  {
      xs_.resize(k);
      ys_std_.resize(k);
      chol_->shrink(k);
      alpha_ = chol_->solve(ys_std_);
  }

  GpPrediction predict(const Configuration& x) const
  {
      std::vector<double> kvec = cross(x);
      const Matrix& l = chol_->lower();
      std::vector<double> v(kvec.size(), 0.0);
      for (std::size_t i = 0; i < v.size(); ++i)
          v[i] = (kvec[i] - dot_n(l.row(i), v.data(), i)) / l(i, i);
      GpPrediction p;
      p.mean = standardizer_.inverse(dot(kvec, alpha_));
      p.var = standardizer_.inverse_variance(
          std::max(s2_ - dot(v, v), 1e-12));
      return p;
  }

 private:
  std::vector<double> cross(const Configuration& x) const
  {
      std::vector<double> kvec(xs_.size());
      for (std::size_t i = 0; i < xs_.size(); ++i) {
          double r2 = 0.0;
          for (std::size_t k = 0; k < s_->num_params(); ++k) {
              double v = s_->dim_distance(k, x, xs_[i]) / ls_[k];
              r2 += v * v;
          }
          kvec[i] = s2_ * matern52(std::sqrt(r2));
      }
      return kvec;
  }

  const SearchSpace* s_;
  std::vector<Configuration> xs_;
  std::vector<double> ls_;
  double s2_, noise_;
  Standardizer standardizer_;
  std::vector<double> ys_std_;
  std::optional<CholeskyFactor> chol_;
  std::vector<double> alpha_;
};

/** Every parameter kind, every permutation metric, log and linear. */
SearchSpace
all_kinds_space()
{
    SearchSpace s;
    s.add_real("lr", 1e-4, 1.0, /*log_scale=*/true);
    s.add_real("mix", 0.0, 1.0);
    s.add_integer("width", 1, 512, /*log_scale=*/true);
    s.add_integer("depth", 0, 9);
    s.add_ordinal("tile", {2, 4, 8, 16, 32, 64, 128}, /*log_scale=*/true);
    s.add_ordinal("vec", {1, 3, 5, 7});
    s.add_categorical("mode", {"a", "b", "c"});
    s.add_permutation("p_sp", 4, PermutationMetric::kSpearman);
    s.add_permutation("p_ke", 5, PermutationMetric::kKendall);
    s.add_permutation("p_ha", 3, PermutationMetric::kHamming);
    s.add_permutation("p_na", 3, PermutationMetric::kNaive);
    return s;
}

double
all_kinds_objective(const Configuration& c)
{
    double lr = std::log10(as_real(c[0]));
    double w = std::log2(static_cast<double>(as_int(c[2])));
    double perm = as_permutation(c[7])[0] + 0.5 * as_permutation(c[8])[1];
    return (lr + 2.0) * (lr + 2.0) + as_real(c[1]) + 0.05 * w +
           0.1 * static_cast<double>(as_int(c[3])) + 0.3 * as_int(c[6]) +
           0.2 * perm;
}

void
expect_batch_matches_scalar(const GpModel& gp, const ScalarPosterior& ref,
                            const std::vector<Configuration>& cands,
                            const char* stage)
{
    std::vector<GpPrediction> batch;
    gp.predict_batch(cands, batch);
    ASSERT_EQ(batch.size(), cands.size());
    for (std::size_t c = 0; c < cands.size(); ++c) {
        GpPrediction want = ref.predict(cands[c]);
        EXPECT_EQ(batch[c].mean, want.mean) << stage << " candidate " << c;
        EXPECT_EQ(batch[c].var, want.var) << stage << " candidate " << c;
    }
}

TEST(GpModelBatch, PredictBatchMatchesScalarPosteriorBitForBit)
{
    SearchSpace s = all_kinds_space();
    RngEngine rng(31);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (int i = 0; i < 30; ++i) {
        xs.push_back(s.sample_unconstrained(rng));
        ys.push_back(all_kinds_objective(xs.back()));
    }
    // 13 fresh candidates (not a multiple of the solve's 4-row block) plus
    // two training points.
    std::vector<Configuration> cands;
    for (int i = 0; i < 13; ++i)
        cands.push_back(s.sample_unconstrained(rng));
    cands.push_back(xs[3]);
    cands.push_back(xs[17]);

    const std::size_t base = 24;
    GpModel gp(s);
    gp.fit({xs.begin(), xs.begin() + base}, {ys.begin(), ys.begin() + base},
           rng);
    ASSERT_EQ(gp.diag_shift(), 0.0);
    ScalarPosterior ref(s, gp.hyperparams(), {xs.begin(), xs.begin() + base},
                        {ys.begin(), ys.begin() + base});
    expect_batch_matches_scalar(gp, ref, cands, "fit");

    for (std::size_t i = base; i < xs.size(); ++i) {
        ASSERT_TRUE(gp.extend(xs[i], ys[i]));
        ASSERT_TRUE(ref.extend(xs[i], ys[i]));
    }
    expect_batch_matches_scalar(gp, ref, cands, "extend");

    gp.truncate(base + 2);
    ref.truncate(base + 2);
    expect_batch_matches_scalar(gp, ref, cands, "truncate");

    // predict() is the batch of one.
    for (const Configuration& c : cands) {
        GpPrediction one = gp.predict(c);
        GpPrediction want = ref.predict(c);
        EXPECT_EQ(one.mean, want.mean);
        EXPECT_EQ(one.var, want.var);
    }
}

TEST(GpModelBatch, FitWithHyperparamsMatchesScalarPosterior)
{
    SearchSpace s = all_kinds_space();
    RngEngine rng(32);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (int i = 0; i < 20; ++i) {
        xs.push_back(s.sample_unconstrained(rng));
        ys.push_back(all_kinds_objective(xs.back()));
    }
    GpHyperparams hp;
    hp.log_lengthscales.assign(s.num_params(), std::log(0.7));
    hp.log_outputscale = 0.2;
    hp.log_noise = std::log(1e-3);
    GpModel gp(s);
    gp.fit_with_hyperparams(xs, ys, hp);
    ASSERT_EQ(gp.diag_shift(), 0.0);
    ScalarPosterior ref(s, hp, xs, ys);
    std::vector<Configuration> cands;
    for (int i = 0; i < 9; ++i)
        cands.push_back(s.sample_unconstrained(rng));
    expect_batch_matches_scalar(gp, ref, cands, "fit_with_hyperparams");
    // The model's own objective sees the same distance tensor.
    EXPECT_TRUE(std::isfinite(gp.objective(hp)));
}

}  // namespace
}  // namespace baco
