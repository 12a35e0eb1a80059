#ifndef BACO_GP_GP_MODEL_HPP_
#define BACO_GP_GP_MODEL_HPP_

/**
 * @file
 * Gaussian-process surrogate over a mixed-type compiler search space
 * (paper Sec. 3.2).
 *
 * The model is fit by MAP estimation: multistart L-BFGS on the negative log
 * marginal likelihood with gamma priors on the lengthscales (and weakly
 * informative priors on output scale and noise). Predictions return the
 * *latent* (noise-free) mean/variance used by the modified EI acquisition
 * (paper Sec. 3.3).
 *
 * Objective values are standardized internally; any log-transform of the
 * objective is applied by the caller (the tuner), so the ablation switches
 * compose cleanly.
 */

#include <optional>
#include <vector>

#include "core/search_space.hpp"
#include "gp/kernel.hpp"
#include "gp/lbfgs.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/stats.hpp"

namespace baco {

/** Fitting options; the defaults are BaCO's. */
struct GpOptions {
  /** Gamma lengthscale priors (paper Sec. 3.2). Off in BaCO--. */
  bool use_priors = true;
  /** Multistart MAP fitting. Off in BaCO-- (single short descent). */
  bool advanced_fit = true;

  int multistart_samples = 10;  ///< random hyperparameter draws
  int multistart_keep = 2;      ///< best starts refined with L-BFGS
  int lbfgs_iters = 40;         ///< refinement iterations per start
  int naive_lbfgs_iters = 12;   ///< iterations when advanced_fit is false

  // Prior shapes/rates (on the natural-scale hyperparameters).
  double lengthscale_shape = 2.0;
  double lengthscale_rate = 3.0;
  double outputscale_shape = 2.0;
  double outputscale_rate = 1.0;
  double noise_shape = 1.1;
  double noise_rate = 20.0;
};

/** GP posterior summary at one point (standardized-output units undone). */
struct GpPrediction {
  double mean = 0.0;
  double var = 0.0;  ///< latent variance (no observation noise)
};

/** Gaussian-process regression model. */
class GpModel {
 public:
  /** @param space the search space providing per-dimension distances. */
  explicit GpModel(const SearchSpace& space, GpOptions opt = GpOptions{});

  /**
   * Fit hyperparameters and the posterior to (xs, ys).
   * Requires xs.size() == ys.size() >= 2.
   */
  void fit(const std::vector<Configuration>& xs,
           const std::vector<double>& ys, RngEngine& rng);

  /**
   * Rebuild the posterior for (xs, ys) under fixed hyperparameters —
   * no multistart, no RNG. Used by parity tests to isolate the posterior
   * math from hyperparameter optimization, and available as a cheap
   * "refresh without refit" primitive.
   */
  void fit_with_hyperparams(const std::vector<Configuration>& xs,
                            const std::vector<double>& ys,
                            const GpHyperparams& hp);

  /**
   * Append one observation to the fitted model *without* re-optimizing
   * hyperparameters or re-standardizing: the existing Cholesky factor is
   * grown in place (O(n^2), see CholeskyFactor::append). y must be in the
   * same space as the ys of the last fit() (i.e. the caller applies any
   * log-objective transform); standardization is internal and frozen from
   * the last full fit.
   *
   * Returns false — model untouched — when the bordered kernel matrix is
   * not numerically SPD even after escalating extra jitter on the new
   * diagonal entry; the caller should fall back to a full fit().
   */
  bool extend(const Configuration& x, double y);

  /**
   * Drop training points k..n-1, restoring the model to its state before
   * the corresponding extend() calls (hyperparameters, standardizer and
   * the leading factor block are unchanged by extend). Requires k >= 2
   * and k <= size(). Used to roll back constant-liar fantasy points.
   */
  void truncate(std::size_t k);

  /**
   * Negative log marginal likelihood per training point of the *current*
   * posterior state (frozen hyperparameters, standardized outputs).
   * Cheap — reuses the stored factor and weights. The tuner compares this
   * against its value right after the last full fit to detect drift that
   * warrants re-optimizing hyperparameters.
   */
  double data_nll_per_point() const;

  /** Diagonal shift (posterior boost + jitter) baked into the factor by
   *  the last fit; extend() adds the same shift to appended diagonals. */
  double diag_shift() const { return diag_shift_; }

  /** Whether fit() has succeeded at least once. */
  bool fitted() const { return fitted_; }

  /** Posterior latent mean/variance at x (requires a prior fit()); a
   *  batch of one. */
  GpPrediction predict(const Configuration& x) const;

  /**
   * Posterior latent mean/variance at every candidate (requires a prior
   * fit()); out is resized to xs.size(). Builds the candidates'
   * distance coordinates once, the m x n cross-kernel block from them and
   * the training coordinates, and solves all m rows against the factor in
   * one blocked forward substitution.
   */
  void predict_batch(const std::vector<Configuration>& xs,
                     std::vector<GpPrediction>& out) const;

  /** Negative log posterior (NLL + priors) at hp, for tests/diagnostics. */
  double objective(const GpHyperparams& hp) const;

  /** objective() plus its analytic gradient w.r.t. the log-hyperparameter
   *  vector [lengthscales..., outputscale, noise], for tests/diagnostics. */
  double objective_with_gradient(const GpHyperparams& hp,
                                 std::vector<double>* grad) const;

  /** Hyperparameters from the last fit. */
  const GpHyperparams& hyperparams() const { return hp_; }

  /** Number of training points. */
  std::size_t size() const { return ys_std_.size(); }

 private:
  /** NLL + negative log priors and its gradient at theta (log space). */
  double nll(const std::vector<double>& theta,
             std::vector<double>* grad) const;

  GpHyperparams default_hyperparams() const;

  /** Standardize ys and rebuild coords_ and the distance tensor from xs;
   *  the shared head of the fit paths. */
  void set_training_set(const std::vector<Configuration>& xs,
                        const std::vector<double>& ys);

  /** Rebuild chol_, alpha_ (and diag_shift_) from tensor_/ys_std_ under
   *  the current hp_; shared tail of fit paths. */
  void refresh_posterior();

  /** Distance coordinates of xs, one row per configuration. */
  Matrix coords_of(const std::vector<Configuration>& xs) const;

  /** Kernel cross-covariances k(x_c, x_i) under the fitted scales between
   *  every candidate row c of cand (coordinates) and training point i. */
  Matrix cross_kernel(const Matrix& cand) const;

  const SearchSpace* space_;
  GpOptions opt_;

  /** Per-dimension coordinate metrics, taken at the last fit. */
  std::vector<CoordMetric> metrics_;
  /** Training-point distance coordinates, n x d. */
  Matrix coords_;
  std::vector<double> ys_std_;
  Standardizer standardizer_;
  DistanceTensor tensor_;

  GpHyperparams hp_;
  std::optional<GpHyperparams> warm_start_;
  std::optional<CholeskyFactor> chol_;
  std::vector<double> alpha_;
  std::vector<double> lengthscales_;  // exp of fitted log lengthscales
  double diag_shift_ = 0.0;           // boost + jitter baked into chol_
  bool fitted_ = false;
};

}  // namespace baco

#endif  // BACO_GP_GP_MODEL_HPP_
