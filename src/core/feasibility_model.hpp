#ifndef BACO_CORE_FEASIBILITY_MODEL_HPP_
#define BACO_CORE_FEASIBILITY_MODEL_HPP_

/**
 * @file
 * Hidden-constraint feasibility predictor (paper Sec. 4.2): a random-forest
 * classifier trained on every evaluated configuration (feasible or not) that
 * estimates the probability a new configuration will evaluate successfully.
 */

#include <vector>

#include "core/evaluator.hpp"
#include "core/search_space.hpp"
#include "rf/random_forest.hpp"

namespace baco {

/** RF classifier over configuration feature encodings. */
class FeasibilityModel {
 public:
  explicit FeasibilityModel(const SearchSpace& space,
                            ForestOptions opt = default_options());

  /** Classifier defaults tuned for small autotuning datasets. */
  static ForestOptions default_options();

  /**
   * Refit on the full observation history. The model only becomes active
   * once both classes (feasible and infeasible) have been observed.
   */
  void fit(const std::vector<Observation>& observations, RngEngine& rng);

  /** True when the classifier has something to discriminate. */
  bool active() const { return active_; }

  /** P(feasible); 1.0 while inactive. A batch of one. */
  double probability(const Configuration& c) const;

  /**
   * P(feasible) for every row of pre-encoded features (rows from
   * SearchSpace::encode_rows). Requires active().
   */
  std::vector<double> probabilities(const Matrix& rows) const;

 private:
  const SearchSpace* space_;
  RandomForest forest_;
  bool active_ = false;
};

}  // namespace baco

#endif  // BACO_CORE_FEASIBILITY_MODEL_HPP_
