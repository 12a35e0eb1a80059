#ifndef BACO_RF_RANDOM_FOREST_HPP_
#define BACO_RF_RANDOM_FOREST_HPP_

/**
 * @file
 * Random forest (bagged CART trees with feature subsampling).
 *
 * Two uses in this repository:
 *  - BaCO's hidden-constraint feasibility classifier (paper Sec. 4.2);
 *  - the Ytopt-like baseline's regression surrogate and the RF-surrogate
 *    ablation in Fig. 8, where the across-tree variance provides the
 *    uncertainty estimate.
 */

#include <vector>

#include "linalg/matrix.hpp"
#include "rf/decision_tree.hpp"

namespace baco {

/** Forest configuration. */
struct ForestOptions {
  TreeTask task = TreeTask::kRegression;
  int num_trees = 40;
  int max_depth = 24;
  std::size_t min_samples_leaf = 1;
  /**
   * Features per split; 0 = heuristic default (sqrt(F) for classification,
   * max(1, F/3) for regression).
   */
  std::size_t max_features = 0;
  bool bootstrap = true;
};

/** Mean/variance prediction pair (variance across trees). */
struct ForestPrediction {
  double mean = 0.0;
  double var = 0.0;
};

/** Bagged decision-tree ensemble. */
class RandomForest {
 public:
  explicit RandomForest(ForestOptions opt = ForestOptions{}) : opt_(opt) {}

  /** Fit on feature rows x and targets y (classification: y in {0,1}). */
  void fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y, RngEngine& rng);

  /** Mean prediction: regression mean or P(class 1); a batch of one. */
  double predict(const std::vector<double>& x) const;

  /** Mean and across-tree variance (surrogate uncertainty); a batch of
   *  one. */
  ForestPrediction predict_with_variance(const std::vector<double>& x) const;

  /**
   * predict_with_variance() for every row of x (one feature row per
   * candidate). Trees run in the outer loop, so each tree is walked for
   * the whole block while it is hot; every row still sums its trees in
   * tree order.
   */
  std::vector<ForestPrediction> predict_rows(const Matrix& x) const;

  bool fitted() const { return !trees_.empty(); }
  std::size_t num_trees() const { return trees_.size(); }

 private:
  ForestOptions opt_;
  std::vector<DecisionTree> trees_;
};

}  // namespace baco

#endif  // BACO_RF_RANDOM_FOREST_HPP_
