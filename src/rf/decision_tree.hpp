#ifndef BACO_RF_DECISION_TREE_HPP_
#define BACO_RF_DECISION_TREE_HPP_

/**
 * @file
 * CART decision tree over dense numeric features.
 *
 * Used as the building block of the random forest (feasibility prediction,
 * paper Sec. 4.2; Ytopt-style RF surrogate, Sec. 5.1). Supports regression
 * (variance reduction) and binary classification (Gini impurity with leaf
 * probability estimates).
 */

#include <cstdint>
#include <vector>

#include "linalg/rng.hpp"

namespace baco {

/** Tree task type. */
enum class TreeTask { kRegression, kClassification };

/** Tree growth limits. */
struct TreeOptions {
  TreeTask task = TreeTask::kRegression;
  int max_depth = 24;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /** Features examined per split; 0 = all. */
  std::size_t max_features = 0;
};

/** A single CART tree. */
class DecisionTree {
 public:
  explicit DecisionTree(TreeOptions opt = TreeOptions{}) : opt_(opt) {}

  /**
   * Fit on the rows of x indexed by sample_idx (bootstrap support).
   * For classification, y entries must be 0 or 1.
   */
  void fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y,
           const std::vector<std::size_t>& sample_idx, RngEngine& rng);

  /** Predicted value: mean target (regression) or P(class 1). */
  double predict(const std::vector<double>& x) const {
    return predict(x.data());
  }

  /** predict() over a raw feature row (at least as many entries as the
   *  training rows had). */
  double predict(const double* x) const;

  /** Number of nodes, for tests. */
  std::size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    int feature = -1;        ///< -1 marks a leaf
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;      ///< leaf prediction
  };

  std::int32_t grow(const std::vector<std::vector<double>>& x,
                    const std::vector<double>& y,
                    std::vector<std::size_t>& idx, std::size_t lo,
                    std::size_t hi, int depth, RngEngine& rng);

  TreeOptions opt_;
  std::vector<Node> nodes_;
};

}  // namespace baco

#endif  // BACO_RF_DECISION_TREE_HPP_
