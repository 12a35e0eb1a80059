#include "rf/decision_tree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace baco {

namespace {

/** Mean of y over idx[lo..hi). */
double
subset_mean(const std::vector<double>& y, const std::vector<std::size_t>& idx,
            std::size_t lo, std::size_t hi)
{
    double acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i)
        acc += y[idx[i]];
    return acc / static_cast<double>(hi - lo);
}

/** Impurity * count: SSE for regression, Gini for classification. */
double
impurity(TreeTask task, double sum, double sum_sq, double count)
{
    if (count <= 0.0)
        return 0.0;
    if (task == TreeTask::kRegression)
        return sum_sq - sum * sum / count;  // sum of squared errors
    double p = sum / count;                 // fraction of class 1
    return count * 2.0 * p * (1.0 - p);     // weighted Gini
}

}  // namespace

void
DecisionTree::fit(const std::vector<std::vector<double>>& x,
                  const std::vector<double>& y,
                  const std::vector<std::size_t>& sample_idx, RngEngine& rng)
{
    nodes_.clear();
    std::vector<std::size_t> idx = sample_idx;
    assert(!idx.empty());
    grow(x, y, idx, 0, idx.size(), 0, rng);
}

std::int32_t
DecisionTree::grow(const std::vector<std::vector<double>>& x,
                   const std::vector<double>& y,
                   std::vector<std::size_t>& idx, std::size_t lo,
                   std::size_t hi, int depth, RngEngine& rng)
{
    std::size_t count = hi - lo;
    double node_value = subset_mean(y, idx, lo, hi);

    auto make_leaf = [&]() {
        Node leaf;
        leaf.value = node_value;
        nodes_.push_back(leaf);
        return static_cast<std::int32_t>(nodes_.size() - 1);
    };

    if (depth >= opt_.max_depth || count < opt_.min_samples_split)
        return make_leaf();

    // Pure node?
    bool pure = true;
    for (std::size_t i = lo + 1; i < hi && pure; ++i)
        pure = (y[idx[i]] == y[idx[lo]]);
    if (pure)
        return make_leaf();

    std::size_t n_features = x[idx[lo]].size();
    std::size_t mtry = opt_.max_features == 0
                           ? n_features
                           : std::min(opt_.max_features, n_features);
    std::vector<std::size_t> features =
        rng.sample_without_replacement(n_features, mtry);

    double best_gain = 1e-12;
    int best_feature = -1;
    double best_threshold = 0.0;

    std::vector<std::pair<double, double>> vals;  // (feature value, target)
    vals.reserve(count);

    double total_sum = 0.0, total_sq = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
        total_sum += y[idx[i]];
        total_sq += y[idx[i]] * y[idx[i]];
    }
    double parent_imp = impurity(opt_.task, total_sum, total_sq,
                                 static_cast<double>(count));

    for (std::size_t f : features) {
        vals.clear();
        for (std::size_t i = lo; i < hi; ++i)
            vals.emplace_back(x[idx[i]][f], y[idx[i]]);
        std::sort(vals.begin(), vals.end());
        if (vals.front().first == vals.back().first)
            continue;

        double left_sum = 0.0, left_sq = 0.0;
        for (std::size_t i = 0; i + 1 < vals.size(); ++i) {
            left_sum += vals[i].second;
            left_sq += vals[i].second * vals[i].second;
            if (vals[i].first == vals[i + 1].first)
                continue;  // can't split between equal values
            std::size_t nl = i + 1;
            std::size_t nr = count - nl;
            if (nl < opt_.min_samples_leaf || nr < opt_.min_samples_leaf)
                continue;
            double gain = parent_imp -
                          impurity(opt_.task, left_sum, left_sq,
                                   static_cast<double>(nl)) -
                          impurity(opt_.task, total_sum - left_sum,
                                   total_sq - left_sq,
                                   static_cast<double>(nr));
            if (gain > best_gain) {
                best_gain = gain;
                best_feature = static_cast<int>(f);
                best_threshold = 0.5 * (vals[i].first + vals[i + 1].first);
            }
        }
    }

    if (best_feature < 0)
        return make_leaf();

    // Partition idx[lo..hi) in place.
    std::size_t mid = lo;
    for (std::size_t i = lo; i < hi; ++i) {
        if (x[idx[i]][static_cast<std::size_t>(best_feature)] <=
            best_threshold) {
            std::swap(idx[i], idx[mid]);
            ++mid;
        }
    }
    if (mid == lo || mid == hi)
        return make_leaf();  // degenerate split (numerical ties)

    // Reserve this node's slot before growing children.
    Node node;
    node.feature = best_feature;
    node.threshold = best_threshold;
    node.value = node_value;
    nodes_.push_back(node);
    auto self = static_cast<std::int32_t>(nodes_.size() - 1);

    std::int32_t left = grow(x, y, idx, lo, mid, depth + 1, rng);
    std::int32_t right = grow(x, y, idx, mid, hi, depth + 1, rng);
    nodes_[static_cast<std::size_t>(self)].left = left;
    nodes_[static_cast<std::size_t>(self)].right = right;
    return self;
}

double
DecisionTree::predict(const double* x) const
{
    assert(!nodes_.empty());
    std::size_t cur = 0;
    while (nodes_[cur].feature >= 0) {
        const Node& n = nodes_[cur];
        cur = static_cast<std::size_t>(
            x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                  : n.right);
    }
    return nodes_[cur].value;
}

}  // namespace baco
