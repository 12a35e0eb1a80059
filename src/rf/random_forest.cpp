#include "rf/random_forest.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace baco {

void
RandomForest::fit(const std::vector<std::vector<double>>& x,
                  const std::vector<double>& y, RngEngine& rng)
{
    if (x.empty() || x.size() != y.size())
        throw std::runtime_error("RandomForest::fit needs matching samples");

    std::size_t n = x.size();
    std::size_t f = x[0].size();

    std::size_t mtry = opt_.max_features;
    if (mtry == 0) {
        if (opt_.task == TreeTask::kClassification) {
            mtry = static_cast<std::size_t>(
                std::max(1.0, std::sqrt(static_cast<double>(f))));
        } else {
            mtry = std::max<std::size_t>(1, f / 3);
        }
    }

    TreeOptions topt;
    topt.task = opt_.task;
    topt.max_depth = opt_.max_depth;
    topt.min_samples_leaf = opt_.min_samples_leaf;
    topt.max_features = mtry;

    trees_.clear();
    trees_.reserve(static_cast<std::size_t>(opt_.num_trees));
    std::vector<std::size_t> idx(n);
    for (int t = 0; t < opt_.num_trees; ++t) {
        if (opt_.bootstrap) {
            for (std::size_t i = 0; i < n; ++i)
                idx[i] = rng.index(n);
        } else {
            std::iota(idx.begin(), idx.end(), std::size_t{0});
        }
        DecisionTree tree(topt);
        tree.fit(x, y, idx, rng);
        trees_.push_back(std::move(tree));
    }
}

double
RandomForest::predict(const std::vector<double>& x) const
{
    return predict_with_variance(x).mean;
}

ForestPrediction
RandomForest::predict_with_variance(const std::vector<double>& x) const
{
    Matrix row(1, x.size());
    std::copy(x.begin(), x.end(), row.row(0));
    return predict_rows(row)[0];
}

std::vector<ForestPrediction>
RandomForest::predict_rows(const Matrix& x) const
{
    assert(!trees_.empty());
    std::size_t m = x.rows();
    std::vector<double> sum(m, 0.0), sum_sq(m, 0.0);
    for (const DecisionTree& t : trees_) {
        for (std::size_t r = 0; r < m; ++r) {
            double v = t.predict(x.row(r));
            sum[r] += v;
            sum_sq[r] += v * v;
        }
    }
    double n = static_cast<double>(trees_.size());
    std::vector<ForestPrediction> out(m);
    for (std::size_t r = 0; r < m; ++r) {
        out[r].mean = sum[r] / n;
        out[r].var = std::max(0.0, sum_sq[r] / n - out[r].mean * out[r].mean);
    }
    return out;
}

}  // namespace baco
