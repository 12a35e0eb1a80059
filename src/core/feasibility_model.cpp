#include "core/feasibility_model.hpp"

namespace baco {

ForestOptions
FeasibilityModel::default_options()
{
    ForestOptions opt;
    opt.task = TreeTask::kClassification;
    opt.num_trees = 40;
    opt.max_depth = 16;
    opt.min_samples_leaf = 1;
    return opt;
}

FeasibilityModel::FeasibilityModel(const SearchSpace& space, ForestOptions opt)
    : space_(&space), forest_(opt)
{
}

void
FeasibilityModel::fit(const std::vector<Observation>& observations,
                      RngEngine& rng)
{
    std::size_t n_feasible = 0, n_infeasible = 0;
    for (const Observation& o : observations)
        (o.feasible ? n_feasible : n_infeasible) += 1;
    if (n_feasible == 0 || n_infeasible == 0) {
        active_ = false;
        return;
    }

    std::vector<std::vector<double>> x;
    std::vector<double> y;
    x.reserve(observations.size());
    y.reserve(observations.size());
    for (const Observation& o : observations) {
        x.push_back(space_->encode(o.config));
        y.push_back(o.feasible ? 1.0 : 0.0);
    }
    forest_.fit(x, y, rng);
    active_ = true;
}

double
FeasibilityModel::probability(const Configuration& c) const
{
    if (!active_)
        return 1.0;
    return probabilities(space_->encode_rows({c}))[0];
}

std::vector<double>
FeasibilityModel::probabilities(const Matrix& rows) const
{
    std::vector<ForestPrediction> p = forest_.predict_rows(rows);
    std::vector<double> out(p.size());
    for (std::size_t i = 0; i < p.size(); ++i)
        out[i] = p[i].mean;
    return out;
}

}  // namespace baco
