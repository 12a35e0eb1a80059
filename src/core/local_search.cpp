#include "core/local_search.hpp"

#include <algorithm>
#include <limits>

namespace baco {

namespace {

/** Feasibility filter shared by pool and neighbour candidates. */
bool
is_feasible(const SearchSpace& space, const ChainOfTrees* cot,
            const Configuration& c)
{
    if (cot)
        return cot->contains(c);
    return space.satisfies(c);
}

}  // namespace

std::optional<Configuration>
local_search_maximize(const SearchSpace& space, const ChainOfTrees* cot,
                      const ScoreFn& score, RngEngine& rng,
                      const LocalSearchOptions& opt)
{
    // ---- Candidate pool: sampled first, then scored as one batch. ----
    std::vector<Configuration> candidates;
    candidates.reserve(static_cast<std::size_t>(opt.random_samples));
    for (int i = 0; i < opt.random_samples; ++i) {
        if (cot) {
            candidates.push_back(cot->sample(rng, opt.cot_uniform_leaves));
        } else if (auto s = space.sample_feasible(rng, 200)) {
            candidates.push_back(std::move(*s));
        }
    }
    if (candidates.empty())
        return std::nullopt;
    std::vector<double> values = score(candidates);

    struct Scored {
      Configuration config;
      double value;
    };
    std::vector<Scored> pool;
    pool.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i)
        pool.push_back(Scored{std::move(candidates[i]), values[i]});

    std::size_t n_starts = std::min<std::size_t>(
        static_cast<std::size_t>(opt.starts), pool.size());
    std::partial_sort(pool.begin(),
                      pool.begin() + static_cast<std::ptrdiff_t>(n_starts),
                      pool.end(), [](const Scored& a, const Scored& b) {
                          return a.value > b.value;
                      });

    Configuration best = pool[0].config;
    double best_score = pool[0].value;

    if (!opt.hill_climb)
        return best;

    // ---- Hill climbing from each start. ----
    for (std::size_t s = 0; s < n_starts; ++s) {
        Configuration cur = pool[s].config;
        double cur_score = pool[s].value;
        for (int step = 0; step < opt.max_steps; ++step) {
            // Single-parameter moves...
            std::vector<Configuration> moves = space.neighbors(cur, rng);
            // ...plus whole-tree resampling for co-dependent groups.
            if (cot) {
                for (std::size_t t = 0; t < cot->num_trees(); ++t) {
                    for (int m = 0; m < opt.tree_moves; ++m) {
                        Configuration c = cur;
                        cot->resample_tree(t, c, rng, opt.cot_uniform_leaves);
                        moves.push_back(std::move(c));
                    }
                }
            }
            moves.erase(std::remove_if(moves.begin(), moves.end(),
                                       [&](const Configuration& c) {
                                           return !is_feasible(space, cot, c);
                                       }),
                        moves.end());
            double best_move_score = cur_score;
            std::optional<Configuration> best_move;
            if (!moves.empty()) {
                std::vector<double> scores = score(moves);
                for (std::size_t i = 0; i < moves.size(); ++i) {
                    if (scores[i] > best_move_score) {
                        best_move_score = scores[i];
                        best_move = std::move(moves[i]);
                    }
                }
            }
            if (!best_move)
                break;  // local optimum
            cur = std::move(*best_move);
            cur_score = best_move_score;
        }
        if (cur_score > best_score) {
            best_score = cur_score;
            best = std::move(cur);
        }
    }
    return best;
}

}  // namespace baco
