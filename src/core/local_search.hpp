#ifndef BACO_CORE_LOCAL_SEARCH_HPP_
#define BACO_CORE_LOCAL_SEARCH_HPP_

/**
 * @file
 * Multi-start local search for acquisition-function optimization
 * (paper Sec. 3.3).
 *
 * A large uniform candidate pool is scored; the best few become start
 * points for hill climbing over single-parameter neighbourhoods, with
 * whole-tree resampling "macro moves" for co-dependent parameter groups.
 * All proposals stay inside the feasible region (CoT membership when
 * available, otherwise explicit constraint checks).
 */

#include <functional>
#include <optional>

#include "core/chain_of_trees.hpp"
#include "core/search_space.hpp"

namespace baco {

/** Local-search budget knobs. */
struct LocalSearchOptions {
  int random_samples = 600;  ///< candidate pool size
  int starts = 5;            ///< hill-climbing start points
  int max_steps = 40;        ///< steps per climb
  int tree_moves = 2;        ///< macro moves per co-dependent tree per step
  bool cot_uniform_leaves = true;
  /** When false, skip hill climbing: pick the pool's best (BaCO--). */
  bool hill_climb = true;
};

/**
 * Batch scorer: one score to maximize per candidate, in order. Return
 * -inf/negative to reject a candidate. The search hands it the whole pool
 * at once and then each climb step's feasible moves; it must draw nothing
 * from the search's RNG.
 */
using ScoreFn =
    std::function<std::vector<double>(const std::vector<Configuration>&)>;

/**
 * Maximize score over the feasible region. Returns nullopt when no feasible
 * candidate could be produced (pathologically sparse rejection sampling).
 */
std::optional<Configuration> local_search_maximize(
    const SearchSpace& space, const ChainOfTrees* cot, const ScoreFn& score,
    RngEngine& rng, const LocalSearchOptions& opt = LocalSearchOptions{});

}  // namespace baco

#endif  // BACO_CORE_LOCAL_SEARCH_HPP_
