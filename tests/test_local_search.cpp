// Multi-start local search: improvement, feasibility, ablation mode.

#include <gtest/gtest.h>

#include <cmath>

#include "core/local_search.hpp"

namespace baco {
namespace {

/** Batch ScoreFn from a per-configuration score. */
template <typename F>
ScoreFn
batch(F f)
{
    return [f](const std::vector<Configuration>& cs) {
        std::vector<double> out;
        for (const Configuration& c : cs)
            out.push_back(f(c));
        return out;
    };
}

SearchSpace
grid_space()
{
    SearchSpace s;
    s.add_ordinal("a", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
    s.add_ordinal("b", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
    return s;
}

TEST(LocalSearch, FindsGlobalOptimumOnSmoothGrid)
{
    SearchSpace s = grid_space();
    // Score peaks at (7, 3).
    auto score = [](const Configuration& c) {
        double a = static_cast<double>(as_int(c[0]));
        double b = static_cast<double>(as_int(c[1]));
        return -(a - 7) * (a - 7) - (b - 3) * (b - 3);
    };
    RngEngine rng(1);
    LocalSearchOptions opt;
    opt.random_samples = 20;
    opt.starts = 3;
    auto best = local_search_maximize(s, nullptr, batch(score), rng, opt);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(as_int((*best)[0]), 7);
    EXPECT_EQ(as_int((*best)[1]), 3);
}

TEST(LocalSearch, BeatsPoolOnlyModeOnAverage)
{
    SearchSpace s = grid_space();
    auto score = [](const Configuration& c) {
        double a = static_cast<double>(as_int(c[0]));
        double b = static_cast<double>(as_int(c[1]));
        return -(a - 9) * (a - 9) - (b - 9) * (b - 9);
    };
    int climb_wins = 0;
    for (int trial = 0; trial < 20; ++trial) {
        RngEngine r1(static_cast<std::uint64_t>(trial));
        RngEngine r2(static_cast<std::uint64_t>(trial));
        LocalSearchOptions climb;
        climb.random_samples = 5;
        climb.starts = 2;
        LocalSearchOptions pool = climb;
        pool.hill_climb = false;
        double with = score(*local_search_maximize(s, nullptr, batch(score),
                                                   r1, climb));
        double without = score(*local_search_maximize(s, nullptr,
                                                      batch(score), r2, pool));
        climb_wins += (with >= without) ? 1 : 0;
    }
    EXPECT_GE(climb_wins, 18);  // hill climbing should (weakly) dominate
}

TEST(LocalSearch, RespectsKnownConstraintsViaCot)
{
    SearchSpace s;
    s.add_ordinal("a", {1, 2, 4, 8, 16});
    s.add_ordinal("b", {1, 2, 4, 8, 16});
    s.add_constraint("a >= b");
    ChainOfTrees cot = ChainOfTrees::build(s);
    // Push toward the infeasible corner (small a, large b): the search must
    // stay inside a >= b.
    auto score = [](const Configuration& c) {
        return static_cast<double>(as_int(c[1]) - as_int(c[0]));
    };
    RngEngine rng(3);
    auto best = local_search_maximize(s, &cot, batch(score), rng);
    ASSERT_TRUE(best.has_value());
    EXPECT_GE(as_int((*best)[0]), as_int((*best)[1]));
    // The constrained optimum is a == b.
    EXPECT_EQ(as_int((*best)[0]), as_int((*best)[1]));
}

TEST(LocalSearch, TreeMovesEscapeCoupledLocalOptima)
{
    // Score depends jointly on two co-dependent parameters; single-
    // parameter moves often leave the feasible region, so whole-tree
    // resampling is needed to move at all.
    SearchSpace s;
    s.add_ordinal("a", {1, 2, 4, 8, 16, 32});
    s.add_ordinal("b", {1, 2, 4, 8, 16, 32});
    s.add_constraint("a == b");  // diagonal only
    ChainOfTrees cot = ChainOfTrees::build(s);
    auto score = [](const Configuration& c) {
        return static_cast<double>(as_int(c[0]));
    };
    RngEngine rng(4);
    LocalSearchOptions opt;
    opt.random_samples = 4;
    auto best = local_search_maximize(s, &cot, batch(score), rng, opt);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(as_int((*best)[0]), 32);
}

TEST(LocalSearch, HandlesRejectingScore)
{
    SearchSpace s = grid_space();
    // All candidates rejected: the search still returns something (the
    // least-bad candidate) rather than crashing.
    auto score = [](const Configuration&) { return -1.0; };
    RngEngine rng(5);
    auto best = local_search_maximize(s, nullptr, batch(score), rng);
    EXPECT_TRUE(best.has_value());
}

}  // namespace
}  // namespace baco
