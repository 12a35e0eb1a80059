// The hidden-constraint feasibility model.

#include <gtest/gtest.h>

#include "core/feasibility_model.hpp"

namespace baco {
namespace {

SearchSpace
make_space()
{
    SearchSpace s;
    s.add_ordinal("tile", {1, 2, 4, 8, 16, 32, 64, 128}, true);
    s.add_categorical("mode", {"a", "b"});
    return s;
}

Observation
obs(std::int64_t tile, std::int64_t mode, bool feasible)
{
    Observation o;
    o.config = {ParamValue{tile}, ParamValue{mode}};
    o.value = 1.0;
    o.feasible = feasible;
    return o;
}

TEST(FeasibilityModel, InactiveUntilBothClassesSeen)
{
    SearchSpace s = make_space();
    FeasibilityModel m(s);
    RngEngine rng(1);
    EXPECT_FALSE(m.active());
    EXPECT_DOUBLE_EQ(m.probability({ParamValue{std::int64_t{4}},
                                    ParamValue{std::int64_t{0}}}),
                     1.0);

    std::vector<Observation> all_ok{obs(1, 0, true), obs(2, 0, true),
                                    obs(4, 1, true)};
    m.fit(all_ok, rng);
    EXPECT_FALSE(m.active());

    std::vector<Observation> all_bad{obs(1, 0, false), obs(2, 0, false)};
    m.fit(all_bad, rng);
    EXPECT_FALSE(m.active());
}

TEST(FeasibilityModel, LearnsSeparableHiddenConstraint)
{
    // Hidden rule: tile > 16 crashes.
    SearchSpace s = make_space();
    FeasibilityModel m(s);
    RngEngine rng(2);
    std::vector<Observation> history;
    for (std::int64_t tile : {1, 2, 4, 8, 16, 32, 64, 128}) {
        for (std::int64_t mode : {0, 1}) {
            history.push_back(obs(tile, mode, tile <= 16));
            history.push_back(obs(tile, mode, tile <= 16));
        }
    }
    m.fit(history, rng);
    ASSERT_TRUE(m.active());
    EXPECT_GT(m.probability({ParamValue{std::int64_t{4}},
                             ParamValue{std::int64_t{0}}}),
              0.8);
    // Bootstrapped leaf probabilities smooth the estimate; 0.35 still
    // clearly separates the classes.
    EXPECT_LT(m.probability({ParamValue{std::int64_t{128}},
                             ParamValue{std::int64_t{1}}}),
              0.35);
}

TEST(FeasibilityModel, LearnsCategoricalHiddenConstraint)
{
    // Hidden rule: mode "b" crashes.
    SearchSpace s = make_space();
    FeasibilityModel m(s);
    RngEngine rng(3);
    std::vector<Observation> history;
    for (std::int64_t tile : {1, 4, 16, 64}) {
        history.push_back(obs(tile, 0, true));
        history.push_back(obs(tile, 1, false));
    }
    m.fit(history, rng);
    ASSERT_TRUE(m.active());
    EXPECT_GT(m.probability({ParamValue{std::int64_t{8}},
                             ParamValue{std::int64_t{0}}}),
              0.7);
    EXPECT_LT(m.probability({ParamValue{std::int64_t{8}},
                             ParamValue{std::int64_t{1}}}),
              0.3);
}

TEST(FeasibilityModel, ProbabilitiesAreBounded)
{
    SearchSpace s = make_space();
    FeasibilityModel m(s);
    RngEngine rng(4);
    std::vector<Observation> history{obs(1, 0, true), obs(128, 1, false),
                                     obs(4, 0, true), obs(64, 1, false)};
    m.fit(history, rng);
    RngEngine sample_rng(5);
    for (int i = 0; i < 50; ++i) {
        double p = m.probability(s.sample_unconstrained(sample_rng));
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
    }
}

TEST(FeasibilityModel, RefitReplacesState)
{
    SearchSpace s = make_space();
    FeasibilityModel m(s);
    RngEngine rng(6);
    std::vector<Observation> h1{obs(1, 0, true), obs(128, 0, false),
                                obs(2, 0, true), obs(64, 0, false)};
    m.fit(h1, rng);
    ASSERT_TRUE(m.active());
    // New history where everything is feasible deactivates the model.
    std::vector<Observation> h2{obs(1, 0, true), obs(2, 0, true)};
    m.fit(h2, rng);
    EXPECT_FALSE(m.active());
    EXPECT_DOUBLE_EQ(m.probability({ParamValue{std::int64_t{128}},
                                    ParamValue{std::int64_t{0}}}),
                     1.0);
}

TEST(FeasibilityModel, BatchProbabilitiesMatchForestPredictExactly)
{
    // The acquisition scorer asks for P(feasible) of a whole pre-encoded
    // candidate block. A forest fit on the same rows with the same RNG
    // stream is the same forest, so each batch probability must equal
    // RandomForest::predict on that candidate's encoded row, bit for bit.
    SearchSpace s = make_space();
    std::vector<Observation> history;
    for (std::int64_t tile : {1, 2, 4, 8, 16, 32, 64, 128})
        for (std::int64_t mode : {0, 1})
            history.push_back(obs(tile, mode, tile * (mode + 1) <= 32));
    FeasibilityModel m(s);
    RngEngine rng_model(7);
    m.fit(history, rng_model);
    ASSERT_TRUE(m.active());

    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (const Observation& o : history) {
        x.push_back(s.encode(o.config));
        y.push_back(o.feasible ? 1.0 : 0.0);
    }
    RandomForest forest(FeasibilityModel::default_options());
    RngEngine rng_forest(7);
    forest.fit(x, y, rng_forest);

    RngEngine sample_rng(8);
    std::vector<Configuration> cands;
    for (int i = 0; i < 37; ++i)
        cands.push_back(s.sample_unconstrained(sample_rng));
    std::vector<double> batch = m.probabilities(s.encode_rows(cands));
    ASSERT_EQ(batch.size(), cands.size());
    for (std::size_t i = 0; i < cands.size(); ++i) {
        EXPECT_EQ(batch[i], forest.predict(s.encode(cands[i]))) << i;
        EXPECT_EQ(batch[i], m.probability(cands[i])) << i;
    }
}

}  // namespace
}  // namespace baco
