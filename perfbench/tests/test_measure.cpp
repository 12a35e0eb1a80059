// Unit tests of the benchmark's own bookkeeping (src/measure.hpp).

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "measure.hpp"

using namespace perfbench;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Percentile, InterpolatesBetweenClosestRanks)
{
    std::vector<double> v = {5, 1, 4, 2, 3};  // unsorted on purpose
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.125), 1.5);
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(median({2.0, 8.0}), 5.0);
}

TEST(Percentile, SummaryReportsItsSampleCount)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    Latency l = summarize(v);
    EXPECT_EQ(l.count, 1000u);
    EXPECT_DOUBLE_EQ(l.p50, 500.5);
    EXPECT_NEAR(l.p99, 990.01, 1e-9);
    // p99 of 1000 samples leaves ten samples above it.
    int above = 0;
    for (double x : v)
        above += x > l.p99;
    EXPECT_EQ(above, 10);
    EXPECT_EQ(kMinP99Samples, 1000u);
}

TEST(Percentile, RoundsReportTheMedianRoundAndEverySample)
{
    // Three equal rounds; the second hit a burst that tripled its tail.
    std::vector<std::vector<double>> rounds(3);
    for (int i = 1; i <= 100; ++i) {
        rounds[0].push_back(i);
        rounds[1].push_back(i <= 90 ? i : 3.0 * i);
        rounds[2].push_back(i + 0.5);
    }
    Latency l = summarize_rounds(rounds);
    EXPECT_EQ(l.count, 300u);
    EXPECT_DOUBLE_EQ(l.p50, 50.5);  // round 0's median
    EXPECT_DOUBLE_EQ(l.p99, percentile(rounds[2], 0.99));
    // Pooled, the one burst would set the p99.
    std::vector<double> pooled;
    for (const std::vector<double>& r : rounds)
        pooled.insert(pooled.end(), r.begin(), r.end());
    EXPECT_GT(summarize(pooled).p99, 2.0 * l.p99);

    // Wall time likewise: four rounds, one slowed fivefold.
    EXPECT_DOUBLE_EQ(rounds_wall({1.0, 5.0, 1.25, 0.75}), 4.0 * 1.125);
    EXPECT_DOUBLE_EQ(rounds_wall({}), 0.0);
}

TEST(Quality, NeverFeasibleCellIsFlooredNotDropped)
{
    std::vector<QualityRun> runs = {
        {"a", 2.0, 4.0, 2.0},    // tiny 0.5, full 1.0, hit
        {"a", 2.0, 2.0, 1.0},    // tiny 1.0, full 2.0, hit
        {"b", 1.0, kInf, kInf},  // nothing feasible: 0
    };
    Quality q = summarize_quality(runs);
    // Cell a: mean tiny 0.75, mean full 1.5; cell b floored at 1e-6.
    EXPECT_NEAR(q.rel_expert_tiny, std::sqrt(0.75 * 1e-6), 1e-12);
    EXPECT_NEAR(q.rel_expert_full, std::sqrt(1.5 * 1e-6), 1e-12);
    EXPECT_EQ(q.expert_hits, 2u);
}

TEST(Quality, PartlyFeasibleCellAveragesItsZeros)
{
    std::vector<QualityRun> runs = {
        {"a", 1.0, 1.0, 1.0},
        {"a", 1.0, kInf, 2.0},  // tiny found nothing: counts 0
    };
    Quality q = summarize_quality(runs);
    EXPECT_DOUBLE_EQ(q.rel_expert_tiny, 0.5);
    EXPECT_DOUBLE_EQ(q.rel_expert_full, 0.75);
    EXPECT_EQ(q.expert_hits, 1u);
    EXPECT_DOUBLE_EQ(floored_geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(floored_geomean({4.0, 1.0}), 2.0);
}

TEST(Tally, FailedFractionCountsEveryAttempt)
{
    Tally t;
    EXPECT_DOUBLE_EQ(t.failed_frac(), 0.0);
    t.attempts(7);
    EXPECT_TRUE(t.check(true));
    EXPECT_FALSE(t.check(false, "busy"));
    EXPECT_EQ(t.attempted(), 9u);
    EXPECT_EQ(t.failed(), 1u);
    EXPECT_DOUBLE_EQ(t.failed_frac(), 1.0 / 9.0);

    Tally other;
    other.check(false, "dropped connection");
    t.merge(other);
    EXPECT_EQ(t.attempted(), 10u);
    EXPECT_EQ(t.failed(), 2u);
    ASSERT_EQ(t.messages().size(), 2u);
    EXPECT_EQ(t.messages()[1], "dropped connection");
    EXPECT_NE(result_json(t, {}).find("\"correct\": false"), std::string::npos);
}

TEST(Tally, AnEscapedExceptionIsOneFailedAttempt)
{
    Tally t;
    guarded(t, "lane 0", [] {});
    EXPECT_EQ(t.attempted(), 0u);
    guarded(t, "lane 1", [] { throw std::runtime_error("socket closed"); });
    EXPECT_EQ(t.attempted(), 1u);
    EXPECT_EQ(t.failed(), 1u);
    ASSERT_EQ(t.messages().size(), 1u);
    EXPECT_EQ(t.messages()[0], "lane 1: exception: socket closed");
}

TEST(LayerBudget, RowsAddUpToLaneTime)
{
    LayerBudget b = make_budget(10.0, {{"gp.fit", 3.0}, {"acq", 4.5}});
    ASSERT_EQ(b.rows.size(), 3u);
    EXPECT_EQ(b.rows.back().name, "unattributed");
    EXPECT_DOUBLE_EQ(b.row("unattributed"), 2.5);
    EXPECT_DOUBLE_EQ(b.sum(), 10.0);
    EXPECT_TRUE(b.adds_up(kLayerTolerance * b.lane_busy_s));

    // A remainder just below zero (rounding) is within the tolerance.
    LayerBudget rounding = make_budget(10.0, {{"objective", 10.05}});
    EXPECT_TRUE(rounding.adds_up(kLayerTolerance * rounding.lane_busy_s));

    // A budget edited after the fact no longer adds up.
    b.rows[0].seconds += 1.0;
    EXPECT_FALSE(b.adds_up(kLayerTolerance * b.lane_busy_s));
    std::ostringstream os;
    b.print(os);
    EXPECT_NE(os.str().find("unattributed"), std::string::npos);
}

TEST(LayerBudget, OverlappingRowsFail)
{
    // The objective was also counted inside the suggest time: the rows
    // overrun the lanes' time and the remainder goes negative. It is
    // reported, not clamped, and the budget does not add up.
    LayerBudget over = make_budget(1.0, {{"tuner.suggest", 0.75},
                                         {"objective", 0.5}});
    EXPECT_DOUBLE_EQ(over.row("unattributed"), -0.25);
    EXPECT_DOUBLE_EQ(over.sum(), 1.0);
    EXPECT_FALSE(over.adds_up(kLayerTolerance * over.lane_busy_s));

    // A derived row (server time minus tuner time) that went negative
    // because its parts overlap fails too, though the total still holds.
    LayerBudget derived = make_budget(
        2.0, {{"session.suggest_self", -0.1}, {"wire.suggest", 0.6}});
    EXPECT_DOUBLE_EQ(derived.row("unattributed"), 1.5);
    EXPECT_FALSE(derived.adds_up(kLayerTolerance * derived.lane_busy_s));
}

TEST(ResultJson, PrintsEveryDigitAndTheCounts)
{
    Tally t;
    t.attempts(3);
    std::string j = result_json(t, {{"wall_s", 0.1234567890123, "s"},
                                    {"expert_hits", 12, "count"}});
    EXPECT_EQ(j,
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"wall_s\": {\"value\": 0.1234567890123, "
              "\"unit\": \"s\"}, \"expert_hits\": {\"value\": 12, "
              "\"unit\": \"count\"}}}");
}

}  // namespace
