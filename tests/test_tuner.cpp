// The BaCO tuner end-to-end on synthetic objectives.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/tuner.hpp"
#include "suite/registry.hpp"
#include "suite/runner.hpp"

namespace baco {
namespace {

/** Mixed-type space with a known constraint and a known optimum. */
SearchSpace
synthetic_space()
{
    SearchSpace s;
    s.add_ordinal("tile", {2, 4, 8, 16, 32, 64, 128, 256}, true);
    s.add_categorical("mode", {"a", "b"});
    s.add_ordinal("unroll", {1, 2, 4, 8}, true);
    s.add_constraint("unroll <= tile");
    return s;
}

/** Smooth objective: optimum at tile=32, mode=b, unroll=4 -> value 1. */
EvalResult
synthetic_eval(const Configuration& c, RngEngine&)
{
    double tile = static_cast<double>(as_int(c[0]));
    bool mode_b = as_int(c[1]) == 1;
    double unroll = static_cast<double>(as_int(c[2]));
    double v = 1.0 + std::pow(std::log2(tile / 32.0), 2) +
               (mode_b ? 0.0 : 1.5) + 0.5 * std::pow(std::log2(unroll / 4.0), 2);
    return EvalResult{v, true};
}

TEST(Tuner, FindsNearOptimumWithinBudget)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 30;
    opt.doe_samples = 8;
    opt.seed = 1;
    Tuner tuner(s, opt);
    TuningHistory h = tuner.run(synthetic_eval);
    EXPECT_EQ(h.size(), 30u);
    EXPECT_LE(h.best_value, 1.6);  // optimum is 1.0
    ASSERT_TRUE(h.best_config.has_value());
    EXPECT_TRUE(s.satisfies(*h.best_config));
}

TEST(Tuner, AllEvaluatedConfigsSatisfyKnownConstraints)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 25;
    opt.seed = 2;
    Tuner tuner(s, opt);
    TuningHistory h = tuner.run(synthetic_eval);
    for (const Observation& o : h.observations)
        EXPECT_TRUE(s.satisfies(o.config));
}

TEST(Tuner, AvoidsDuplicateEvaluations)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 40;
    opt.seed = 3;
    Tuner tuner(s, opt);
    TuningHistory h = tuner.run(synthetic_eval);
    std::set<std::size_t> hashes;
    for (const Observation& o : h.observations)
        hashes.insert(config_hash(o.config));
    // The feasible space (8*2*4 minus constraint violations) is larger than
    // the budget, so no duplicates should be needed.
    EXPECT_EQ(hashes.size(), h.size());
}

TEST(Tuner, DeterministicGivenSeed)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 20;
    opt.seed = 4;
    TuningHistory h1 = Tuner(s, opt).run(synthetic_eval);
    TuningHistory h2 = Tuner(s, opt).run(synthetic_eval);
    ASSERT_EQ(h1.size(), h2.size());
    for (std::size_t i = 0; i < h1.size(); ++i) {
        EXPECT_TRUE(configs_equal(h1.observations[i].config,
                                  h2.observations[i].config));
    }
}

TEST(Tuner, HandlesHiddenConstraints)
{
    SearchSpace s = synthetic_space();
    // Half the space fails at evaluation time (hidden): mode "a" crashes.
    BlackBoxFn eval = [](const Configuration& c, RngEngine& rng) {
        if (as_int(c[1]) == 0)
            return EvalResult::infeasible();
        return synthetic_eval(c, rng);
    };
    TunerOptions opt;
    opt.budget = 30;
    opt.seed = 5;
    Tuner tuner(s, opt);
    TuningHistory h = tuner.run(eval);
    ASSERT_TRUE(h.best_config.has_value());
    EXPECT_EQ(as_int((*h.best_config)[1]), 1);
    // The feasibility model should steer sampling: the late phase should
    // try mode b far more often than mode a.
    int late_feasible = 0, late_total = 0;
    for (std::size_t i = h.size() / 2; i < h.size(); ++i) {
        late_total += 1;
        late_feasible += h.observations[i].feasible ? 1 : 0;
    }
    EXPECT_GT(late_feasible, late_total / 2);
}

TEST(Tuner, SurvivesAllInfeasibleStart)
{
    SearchSpace s = synthetic_space();
    // Everything is infeasible: the tuner must not crash or loop forever.
    BlackBoxFn eval = [](const Configuration&, RngEngine&) {
        return EvalResult::infeasible();
    };
    TunerOptions opt;
    opt.budget = 15;
    opt.seed = 6;
    Tuner tuner(s, opt);
    TuningHistory h = tuner.run(eval);
    EXPECT_EQ(h.size(), 15u);
    EXPECT_FALSE(h.best_config.has_value());
    EXPECT_TRUE(std::isinf(h.best_value));
}

TEST(Tuner, BudgetSmallerThanDoe)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 4;
    opt.doe_samples = 10;
    opt.seed = 7;
    Tuner tuner(s, opt);
    TuningHistory h = tuner.run(synthetic_eval);
    EXPECT_EQ(h.size(), 4u);
}

TEST(Tuner, RfSurrogateVariantRuns)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 25;
    opt.seed = 8;
    opt.surrogate = TunerOptions::Surrogate::kRandomForest;
    Tuner tuner(s, opt);
    TuningHistory h = tuner.run(synthetic_eval);
    EXPECT_EQ(h.size(), 25u);
    EXPECT_TRUE(h.best_config.has_value());
}

TEST(Tuner, BacoMinusMinusRunsAndIsWorseOrEqualOnAverage)
{
    SearchSpace s = synthetic_space();
    double full = 0.0, reduced = 0.0;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        TunerOptions a = TunerOptions::baco_defaults();
        a.budget = 25;
        a.seed = seed;
        TunerOptions b = TunerOptions::baco_minus_minus();
        b.budget = 25;
        b.seed = seed;
        full += Tuner(s, a).run(synthetic_eval).best_value;
        reduced += Tuner(s, b).run(synthetic_eval).best_value;
    }
    EXPECT_LE(full, reduced + 0.5);  // full BaCO should not be clearly worse
}

// ---- Incremental surrogate refit policy ---------------------------------

TEST(TunerIncremental, DeterministicGivenSeedInBothModes)
{
    // Same-seed reproducibility must hold in each mode independently
    // (the default-on incremental path is already covered by
    // Tuner.DeterministicGivenSeed; this pins the escape hatch too).
    SearchSpace s = synthetic_space();
    for (bool incremental : {true, false}) {
        TunerOptions opt;
        opt.budget = 20;
        opt.seed = 11;
        opt.incremental_fit = incremental;
        TuningHistory h1 = Tuner(s, opt).run(synthetic_eval);
        TuningHistory h2 = Tuner(s, opt).run(synthetic_eval);
        ASSERT_EQ(h1.size(), h2.size());
        for (std::size_t i = 0; i < h1.size(); ++i) {
            EXPECT_TRUE(configs_equal(h1.observations[i].config,
                                      h2.observations[i].config))
                << "incremental=" << incremental << " step " << i;
        }
    }
}

TEST(TunerIncremental, QualityParityWithFullRefits)
{
    // Incremental mode cannot produce bit-identical suggestion sequences
    // to the always-refit mode: a full refit draws multistart
    // hyperparameter samples from the shared RNG while an append draws
    // nothing, so the modes' RNG streams diverge after the first skipped
    // refit by construction. The parity claim that IS testable — and the
    // one that matters — is search quality: both modes maintain the same
    // posterior to ~1e-9 between refits, so across seeds neither may
    // systematically out-search the other. 0.4 bounds the seed-averaged
    // best-value gap at ~1/3 of the objective's unit scale (optimum 1.0,
    // range ~4), far below any systematic-regression signal.
    SearchSpace s = synthetic_space();
    double inc_sum = 0.0, full_sum = 0.0;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        TunerOptions a;
        a.budget = 25;
        a.seed = seed;
        a.incremental_fit = true;
        TunerOptions b = a;
        b.incremental_fit = false;
        inc_sum += Tuner(s, a).run(synthetic_eval).best_value;
        full_sum += Tuner(s, b).run(synthetic_eval).best_value;
    }
    EXPECT_NEAR(inc_sum / 6.0, full_sum / 6.0, 0.4);
}

TEST(TunerIncremental, HiddenConstraintSteeringInBothModes)
{
    // The feasibility-model path (hidden constraints) must work
    // identically well with incremental refits: mode "a" crashes at
    // evaluation time, and in both modes the late phase must have learned
    // to steer toward mode "b".
    SearchSpace s = synthetic_space();
    BlackBoxFn eval = [](const Configuration& c, RngEngine& rng) {
        if (as_int(c[1]) == 0)
            return EvalResult::infeasible();
        return synthetic_eval(c, rng);
    };
    for (bool incremental : {true, false}) {
        TunerOptions opt;
        opt.budget = 30;
        opt.seed = 5;
        opt.incremental_fit = incremental;
        Tuner tuner(s, opt);
        TuningHistory h = tuner.run(eval);
        ASSERT_TRUE(h.best_config.has_value())
            << "incremental=" << incremental;
        EXPECT_EQ(as_int((*h.best_config)[1]), 1)
            << "incremental=" << incremental;
        int late_feasible = 0, late_total = 0;
        for (std::size_t i = h.size() / 2; i < h.size(); ++i) {
            late_total += 1;
            late_feasible += h.observations[i].feasible ? 1 : 0;
        }
        EXPECT_GT(late_feasible, late_total / 2)
            << "incremental=" << incremental;
    }
}

TEST(TunerIncremental, RefitCadenceKnobs)
{
    // refit_every=1 forces a full refit on (nearly) every tell; a huge
    // cadence with a huge drift threshold leans maximally on appends.
    // Both extremes must still find the optimum region and stay
    // deterministic.
    SearchSpace s = synthetic_space();
    for (int cadence : {1, 1000}) {
        TunerOptions opt;
        opt.budget = 25;
        opt.seed = 12;
        opt.incremental_fit = true;
        opt.refit_every = cadence;
        opt.refit_nll_drift = cadence == 1000 ? 1e9 : 1.0;
        TuningHistory h1 = Tuner(s, opt).run(synthetic_eval);
        TuningHistory h2 = Tuner(s, opt).run(synthetic_eval);
        EXPECT_EQ(h1.size(), 25u);
        EXPECT_LE(h1.best_value, 2.0) << "cadence " << cadence;
        ASSERT_EQ(h1.size(), h2.size());
        for (std::size_t i = 0; i < h1.size(); ++i)
            EXPECT_TRUE(configs_equal(h1.observations[i].config,
                                      h2.observations[i].config))
                << "cadence " << cadence << " step " << i;
    }
}

TEST(Tuner, ContinuousParameterSupport)
{
    SearchSpace s;
    s.add_real("x", 0.0, 1.0);
    s.add_real("y", 0.0, 1.0);
    BlackBoxFn eval = [](const Configuration& c, RngEngine&) {
        double x = as_real(c[0]), y = as_real(c[1]);
        return EvalResult{(x - 0.3) * (x - 0.3) + (y - 0.7) * (y - 0.7) + 0.1,
                          true};
    };
    TunerOptions opt;
    opt.budget = 30;
    opt.seed = 9;
    opt.log_objective = false;
    Tuner tuner(s, opt);
    TuningHistory h = tuner.run(eval);
    EXPECT_LT(h.best_value, 0.15);
}

TEST(Tuner, TracksTimingBreakdown)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 15;
    opt.seed = 10;
    Tuner tuner(s, opt);
    TuningHistory h = tuner.run(synthetic_eval);
    EXPECT_GE(h.tuner_seconds, 0.0);
    EXPECT_GE(h.eval_seconds, 0.0);
}

// ---- Pinned histories ----------------------------------------------------
//
// Fixed-seed runs whose full histories (every configuration and every
// result) are folded into one FNV-1a signature. The acquisition scorer, the
// surrogate's distance math and the feasibility forest must reproduce these
// bit for bit: relative parity tests (policy vs policy, resume vs
// uninterrupted) cannot see a rounding change that every path shares.

std::uint64_t
history_signature(const TuningHistory& h)
{
    std::uint64_t sig = 0xcbf29ce484222325ULL;
    auto mix = [&sig](const void* data, std::size_t n) {
        const unsigned char* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            sig ^= p[i];
            sig *= 0x100000001b3ULL;
        }
    };
    auto mix_u64 = [&mix](std::uint64_t v) { mix(&v, sizeof v); };
    auto mix_double = [&mix_u64](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        mix_u64(bits);
    };
    for (const Observation& o : h.observations) {
        for (const ParamValue& v : o.config) {
            mix_u64(v.index());
            if (std::holds_alternative<double>(v)) {
                mix_double(std::get<double>(v));
            } else if (std::holds_alternative<std::int64_t>(v)) {
                mix_u64(static_cast<std::uint64_t>(std::get<std::int64_t>(v)));
            } else {
                for (int x : std::get<Permutation>(v))
                    mix_u64(static_cast<std::uint64_t>(x));
            }
        }
        mix_double(o.value);
        mix_u64(o.feasible ? 1 : 0);
    }
    return sig;
}

std::uint64_t
registry_signature(const std::string& name, suite::Method m, int budget,
                   std::uint64_t seed, const SpaceVariant& variant = {})
{
    TuningHistory h = suite::run_method(suite::find_benchmark(name), m,
                                        budget, seed, variant);
    EXPECT_EQ(h.size(), static_cast<std::size_t>(budget)) << name;
    return history_signature(h);
}

TEST(TunerPinned, TacoPermutationSpearmanHistory)
{
    EXPECT_EQ(registry_signature("SpMM/scircuit", suite::Method::kBaco, 40, 3),
              2064435890712201894ULL);
}

TEST(TunerPinned, TacoPermutationKendallHistory)
{
    SpaceVariant kendall;
    kendall.permutation_metric = PermutationMetric::kKendall;
    EXPECT_EQ(registry_signature("SpMM/scircuit", suite::Method::kBaco, 40, 3,
                                 kendall),
              8636738239931161190ULL);
}

TEST(TunerPinned, RiseHiddenConstraintHistory)
{
    // Scal_GPU fails some configurations at evaluation time, so the
    // feasibility forest is active for most of the run.
    const Benchmark& b = suite::find_benchmark("Scal_GPU");
    TuningHistory h = suite::run_method(b, suite::Method::kBaco, 40, 5);
    std::size_t infeasible = 0;
    for (const Observation& o : h.observations)
        infeasible += o.feasible ? 0 : 1;
    EXPECT_GT(infeasible, 0u);
    EXPECT_LT(infeasible, h.size());
    EXPECT_EQ(history_signature(h), 2881619213307281209ULL);
}

TEST(TunerPinned, HpvmHistory)
{
    EXPECT_EQ(registry_signature("BFS", suite::Method::kBaco, 20, 7), 12638974265120105477ULL);
}

TEST(TunerPinned, LogScaledRealSpaceHistory)
{
    SearchSpace s;
    s.add_real("lr", 1e-4, 1.0, /*log_scale=*/true);
    s.add_real("mix", 0.0, 1.0);
    s.add_integer("width", 1, 512, /*log_scale=*/true);
    s.add_categorical("mode", {"a", "b", "c"});
    BlackBoxFn eval = [](const Configuration& c, RngEngine&) {
        double lr = std::log10(as_real(c[0]));
        double mix = as_real(c[1]);
        double w = std::log2(static_cast<double>(as_int(c[2])));
        double v = 1.0 + (lr + 2.5) * (lr + 2.5) + (mix - 0.3) * (mix - 0.3) +
                   0.1 * (w - 6.0) * (w - 6.0) + 0.4 * as_int(c[3]);
        return EvalResult{v, true};
    };
    TunerOptions opt;
    opt.budget = 30;
    opt.doe_samples = 8;
    opt.seed = 13;
    EXPECT_EQ(history_signature(Tuner(s, opt).run(eval)), 4984750483906996223ULL);
}

TEST(TunerPinned, RandomForestSurrogateHistory)
{
    // The Fig. 8 ablation: BaCO's loop with the forest as value model.
    std::shared_ptr<SearchSpace> s =
        suite::find_benchmark("MM_CPU").make_space(SpaceVariant{});
    TunerOptions opt;
    opt.budget = 30;
    opt.doe_samples = 10;
    opt.seed = 17;
    opt.surrogate = TunerOptions::Surrogate::kRandomForest;
    EXPECT_EQ(history_signature(Tuner(*s, opt).run(
                  suite::find_benchmark("MM_CPU").evaluate)),
              7171003826305351970ULL);
}

TEST(TunerPinned, YtoptHistories)
{
    EXPECT_EQ(registry_signature("SpMM/scircuit", suite::Method::kYtoptGp, 30,
                                 3),
              12884999919384639079ULL);
    EXPECT_EQ(registry_signature("Scal_GPU", suite::Method::kYtopt, 30, 5),
              13793448396580512279ULL);
}

}  // namespace
}  // namespace baco
