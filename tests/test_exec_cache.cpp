// Evaluation cache: canonical keys, hit/miss semantics, persistence, and
// engine short-circuiting.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>

#include <unistd.h>

#include "core/tuner.hpp"
#include "exec/eval_cache.hpp"
#include "api/study.hpp"

namespace baco {
namespace {

SearchSpace
small_space()
{
    SearchSpace s;
    s.add_ordinal("tile", {2, 4, 8, 16, 32, 64}, true);
    s.add_categorical("mode", {"a", "b"});
    return s;
}

/** Deterministic objective (no measurement noise). */
EvalResult
det_eval(const Configuration& c, RngEngine&)
{
    double tile = static_cast<double>(as_int(c[0]));
    return EvalResult{tile + (as_int(c[1]) == 0 ? 10.0 : 0.0), true};
}

TEST(EvalCache, CanonicalKeyDistinguishesTypesAndValues)
{
    Configuration a = {std::int64_t{4}, 0.5, Permutation{2, 0, 1}};
    Configuration b = {std::int64_t{4}, 0.5, Permutation{2, 1, 0}};
    Configuration c = {4.0, 0.5, Permutation{2, 0, 1}};  // int vs real tag
    EXPECT_NE(EvalCache::canonical_key(a), EvalCache::canonical_key(b));
    EXPECT_NE(EvalCache::canonical_key(a), EvalCache::canonical_key(c));
    EXPECT_EQ(EvalCache::canonical_key(a), EvalCache::canonical_key(a));
}

TEST(EvalCache, HitMissSemantics)
{
    EvalCache cache;
    Configuration c = {std::int64_t{8}, std::int64_t{1}};
    EXPECT_FALSE(cache.lookup(c).has_value());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    cache.insert(c, EvalResult{3.5, true});
    auto r = cache.lookup(c);
    ASSERT_TRUE(r.has_value());
    EXPECT_DOUBLE_EQ(r->value, 3.5);
    EXPECT_TRUE(r->feasible);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);

    // First write wins.
    cache.insert(c, EvalResult{9.9, true});
    EXPECT_DOUBLE_EQ(cache.lookup(c)->value, 3.5);
}

TEST(EvalCache, SaveLoadRoundtrip)
{
    std::string path =
        testing::TempDir() + "baco_test_cache_roundtrip.jsonl";
    EvalCache cache;
    Configuration a = {std::int64_t{8}, std::int64_t{1}};
    Configuration b = {std::int64_t{2}, std::int64_t{0}};
    cache.insert(a, EvalResult{1.25, true});
    cache.insert(b, EvalResult::infeasible());
    ASSERT_TRUE(cache.save(path));

    EvalCache loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.size(), 2u);
    auto ra = loaded.lookup(a);
    ASSERT_TRUE(ra.has_value());
    EXPECT_DOUBLE_EQ(ra->value, 1.25);
    auto rb = loaded.lookup(b);
    ASSERT_TRUE(rb.has_value());
    EXPECT_FALSE(rb->feasible);
    std::remove(path.c_str());
}

TEST(EvalCache, LoadMissingFileFails)
{
    EvalCache cache;
    EXPECT_FALSE(cache.load("/nonexistent/baco_cache.jsonl"));
}

TEST(EvalCache, LoadSkipsAndCountsCorruptLines)
{
    std::string path = testing::TempDir() + "baco_test_cache_corrupt.jsonl";
    EvalCache cache;
    Configuration a = {std::int64_t{8}, std::int64_t{1}};
    Configuration b = {std::int64_t{2}, std::int64_t{0}};
    Configuration c = {std::int64_t{4}, std::int64_t{1}};
    cache.insert(a, EvalResult{1.25, true});
    cache.insert(b, EvalResult{2.5, true});
    cache.insert(c, EvalResult{7.0, false});
    ASSERT_TRUE(cache.save(path));

    // Simulate a crash mid-write (truncate the last line in half) plus a
    // garbage line appended by a faulty writer.
    {
        std::FILE* f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        long size = std::ftell(f);
        std::fclose(f);
        ASSERT_EQ(0, truncate(path.c_str(), size - 12));
        std::FILE* app = std::fopen(path.c_str(), "ab");
        ASSERT_NE(app, nullptr);
        std::fputs("\nnot json at all\n{\"key\":\"dangling\n", app);
        std::fclose(app);
    }

    EvalCache loaded;
    std::size_t corrupt = 0;
    ASSERT_TRUE(loaded.load(path, &corrupt));
    // Two intact entries survive; the truncated third and the two
    // garbage lines are skipped and counted.
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_EQ(corrupt, 3u);

    // The surviving entries are the uncorrupted ones, values intact.
    int found = 0;
    for (const Configuration* cfg : {&a, &b, &c}) {
        if (auto r = loaded.lookup(*cfg))
            ++found;
    }
    EXPECT_EQ(found, 2);

    // Lines whose fields are present but fail their typed read are
    // corrupt too, never cached as a silent 0: a non-numeric value, a
    // number with trailing junk, a non-boolean feasibility, an unquoted
    // key, and a nested key standing in for a missing top-level one.
    {
        std::FILE* app = std::fopen(path.c_str(), "ab");
        ASSERT_NE(app, nullptr);
        std::fputs("{\"key\":\"i:1|i:1\",\"value\":abc,\"feasible\":true}\n"
                   "{\"key\":\"i:1|i:2\",\"value\":3x,\"feasible\":true}\n"
                   "{\"key\":\"i:1|i:3\",\"value\":1,\"feasible\":maybe}\n"
                   "{\"key\":7,\"value\":1,\"feasible\":true}\n"
                   "{\"x\":{\"key\":\"i:1|i:4\"},\"value\":1,"
                   "\"feasible\":true}\n",
                   app);
        std::fclose(app);
    }
    EvalCache strict;
    std::size_t bad = 0;
    ASSERT_TRUE(strict.load(path, &bad));
    EXPECT_EQ(strict.size(), 2u);
    EXPECT_EQ(bad, 3u + 5u);
    std::remove(path.c_str());
}

namespace {
Configuration
cfg(std::int64_t tile, std::int64_t mode)
{
    return Configuration{tile, mode};
}
}  // namespace

TEST(EvalCache, LruBoundEvictsOldestAndCountsStats)
{
    EvalCache cache;
    cache.set_max_entries(2);
    cache.insert(cfg(2, 0), EvalResult{1.0, true});
    cache.insert(cfg(4, 0), EvalResult{2.0, true});
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 0u);

    // A lookup hit refreshes recency: after touching the oldest entry,
    // the *other* one is evicted by the next insert.
    ASSERT_TRUE(cache.lookup(cfg(2, 0)).has_value());
    cache.insert(cfg(8, 0), EvalResult{3.0, true});
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_TRUE(cache.lookup(cfg(2, 0)).has_value());   // kept (touched)
    EXPECT_FALSE(cache.lookup(cfg(4, 0)).has_value());  // evicted
    EXPECT_TRUE(cache.lookup(cfg(8, 0)).has_value());

    // Shrinking the bound evicts immediately; the evicted entries'
    // accumulated hits show up in evicted_hits.
    std::uint64_t hits_before = cache.evicted_hits();
    cache.set_max_entries(1);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 2u);
    EXPECT_GT(cache.evicted_hits(), hits_before);  // cfg(2,0) was hot

    // 0 removes the bound again.
    cache.set_max_entries(0);
    cache.insert(cfg(16, 0), EvalResult{4.0, true});
    cache.insert(cfg(32, 0), EvalResult{5.0, true});
    EXPECT_EQ(cache.size(), 3u);
}

TEST(EvalCache, BoundedReloadKeepsMostRecentlyUsedEntries)
{
    std::string path = testing::TempDir() + "baco_test_cache_lru.jsonl";
    EvalCache cache;
    for (std::int64_t t : {2, 4, 8, 16})
        cache.insert(cfg(t, 0), EvalResult{double(t), true});
    // Touch the two oldest so they are the most recently used at save.
    ASSERT_TRUE(cache.lookup(cfg(2, 0)).has_value());
    ASSERT_TRUE(cache.lookup(cfg(4, 0)).has_value());
    ASSERT_TRUE(cache.save(path));

    // Loading into a bounded cache keeps the hot entries and evicts the
    // cold tail (save orders least-recently-used first).
    EvalCache bounded;
    bounded.set_max_entries(2);
    ASSERT_TRUE(bounded.load(path));
    EXPECT_EQ(bounded.size(), 2u);
    EXPECT_EQ(bounded.evictions(), 2u);
    EXPECT_TRUE(bounded.lookup(cfg(2, 0)).has_value());
    EXPECT_TRUE(bounded.lookup(cfg(4, 0)).has_value());
    EXPECT_FALSE(bounded.lookup(cfg(8, 0)).has_value());
    EXPECT_FALSE(bounded.lookup(cfg(16, 0)).has_value());
    std::remove(path.c_str());
}

TEST(EvalCache, EngineAppliesLruBoundFromOptions)
{
    SearchSpace s = small_space();
    TunerOptions topt;
    topt.budget = 10;
    topt.doe_samples = 4;
    topt.seed = 9;
    Tuner tuner(s, topt);

    EvalCache cache;
    cache.set_max_entries(3);
    ExecRequest req;
    req.policy = ExecutionPolicy::Batched(2);
    req.objective = det_eval;
    req.cache = &cache;
    execute(tuner, req);
    EXPECT_EQ(cache.max_entries(), 3u);
    EXPECT_LE(cache.size(), 3u);
    EXPECT_GT(cache.evictions(), 0u);
}

TEST(EvalCache, NamespacesIsolateBenchmarks)
{
    EvalCache cache;
    Configuration c = {std::int64_t{8}, std::int64_t{1}};
    cache.insert("bench-a@0011223344556677", c, EvalResult{1.0, true});
    cache.insert("bench-b@8899aabbccddeeff", c, EvalResult{2.0, true});

    auto ra = cache.lookup("bench-a@0011223344556677", c);
    auto rb = cache.lookup("bench-b@8899aabbccddeeff", c);
    ASSERT_TRUE(ra.has_value());
    ASSERT_TRUE(rb.has_value());
    EXPECT_DOUBLE_EQ(ra->value, 1.0);
    EXPECT_DOUBLE_EQ(rb->value, 2.0);

    // The anonymous namespace is distinct from any named one.
    EXPECT_FALSE(cache.lookup(c).has_value());
    EXPECT_EQ(cache.size(), 2u);
}

TEST(EvalCache, NamespacedEntriesSurviveSaveLoad)
{
    std::string path = testing::TempDir() + "baco_test_cache_ns.jsonl";
    Configuration c = {std::int64_t{4}, std::int64_t{0}};
    {
        EvalCache cache;
        cache.insert("SpMM/x@0123456789abcdef", c, EvalResult{7.5, true});
        cache.insert(c, EvalResult{1.5, true});
        ASSERT_TRUE(cache.save(path));
    }
    EvalCache loaded;
    ASSERT_TRUE(loaded.load(path));
    auto rn = loaded.lookup("SpMM/x@0123456789abcdef", c);
    ASSERT_TRUE(rn.has_value());
    EXPECT_DOUBLE_EQ(rn->value, 7.5);
    auto ra = loaded.lookup(c);
    ASSERT_TRUE(ra.has_value());
    EXPECT_DOUBLE_EQ(ra->value, 1.5);
    std::remove(path.c_str());
}

TEST(EvalCache, SpaceFingerprintTracksStructure)
{
    SearchSpace a = small_space();
    SearchSpace b = small_space();
    EXPECT_EQ(EvalCache::space_fingerprint(a),
              EvalCache::space_fingerprint(b));
    EXPECT_EQ(EvalCache::space_fingerprint(a).size(), 16u);

    // Adding a parameter, changing a value set, or adding a constraint
    // all change the identity.
    SearchSpace extra = small_space();
    extra.add_real("alpha", 0.0, 1.0);
    EXPECT_NE(EvalCache::space_fingerprint(a),
              EvalCache::space_fingerprint(extra));

    SearchSpace values;
    values.add_ordinal("tile", {2, 4, 8, 16, 32, 128}, true);
    values.add_categorical("mode", {"a", "b"});
    EXPECT_NE(EvalCache::space_fingerprint(a),
              EvalCache::space_fingerprint(values));

    SearchSpace constrained = small_space();
    constrained.add_constraint("tile >= 4");
    EXPECT_NE(EvalCache::space_fingerprint(a),
              EvalCache::space_fingerprint(constrained));

    // Benchmark name and fingerprint both enter the namespace key.
    EXPECT_NE(EvalCache::namespace_key("x", a),
              EvalCache::namespace_key("y", a));
    EXPECT_NE(EvalCache::namespace_key("x", a),
              EvalCache::namespace_key("x", constrained));
}

TEST(EvalCache, EngineRespectsNamespaceOption)
{
    SearchSpace s = small_space();
    std::atomic<int> calls{0};
    BlackBoxFn counted = [&calls](const Configuration& c, RngEngine& rng) {
        calls.fetch_add(1);
        return det_eval(c, rng);
    };

    TunerOptions opt;
    opt.budget = 6;
    opt.doe_samples = 3;
    opt.seed = 21;

    EvalCache cache;
    ExecRequest ns1;
    ns1.objective = counted;
    ns1.cache = &cache;
    ns1.cache_namespace = "bench-one@aa";
    Tuner t1(s, opt);
    execute(t1, ns1);
    int after_first = calls.load();
    EXPECT_EQ(after_first, 6);

    // Same configs under a different namespace: all misses, re-evaluated.
    ExecRequest ns2 = ns1;
    ns2.cache_namespace = "bench-two@bb";
    Tuner t2(s, opt);
    execute(t2, ns2);
    EXPECT_EQ(calls.load(), 2 * after_first);

    // Same namespace again: fully served from cache.
    Tuner t3(s, opt);
    execute(t3, ns1);
    EXPECT_EQ(calls.load(), 2 * after_first);
}

TEST(EvalCache, EngineShortCircuitsRepeatRuns)
{
    SearchSpace s = small_space();
    std::atomic<int> calls{0};
    BlackBoxFn counted = [&calls](const Configuration& c, RngEngine& rng) {
        calls.fetch_add(1);
        return det_eval(c, rng);
    };

    TunerOptions opt;
    opt.budget = 10;
    opt.doe_samples = 4;
    opt.seed = 9;

    EvalCache cache;
    ExecRequest req;
    req.policy = ExecutionPolicy::Batched(2);
    req.objective = counted;
    req.cache = &cache;

    Tuner t1(s, opt);
    execute(t1, req);
    TuningHistory h1 = t1.take_history();
    int first_run_calls = calls.load();
    EXPECT_EQ(first_run_calls, 10);
    EXPECT_EQ(cache.size(), 10u);

    // Same seed, same deterministic objective: every configuration the
    // second run proposes is already cached, so the black box never runs.
    Tuner t2(s, opt);
    execute(t2, req);
    TuningHistory h2 = t2.take_history();
    EXPECT_EQ(calls.load(), first_run_calls);
    EXPECT_TRUE(histories_equal(h1, h2));
}

TEST(EvalCache, PersistedCacheShortCircuitsAcrossSessions)
{
    std::string path = testing::TempDir() + "baco_test_cache_session.jsonl";
    SearchSpace s = small_space();
    std::atomic<int> calls{0};
    BlackBoxFn counted = [&calls](const Configuration& c, RngEngine& rng) {
        calls.fetch_add(1);
        return det_eval(c, rng);
    };

    TunerOptions opt;
    opt.budget = 8;
    opt.doe_samples = 4;
    opt.seed = 17;

    {
        EvalCache cache;
        ExecRequest req;
        req.objective = counted;
        req.cache = &cache;
        Tuner t(s, opt);
        execute(t, req);
        ASSERT_TRUE(cache.save(path));
    }
    int session1_calls = calls.load();

    // A fresh "session" reloads the cache from disk.
    EvalCache cache;
    ASSERT_TRUE(cache.load(path));
    ExecRequest req;
    req.objective = counted;
    req.cache = &cache;
    Tuner t(s, opt);
    execute(t, req);
    EXPECT_EQ(calls.load(), session1_calls);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace baco
