// JSONL checkpoint/resume: round-trip fidelity and mid-budget resume
// reproducing the uninterrupted history exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "baselines/opentuner_like.hpp"
#include "core/tuner.hpp"
#include "exec/checkpoint.hpp"
#include "api/study.hpp"

namespace baco {
namespace {

/** Mixed-type space including a permutation, to stress serialization. */
SearchSpace
mixed_space()
{
    SearchSpace s;
    s.add_ordinal("tile", {2, 4, 8, 16, 32, 64, 128, 256}, true);
    s.add_real("alpha", 0.1, 2.0);
    s.add_permutation("loops", 3);
    return s;
}

EvalResult
mixed_eval(const Configuration& c, RngEngine& rng)
{
    double tile = static_cast<double>(as_int(c[0]));
    double alpha = as_real(c[1]);
    const auto& perm = std::get<Permutation>(c[2]);
    double v = 1.0 + std::pow(std::log2(tile / 32.0), 2) +
               (alpha - 0.7) * (alpha - 0.7) +
               (perm[0] == 0 ? 0.0 : 0.8);
    if (tile >= 128 && alpha > 1.5)
        return EvalResult::infeasible();  // hidden constraint
    return EvalResult{v * rng.lognormal_factor(0.02), true};
}

TEST(Checkpoint, SaveLoadRoundtripPreservesHistory)
{
    SearchSpace s = mixed_space();
    TunerOptions opt;
    opt.budget = 12;
    opt.doe_samples = 5;
    opt.seed = 4;
    opt.log_objective = false;
    Tuner tuner(s, opt);
    ExecRequest req;
    req.objective = mixed_eval;
    req.max_evals = 12;
    execute(tuner, req);

    std::string path = testing::TempDir() + "baco_test_ckpt_roundtrip.jsonl";
    ASSERT_TRUE(save_checkpoint(path, tuner));

    std::optional<CheckpointData> data = load_checkpoint(path);
    ASSERT_TRUE(data.has_value());
    EXPECT_EQ(data->seed, opt.seed);
    EXPECT_TRUE(histories_equal(data->history, tuner.history()));
    EXPECT_EQ(data->history.best_value, tuner.history().best_value);
    EXPECT_EQ(data->sampler_state, tuner.sampler_state());
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumeReproducesUninterruptedHistory)
{
    SearchSpace s = mixed_space();
    TunerOptions opt;
    opt.budget = 20;
    opt.doe_samples = 6;
    opt.seed = 13;
    opt.log_objective = false;

    ExecRequest req;
    req.policy = ExecutionPolicy::Batched(2);
    req.objective = mixed_eval;

    // Reference: one uninterrupted run.
    Tuner full(s, opt);
    execute(full, req);
    TuningHistory reference = full.take_history();
    ASSERT_EQ(reference.size(), 20u);

    // Interrupted run: 8 evaluations (a batch boundary), then "crash".
    std::string path = testing::TempDir() + "baco_test_ckpt_resume.jsonl";
    req.checkpoint_path = path;
    {
        Tuner interrupted(s, opt);
        req.max_evals = 8;
        execute(interrupted, req);
        ASSERT_EQ(interrupted.history().size(), 8u);
    }

    // Resume into a fresh tuner and finish the budget.
    Tuner resumed(s, opt);
    ASSERT_TRUE(resume_from_checkpoint(path, resumed));
    ASSERT_EQ(resumed.history().size(), 8u);
    req.max_evals = -1;
    execute(resumed, req);
    TuningHistory final_history = resumed.take_history();

    EXPECT_TRUE(histories_equal(reference, final_history));
    EXPECT_EQ(reference.best_value, final_history.best_value);
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumeWorksForBaselines)
{
    SearchSpace s = mixed_space();
    OpenTunerLike::Options opt;
    opt.budget = 14;
    opt.initial_random = 5;
    opt.seed = 23;

    std::string path = testing::TempDir() + "baco_test_ckpt_baseline.jsonl";
    {
        OpenTunerLike interrupted(s, opt);
        ExecRequest req;
        req.objective = mixed_eval;
        req.checkpoint_path = path;
        req.max_evals = 6;
        execute(interrupted, req);
    }

    OpenTunerLike resumed(s, opt);
    ASSERT_TRUE(resume_from_checkpoint(path, resumed));
    EXPECT_EQ(resumed.history().size(), 6u);
    ExecRequest req;
    req.objective = mixed_eval;
    execute(resumed, req);
    TuningHistory h = resumed.take_history();
    EXPECT_EQ(h.size(), 14u);
    std::remove(path.c_str());
}

TEST(Checkpoint, BanditWindowResumesBitForBit)
{
    // The AUC credit window and use counts are serialized in the sampler
    // state, so a resumed OpenTunerLike run makes identical technique
    // choices — the full history matches the uninterrupted run exactly.
    SearchSpace s = mixed_space();
    OpenTunerLike::Options opt;
    opt.budget = 30;
    opt.initial_random = 6;
    opt.seed = 91;

    ExecRequest req;
    req.objective = mixed_eval;
    OpenTunerLike full(s, opt);
    execute(full, req);
    TuningHistory reference = full.take_history();
    ASSERT_EQ(reference.size(), 30u);

    // Interrupt well past the seed phase, when the bandit credit state
    // actively steers technique selection.
    std::string path = testing::TempDir() + "baco_test_ckpt_bandit.jsonl";
    {
        OpenTunerLike interrupted(s, opt);
        ExecRequest copt = req;
        copt.checkpoint_path = path;
        copt.max_evals = 18;
        execute(interrupted, copt);
    }

    OpenTunerLike resumed(s, opt);
    ASSERT_TRUE(resume_from_checkpoint(path, resumed));
    ASSERT_EQ(resumed.history().size(), 18u);
    execute(resumed, req);
    TuningHistory final_history = resumed.take_history();

    EXPECT_TRUE(histories_equal(reference, final_history));
    EXPECT_EQ(reference.best_value, final_history.best_value);
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumeRejectsSeedMismatch)
{
    SearchSpace s = mixed_space();
    OpenTunerLike::Options opt;
    opt.budget = 10;
    opt.initial_random = 4;
    opt.seed = 5;

    std::string path = testing::TempDir() + "baco_test_ckpt_seed.jsonl";
    {
        OpenTunerLike run(s, opt);
        ExecRequest req;
        req.objective = mixed_eval;
        req.checkpoint_path = path;
        req.max_evals = 4;
        execute(run, req);
    }

    // The per-evaluation RNG streams are rooted at the run seed, so a
    // checkpoint must not restore into a differently-seeded tuner.
    OpenTunerLike::Options other = opt;
    other.seed = 6;
    OpenTunerLike mismatched(s, other);
    EXPECT_FALSE(resume_from_checkpoint(path, mismatched));
    OpenTunerLike matched(s, opt);
    EXPECT_TRUE(resume_from_checkpoint(path, matched));
    std::remove(path.c_str());
}

/** A tuner that only holds a fixed history: what save_checkpoint reads. */
class FixedTuner : public AskTellTuner {
 public:
  explicit FixedTuner(TuningHistory h) : history_(std::move(h)) {}
  std::vector<Configuration> suggest(int) override { return {}; }
  void observe(const std::vector<Configuration>&,
               const std::vector<EvalResult>&) override {}
  int remaining() const override { return 0; }
  std::uint64_t run_seed() const override { return 9; }
  const TuningHistory& history() const override { return history_; }
  TuningHistory& mutable_history() override { return history_; }
  TuningHistory take_history() override { return history_; }
  std::string sampler_state() const override { return "42 17;gp=1"; }

 private:
  TuningHistory history_;
};

std::string
read_file(const std::string& path)
{
    std::string text;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        return text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

TEST(Checkpoint, SavedFileBytesArePinned)
{
    Configuration a = {std::int64_t{8}, 0.375, Permutation{2, 0, 1}};
    Configuration b = {std::int64_t{2}, 1.5, Permutation{0, 1, 2}};
    Configuration c = {std::int64_t{64}, 0.125, Permutation{1, 2, 0}};
    TuningHistory h;
    h.add(a, EvalResult{1.5, true});
    h.add(b, EvalResult{std::numeric_limits<double>::infinity(), false});
    h.add(c, EvalResult{0.75, true});
    h.tuner_seconds = 0.25;
    h.eval_seconds = 2.5;
    FixedTuner tuner(h);
    std::vector<PendingEval> pending = {
        PendingEval{3, {std::int64_t{16}, 2.0, Permutation{2, 1, 0}}}};

    std::string path = testing::TempDir() + "baco_test_ckpt_pinned.jsonl";
    ASSERT_TRUE(save_checkpoint(path, tuner, pending));
    EXPECT_EQ(read_file(path),
              "{\"type\":\"meta\",\"version\":1,\"seed\":9,"
              "\"tuner_seconds\":0.25,\"eval_seconds\":2.5}\n"
              "{\"type\":\"obs\",\"config\":[{\"i\":8},{\"r\":0.375},"
              "{\"p\":[2,0,1]}],\"value\":1.5,\"feasible\":true}\n"
              "{\"type\":\"obs\",\"config\":[{\"i\":2},{\"r\":1.5},"
              "{\"p\":[0,1,2]}],\"value\":inf,\"feasible\":false}\n"
              "{\"type\":\"obs\",\"config\":[{\"i\":64},{\"r\":0.125},"
              "{\"p\":[1,2,0]}],\"value\":0.75,\"feasible\":true}\n"
              "{\"type\":\"pending\",\"index\":3,\"config\":[{\"i\":16},"
              "{\"r\":2},{\"p\":[2,1,0]}]}\n"
              "{\"type\":\"state\",\"rng\":\"42 17;gp=1\"}\n");

    // The pinned file loads back to the same history, bare "inf" included.
    std::optional<CheckpointData> data = load_checkpoint(path);
    ASSERT_TRUE(data.has_value());
    EXPECT_EQ(data->seed, 9u);
    EXPECT_TRUE(histories_equal(data->history, h));
    EXPECT_TRUE(std::isinf(data->history.observations[1].value));
    EXPECT_EQ(data->history.tuner_seconds, 0.25);
    EXPECT_EQ(data->history.eval_seconds, 2.5);
    ASSERT_EQ(data->pending.size(), 1u);
    EXPECT_EQ(data->pending[0].index, 3u);
    EXPECT_TRUE(configs_equal(data->pending[0].config, pending[0].config));
    EXPECT_EQ(data->sampler_state, "42 17;gp=1");
    std::remove(path.c_str());
}

TEST(Checkpoint, LoadMissingOrCorruptFileFails)
{
    EXPECT_FALSE(load_checkpoint("/nonexistent/ckpt.jsonl").has_value());

    std::string path = testing::TempDir() + "baco_test_ckpt_corrupt.jsonl";
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("this is not json\n", f);
        std::fclose(f);
    }
    EXPECT_FALSE(load_checkpoint(path).has_value());

    // A field that is present but fails its typed read makes the file
    // corrupt: loading it as 0 or false would restore a wrong history (a
    // value-0 feasible observation is a spurious incumbent).
    const std::string meta =
        "{\"type\":\"meta\",\"version\":1,\"seed\":3,"
        "\"tuner_seconds\":0,\"eval_seconds\":0}\n";
    const std::string obs = "{\"type\":\"obs\",\"config\":[{\"i\":4}],";
    const std::string state = "{\"type\":\"state\",\"rng\":\"\"}\n";
    for (const std::string& text : {
             meta + obs + "\"value\":abc,\"feasible\":true}\n" + state,
             meta + obs + "\"value\":1.5,\"feasible\":maybe}\n" + state,
             meta + obs + "\"value\":2x,\"feasible\":true}\n" + state,
             meta + obs + "\"value\":1.5}\n" + state,
             std::string("{\"type\":\"meta\",\"version\":1,\"seed\":x7}\n") +
                 state,
             std::string("{\"type\":\"meta\",\"version\":1,\"seed\":3,"
                         "\"tuner_seconds\":fast}\n") +
                 state,
             meta + "{\"type\":\"pending\",\"index\":-1,"
                    "\"config\":[{\"i\":4}]}\n" + state,
             meta + "{\"type\":\"state\",\"rng\":17}\n",
         }) {
        std::FILE* f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(text.c_str(), f);
        std::fclose(f);
        EXPECT_FALSE(load_checkpoint(path).has_value()) << text;
    }
    // The same file with well-typed fields loads.
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs((meta + obs + "\"value\":1.5,\"feasible\":true}\n" + state)
                       .c_str(),
                   f);
        std::fclose(f);
    }
    std::optional<CheckpointData> good = load_checkpoint(path);
    ASSERT_TRUE(good.has_value());
    EXPECT_EQ(good->history.size(), 1u);
    std::remove(path.c_str());
}

TEST(Checkpoint, PendingEvaluationsRoundTrip)
{
    SearchSpace s = mixed_space();
    TunerOptions opt;
    opt.budget = 12;
    opt.doe_samples = 4;
    opt.seed = 6;
    opt.log_objective = false;
    Tuner tuner(s, opt);
    ExecRequest req;
    req.objective = mixed_eval;
    req.max_evals = 4;
    execute(tuner, req);

    // Two in-flight evaluations (mixed types, permutation included).
    std::vector<PendingEval> pending;
    std::vector<Configuration> batch = tuner.suggest(2);
    ASSERT_EQ(batch.size(), 2u);
    pending.push_back(PendingEval{4, batch[0]});
    pending.push_back(PendingEval{5, batch[1]});

    std::string path = testing::TempDir() + "baco_test_ckpt_pending.jsonl";
    ASSERT_TRUE(save_checkpoint(path, tuner, pending));

    std::optional<CheckpointData> data = load_checkpoint(path);
    ASSERT_TRUE(data.has_value());
    EXPECT_TRUE(histories_equal(data->history, tuner.history()));
    ASSERT_EQ(data->pending.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(data->pending[i].index, pending[i].index);
        EXPECT_TRUE(
            configs_equal(data->pending[i].config, pending[i].config));
    }

    // A batch-mode resume (no pending out-param) still restores cleanly.
    Tuner resumed(s, opt);
    EXPECT_TRUE(resume_from_checkpoint(path, resumed));
    EXPECT_TRUE(histories_equal(resumed.history(), tuner.history()));
    std::remove(path.c_str());
}

}  // namespace
}  // namespace baco
