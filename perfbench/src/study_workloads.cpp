// The in-process workload: BaCO studies driven in ask/tell form on
// kLanes threads, longest budget first.
//
//   repro         every registry benchmark at its full Table 3 budget,
//                 several seeds: the paper's own matrix. Short histories
//                 (20-120), so acquisition, CoT sampling, the feasibility
//                 forest and short GP fits carry the time.

#include <algorithm>
#include <atomic>
#include <thread>

#include "api/study.hpp"
#include "common.hpp"
#include "exec/ask_tell.hpp"
#include "serve/worker.hpp"
#include "suite/registry.hpp"

namespace perfbench {

using namespace baco;

int
work_units(int seconds, double unit_seconds)
{
    return std::max(1, static_cast<int>(seconds / unit_seconds + 0.5));
}

namespace {

/** Seconds one matrix seed takes on a 4-core x86 machine. */
constexpr double kReproUnitSeconds = 2.5;

struct StudyJob {
  const Benchmark* bench = nullptr;
  int budget = 0;
  std::uint64_t seed = 0;
};

Study
build_study(const StudyJob& job, ExecutionPolicy policy = ExecutionPolicy{})
{
    return StudyBuilder()
        .benchmark(*job.bench)
        .method("baco")
        .budget(job.budget)
        .seed(job.seed)
        .execution(policy)
        .build();
}

/** What one lane measured. */
struct Lane {
  Tally tally;
  double busy_s = 0.0, suggest_s = 0.0, observe_s = 0.0, objective_s = 0.0;
  std::uint64_t evals = 0, infeasible = 0;
  std::vector<double> suggest_ms, observe_ms;
};

/** Drive one study to budget exhaustion: ask(1), evaluate under the
 *  (seed, index) noise stream, tell. */
void
drive(Study& study, const StudyJob& job, Lane& lane)
{
    for (std::uint64_t index = 0; study.remaining() > 0; ++index) {
        auto t0 = Clock::now();
        std::vector<Configuration> configs;
        {
            obs::Span span("bench.ask", "perfbench");
            configs = study.ask(1);
        }
        auto t1 = Clock::now();
        if (configs.size() != 1) {  // message built only on failure
            lane.tally.check(false, job.bench->name + ": ask(1) returned " +
                                        std::to_string(configs.size()));
            return;
        }
        EvalResult r;
        {
            obs::Span span("bench.evaluate", "perfbench");
            r = serve::evaluate_on(*job.bench, configs[0], job.seed, index);
        }
        auto t2 = Clock::now();
        {
            obs::Span span("bench.tell", "perfbench");
            study.tell(configs[0], r);
        }
        auto t3 = Clock::now();
        lane.suggest_ms.push_back(ms_between(t0, t1));
        lane.observe_ms.push_back(ms_between(t2, t3));
        lane.suggest_s += ms_between(t0, t1) / 1e3;
        lane.objective_s += ms_between(t1, t2) / 1e3;
        lane.observe_s += ms_between(t2, t3) / 1e3;
        lane.infeasible += r.feasible ? 0 : 1;
        ++lane.evals;
        lane.tally.attempts(3);  // ask, evaluate, tell
    }
}

/** Time the set-up (see measure_setup()), build the studies, run the
 *  jobs on kLanes lanes, check. */
Pass
run_studies(const std::vector<StudyJob>& jobs, const Options& opt,
            bool traced)
{
    Pass pass;
    std::vector<Study> studies;
    auto build_all = [&] {
        studies.clear();
        auto t0 = Clock::now();
        for (const StudyJob& job : jobs)
            studies.push_back(build_study(job));
        return seconds_since(t0);
    };
    pass.setup_s = measure_setup([&](int) { return build_all(); });
    pass.tally.check(pass.setup_s > 0.0, "set-up failed");
    build_all();

    std::vector<Lane> lanes(kLanes);
    std::atomic<std::size_t> next{0};
    TimedWindow window(traced, opt.out_dir + "/" + opt.workload +
                                   ".trace.json");
    std::vector<std::thread> threads;
    for (Lane& lane : lanes) {
        threads.emplace_back([&jobs, &studies, &next, mine = &lane] {
            auto t0 = Clock::now();
            for (std::size_t j; (j = next++) < jobs.size();)
                guarded(mine->tally, jobs[j].bench->name, [&] {
                    drive(studies[j], jobs[j], *mine);
                });
            mine->busy_s = seconds_since(t0);
        });
    }
    for (std::thread& t : threads)
        t.join();
    window.close(pass);

    std::vector<double> suggest_ms, observe_ms;
    Layers& L = pass.layers;
    for (Lane& lane : lanes) {
        pass.tally.merge(lane.tally);
        pass.evals += lane.evals;
        suggest_ms.insert(suggest_ms.end(), lane.suggest_ms.begin(),
                          lane.suggest_ms.end());
        observe_ms.insert(observe_ms.end(), lane.observe_ms.begin(),
                          lane.observe_ms.end());
        L.lane_busy_s += lane.busy_s;
        L.suggest_s += lane.suggest_s;
        L.observe_s += lane.observe_s;
        L.objective_s += lane.objective_s;
        L.infeasible += lane.infeasible;
    }
    L.suggest_calls = suggest_ms.size();
    L.objective_calls = pass.evals;
    pass.suggest_ms = summarize(suggest_ms);
    pass.observe_ms = summarize(observe_ms);

    // Correctness: every study spent exactly its budget, and every
    // suggested configuration satisfies the space's known constraints.
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const StudyJob& job = jobs[j];
        const std::string tag =
            job.bench->name + " seed " + std::to_string(job.seed);
        pass.tally.check(studies[j].remaining() == 0 &&
                             studies[j].ask(1).empty(),
                         tag + ": budget not exhausted");
        StudyResult res = studies[j].result();
        pass.tally.check(res.history.observations.size() ==
                             static_cast<std::size_t>(job.budget),
                         tag + ": history length differs from budget");
        bool constrained = true;
        for (const Observation& o : res.history.observations)
            constrained = constrained && studies[j].space().satisfies(o.config);
        pass.tally.check(constrained,
                         tag + ": a suggestion violates a known constraint");
        pass.quality.push_back(quality_of(*job.bench, res.history, job.budget));
    }
    return pass;
}

std::vector<StudyJob>
repro_jobs(const Options& opt)
{
    const int reps = work_units(opt.seconds, kReproUnitSeconds);
    std::vector<StudyJob> jobs;
    for (int rep = 0; rep < reps; ++rep)
        for (const Benchmark& b : suite::all_benchmarks())
            jobs.push_back({&b, b.full_budget, opt.seed * 1000 + rep});
    // Longest budget first, so no lane is left with one long study at
    // the end; ties keep registry order.
    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const StudyJob& a, const StudyJob& b) {
                         return a.budget > b.budget;
                     });
    return jobs;
}

}  // namespace

Pass
run_repro(const Options& opt, bool traced)
{
    return run_studies(repro_jobs(opt), opt, traced);
}

void
check_serial_parity(const Options& opt, Tally& tally)
{
    // The first repro job: the longest budget (MM_GPU) at rep 0.
    const StudyJob job = repro_jobs(opt).front();
    Study asked = build_study(job);
    Lane lane;
    drive(asked, job, lane);
    tally.merge(lane.tally);
    StudyResult serial = build_study(job, ExecutionPolicy::Serial()).run();
    tally.check(signature(asked.result().history) ==
                    signature(serial.history),
                job.bench->name + ": ask/tell history differs from "
                                  "Study::run() under Serial");
}

}  // namespace perfbench
