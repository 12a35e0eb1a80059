// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload's fixed work (sized from --seconds), checks its
// outputs, and prints as the last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the work twice, untraced and then
// with the library's spans on, prints the layer budget table and reports
// the per-layer metrics (serve_sessions adds a checkpointed pass). Exits 1 when any check failed, 2 on bad usage.
// Scratch files (checkpoints, Chrome traces) go to --out, by default
// .bench_build/perfbench-out.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

using Runner = Pass (*)(const Options&, bool);

const std::map<std::string, Runner>&
runners()
{
    static const std::map<std::string, Runner> r = {
        {"repro", run_repro},
        {"serve_sessions", run_serve_sessions},
        {"serve_fleet", run_serve_fleet},
    };
    return r;
}

/** Registry counter delta (0 when absent). */
double
count(const Layers& L, const std::string& name)
{
    return L.delta.value(name);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The lanes' busy time split by layer; the rows add up to it. */
LayerBudget
budget_of(const Layers& L)
{
    const double gp = hist_sum(L.delta, "tuner.model_fit_seconds");
    const double acq = hist_sum(L.delta, "tuner.acquisition_seconds");
    const double rf = hist_sum(L.delta, "tuner.feasibility_fit_seconds");
    const double doe = hist_sum(L.delta, "tuner.doe_seconds");
    return make_budget(
        L.lane_busy_s,
        {{"gp.fit", gp},
         {"acq", acq},
         {"rf.fit", rf},
         {"doe", doe},
         {"tuner.suggest.unattributed", L.suggest_s - (gp + acq + rf + doe)},
         {"session.suggest_self",
          L.served ? L.serve_suggest_s - L.suggest_s : 0.0},
         {"wire.suggest", L.wire_suggest_s},
         {"tuner.observe", L.observe_s},
         {"session.observe_self",
          L.served ? L.serve_observe_s - L.observe_s : 0.0},
         {"wire.observe", L.wire_observe_s},
         {"objective", L.objective_on_lanes ? L.objective_s : 0.0}});
}

std::vector<Metric>
end_to_end(const Pass& p)
{
    Quality q = summarize_quality(p.quality);
    return {
        {"setup_s", p.setup_s, "s"},
        {"wall_s", p.wall_s, "s"},
        {"evals_per_s", ratio(static_cast<double>(p.evals), p.wall_s), "1/s"},
        {"suggest_p50_ms", p.suggest_ms.p50, "ms"},
        {"suggest_p99_ms", p.suggest_ms.p99, "ms"},
        {"observe_p50_ms", p.observe_ms.p50, "ms"},
        {"observe_p99_ms", p.observe_ms.p99, "ms"},
        {"rel_expert_tiny", q.rel_expert_tiny, "x"},
        {"rel_expert_full", q.rel_expert_full, "x"},
        {"expert_hits", static_cast<double>(q.expert_hits), "count"},
        {"peak_rss_mb", p.peak_rss_mb, "MB"},
    };
}

/** The checkpoint layer: the checkpointed pass where the workload has
 *  one, else the traced pass itself (no checkpoints: about 0). */
struct Checkpointing {
  const Pass* pass = nullptr;
  LayerBudget budget;
};

std::vector<Metric>
per_layer(const Pass& p, const LayerBudget& b, double overhead_s,
          const Checkpointing& ck, const Tally& tally)
{
    const Layers& L = p.layers;
    const double ck_bytes = static_cast<double>(ck.pass->layers.write_bytes);
    const double busy = L.lane_busy_s;
    const double refits = count(L, "tuner.model_refits_total");
    const double extends = count(L, "tuner.model_extends_total");
    const double dispatched = count(L, "coord.dispatched_total");
    const double results = count(L, "coord.results_total");
    return {
        {"lane.busy_s", busy, "s"},
        {"tuner.suggest.busy_s", L.suggest_s, "s"},
        {"tuner.suggest.calls", static_cast<double>(L.suggest_calls), "count"},
        {"tuner.suggest.unattributed_s", b.row("tuner.suggest.unattributed"),
         "s"},
        {"tuner.observe.busy_s", L.observe_s, "s"},
        {"objective.busy_s", L.objective_s, "s"},
        {"objective.calls", static_cast<double>(L.objective_calls), "count"},
        {"objective.infeasible_frac",
         ratio(static_cast<double>(L.infeasible),
               static_cast<double>(L.objective_calls)),
         "ratio"},
        {"unattributed_s", b.row("unattributed"), "s"},
        {"trace.overhead_s", overhead_s, "s"},
        {"gp.fit_share", ratio(b.row("gp.fit"), busy), "ratio"},
        {"gp.refits", refits, "count"},
        {"gp.extends", extends, "count"},
        {"gp.refit_frac", ratio(refits, refits + extends), "ratio"},
        {"acq.share", ratio(b.row("acq"), busy), "ratio"},
        {"rf.fit_share", ratio(b.row("rf.fit"), busy), "ratio"},
        {"doe.share", ratio(b.row("doe"), busy), "ratio"},
        {"session.suggest_self_share",
         ratio(b.row("session.suggest_self"), busy), "ratio"},
        {"session.observe_self_share",
         ratio(b.row("session.observe_self"), busy), "ratio"},
        {"wire.suggest_share", ratio(b.row("wire.suggest"), busy), "ratio"},
        {"wire.observe_share", ratio(b.row("wire.observe"), busy), "ratio"},
        {"io.write_bytes", ck_bytes, "B"},
        {"io.write_bytes_per_eval",
         ratio(ck_bytes, static_cast<double>(ck.pass->evals)), "B/eval"},
        {"io.observe_self_share",
         ratio(ck.budget.row("session.observe_self"),
               ck.budget.lane_busy_s),
         "ratio"},
        {"serve.requests", count(L, "serve.requests_total"), "count"},
        {"serve.errors", count(L, "serve.errors_total"), "count"},
        {"coord.roundtrip_share",
         ratio(hist_sum(L.delta, "coord.roundtrip_seconds"), busy), "ratio"},
        {"coord.dispatched", dispatched, "count"},
        {"coord.results", results, "count"},
        {"coord.redispatch", count(L, "coord.straggler_redispatch_total"),
         "count"},
        {"coord.useful_frac", ratio(results, dispatched), "ratio"},
        {"failed_frac", tally.failed_frac(), "ratio"},
    };
}

void
print_layers(const std::string& title, const Pass& p, const LayerBudget& b)
{
    const Layers& L = p.layers;
    std::cout << "\nlayer budget: " << title << ", " << L.lanes
              << " lanes, wall " << p.wall_s << " s\n";
    b.print(std::cout);
    std::cout << "samples: suggest " << p.suggest_ms.count << ", observe "
              << p.observe_ms.count << ", evaluations " << p.evals << "\n";
    if (!L.objective_on_lanes)
        std::cout << "not on the lanes: objective on workers "
                  << L.objective_s << " s over " << L.objective_calls
                  << " calls\n";
    if (const baco::obs::MetricValue* rt =
            L.delta.find("coord.roundtrip_seconds");
        rt && rt->histogram.count > 0)
        std::cout << "coordinator round trips (overlapping, not summed): "
                  << rt->histogram.count << " totalling "
                  << rt->histogram.sum << " s, p50 "
                  << 1e3 * rt->histogram.percentile(0.5) << " ms\n";
    if (L.write_bytes > 0)
        std::cout << "written: " << L.write_bytes << " bytes, "
                  << ratio(static_cast<double>(L.write_bytes),
                           static_cast<double>(p.evals))
                  << " per evaluation\n";
    if (!p.trace_path.empty())
        std::cout << "chrome trace: " << p.trace_path << "\n";
}

/** The layer budget of a traced pass; a failed check when a row is
 *  negative or the rows do not add up. */
LayerBudget
checked_budget(const Pass& p, Tally& tally)
{
    LayerBudget b = budget_of(p.layers);
    // One percent of the lanes' time absorbs clock granularity; a
    // layer counted twice, or two rows that overlap, goes below it.
    tally.check(b.adds_up(kLayerTolerance * b.lane_busy_s),
                "a layer row is negative or the rows do not add up to "
                "lane time");
    return b;
}

/** Run the workload's passes and checks into `tally`; return the metrics
 *  to report: end-to-end from the untraced pass, or per-layer from the
 *  traced one. */
std::vector<Metric>
run_workload(const Options& opt, bool traced_run, Runner runner, Tally& tally)
{
    warm_up(kLanes, kWarmUpSeconds);
    Pass untraced = runner(opt, false);
    tally.merge(untraced.tally);
    std::cout << "workload " << opt.workload << " seed " << opt.seed
              << ": wall " << untraced.wall_s << " s, " << untraced.evals
              << " evaluations, suggest samples " << untraced.suggest_ms.count
              << ", observe samples " << untraced.observe_ms.count << "\n";
    if (!traced_run) {
        tally.check(untraced.suggest_ms.count >= kMinP99Samples &&
                        untraced.observe_ms.count >= kMinP99Samples,
                    "fewer than " + std::to_string(kMinP99Samples) +
                        " latency samples");
        return end_to_end(untraced);
    }
    warm_up(kLanes, kWarmUpSeconds);
    Pass traced = runner(opt, true);
    tally.merge(traced.tally);
    if (opt.workload == "repro")
        check_serial_parity(opt, tally);
    LayerBudget b = checked_budget(traced, tally);
    const double overhead_s = traced.wall_s - untraced.wall_s;
    print_layers(opt.workload + " (traced pass; untraced wall " +
                     std::to_string(untraced.wall_s) +
                     " s, trace.overhead_s " + std::to_string(overhead_s) +
                     ")",
                 traced, b);
    Checkpointing ck{&traced, b};
    Pass checkpointed;
    if (opt.workload == "serve_sessions") {
        checkpointed = run_checkpointed_sessions(opt);
        tally.merge(checkpointed.tally);
        ck = {&checkpointed, checked_budget(checkpointed, tally)};
        print_layers(opt.workload + " (checkpointed pass, not gated)",
                     checkpointed, ck.budget);
    }
    return per_layer(traced, b, overhead_s, ck, tally);
}

int
usage(const std::string& why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "repro|serve_sessions|serve_fleet --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n";
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options opt;
    opt.out_dir = ".bench_build/perfbench-out";
    int trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i], val = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--seed")
            opt.seed = std::strtoull(val.c_str(), &end, 10);
        else if (key == "--seconds")
            opt.seconds = static_cast<int>(std::strtol(val.c_str(), &end, 10));
        else if (key == "--trace")
            trace = static_cast<int>(std::strtol(val.c_str(), &end, 10));
        else if (key == "--out")
            opt.out_dir = val;
        else
            return usage("unknown option " + key);
        if (end && *end != '\0')
            return usage("bad value for " + key + ": " + val);
    }
    if (argc % 2 == 0)
        return usage("every option takes one value");
    auto it = runners().find(opt.workload);
    if (it == runners().end())
        return usage("unknown workload '" + opt.workload + "'");
    if (opt.seconds < 1 || (trace != 0 && trace != 1))
        return usage("--seconds must be >= 1 and --trace 0 or 1");
    std::filesystem::create_directories(opt.out_dir);

    Tally tally;
    std::vector<Metric> metrics;
    guarded(tally, opt.workload,
            [&] { metrics = run_workload(opt, trace != 0, it->second, tally); });
    for (const std::string& m : tally.messages())
        std::cout << "FAILED: " << m << "\n";
    std::cout << result_json(tally, metrics) << std::endl;
    return tally.failed() == 0 ? 0 : 1;
}

