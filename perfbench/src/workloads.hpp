#ifndef PERFBENCH_WORKLOADS_HPP_
#define PERFBENCH_WORKLOADS_HPP_

// The workloads BENCHMARK.json lists. Each runs a fixed amount of work derived from the seed and --seconds,
// through the library's public entry points only, and returns what it
// measured plus the outcome of its correctness checks. Metric assembly
// and printing live in main.cpp.

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 20;
  /** Directory for this run's scratch files (checkpoints, traces). */
  std::string out_dir;
};

/** Lanes (threads) of the in-process studies' load. */
constexpr int kLanes = 4;

/** Time split of one pass, summed over lanes. A lane is one thread of
 *  the benchmark's own load: a study runner or a socket client. */
struct Layers {
  int lanes = kLanes;
  double lane_busy_s = 0.0;
  /** Time in the tuner's suggest / observe: the benchmark's own spans
   *  around Study::ask / Study::tell, or the registry's
   *  tuner.{suggest,observe}_seconds for the served workloads. */
  double suggest_s = 0.0;
  double observe_s = 0.0;
  std::uint64_t suggest_calls = 0;
  /** True when a server handles suggest/observe (the serve rows apply). */
  bool served = false;
  /** Server-side handle time (serve.{suggest,observe}_seconds). */
  double serve_suggest_s = 0.0;
  double serve_observe_s = 0.0;
  /** Client rpc time minus server handle time. */
  double wire_suggest_s = 0.0;
  double wire_observe_s = 0.0;
  /** Spans around Benchmark::evaluate (client- or worker-side). */
  double objective_s = 0.0;
  std::uint64_t objective_calls = 0;
  std::uint64_t infeasible = 0;
  /** False when evaluations run on fleet workers, off the lanes. */
  bool objective_on_lanes = true;
  /** Registry traffic during the timed phase. */
  baco::obs::MetricsSnapshot delta;
  std::uint64_t write_bytes = 0;
};

/** Everything one pass over a workload's fixed work measured. */
struct Pass {
  Tally tally;
  double setup_s = 0.0;  ///< see measure_setup()
  double wall_s = 0.0;
  std::uint64_t evals = 0;
  Latency suggest_ms;
  Latency observe_ms;
  std::vector<QualityRun> quality;
  /** Peak resident memory when the timed window closed: the set-up and
   *  the work, not the correctness checks that follow. */
  double peak_rss_mb = 0.0;
  Layers layers;
  /** Where the pass's Chrome trace went (traced passes only). */
  std::string trace_path;
};

/** Seconds of full load on every lane (see warm_up()) before each pass,
 *  so neither its set-up nor its timed window starts on idle vCPUs. */
constexpr double kWarmUpSeconds = 2.0;

Pass run_repro(const Options& opt, bool traced);
Pass run_serve_sessions(const Options& opt, bool traced);
Pass run_serve_fleet(const Options& opt, bool traced);

/**
 * In a traced serve_sessions run: a short pass of the same sessions with
 * every observe checkpointed to a fresh directory. Its time follows the
 * disk, so it is reported among the per-layer metrics only.
 */
Pass run_checkpointed_sessions(const Options& opt);

/** In a traced repro run: one cell's ask/tell history must equal
 *  Study::run() under ExecutionPolicy::Serial. */
void check_serial_parity(const Options& opt, Tally& tally);

/** Units of fixed work for a workload that takes about `unit_seconds`
 *  per unit on a 4-core x86 machine: round(seconds / unit), at least 1. */
int work_units(int seconds, double unit_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP_
