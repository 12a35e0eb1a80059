#ifndef PERFBENCH_MEASURE_HPP_
#define PERFBENCH_MEASURE_HPP_

// The benchmark's own bookkeeping: exact percentiles over latency
// samples, the relative-to-expert quality summary, failure accounting,
// the layer budget table and the one-line JSON result. Nothing here
// touches the library, so every rule the report depends on is unit
// tested in isolation (tests/test_measure.cpp).

#include <cstdint>
#include <exception>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/** Exact quantile q in [0, 1] of `v` (sorted copy, linear interpolation
 *  between closest ranks). 0 for an empty sample. */
double percentile(std::vector<double> v, double q);

/** Median, p99 and the sample count they came from. */
struct Latency {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};

/** Smallest sample count whose p99 has at least ten samples above it. */
constexpr std::size_t kMinP99Samples = 1000;

Latency summarize(const std::vector<double>& samples);

/** For work done in equal rounds: the p50 and p99 of each round's
 *  samples, then the median of each over the rounds; count is every
 *  sample. A burst of contention that slows a few rounds then moves
 *  the figures by a few rounds' worth, not by the burst's whole tail. */
Latency summarize_rounds(const std::vector<std::vector<double>>& rounds);

/** Median of a few repeated measurements (set-up time). */
double median(std::vector<double> v);

/** Wall time of work done in equal rounds, from each round's wall time:
 *  the number of rounds times the median round, so that the few rounds a
 *  burst of contention on the machine slowed do not set the figure. */
double rounds_wall(const std::vector<double>& walls);

/** Geometric mean with every entry floored at `floor` first, so a cell
 *  that found nothing feasible (0) pulls the mean down instead of
 *  zeroing it. 0 for an empty vector. */
double floored_geomean(std::vector<double> v, double floor = 1e-6);

/** One tuning run's quality: the best noise-free cost among feasible
 *  evaluations within the tiny (1/3) budget and the full budget;
 *  +inf when nothing feasible was found. */
struct QualityRun {
  std::string cell;  ///< benchmark name; reps of one cell share it
  double reference = 0.0;
  double best_tiny = std::numeric_limits<double>::infinity();
  double best_full = std::numeric_limits<double>::infinity();
};

struct Quality {
  double rel_expert_tiny = 0.0;
  double rel_expert_full = 0.0;
  std::uint64_t expert_hits = 0;
};

/**
 * Per cell, the mean over its runs of reference / best (0 when nothing
 * was feasible); then the floored geomean over cells. expert_hits counts
 * runs whose full-budget best reaches the reference (paper Table 5).
 */
Quality summarize_quality(const std::vector<QualityRun>& runs);

/**
 * Attempted vs failed operations. Every call into the library and every
 * correctness check is one attempt; a failure keeps its first few
 * descriptions for the report.
 */
class Tally {
 public:
  /** Count one attempt; false `ok` counts one failure. Returns ok. */
  bool check(bool ok, const std::string& what = std::string());
  /** Count n successful attempts at once. */
  void attempts(std::uint64_t n) { attempted_ += n; }
  void merge(const Tally& other);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double failed_frac() const;
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/** Run `body`; an exception escaping it counts as one failed attempt,
 *  described as `what` and the exception's message. */
template <class Body>
void
guarded(Tally& tally, const std::string& what, Body&& body)
{
    try {
        body();
    } catch (const std::exception& e) {
        tally.check(false, what + ": exception: " + e.what());
    }
}

/** One row of a layer budget: a layer's share of the lanes' busy time. */
struct LayerRow {
  std::string name;
  double seconds = 0.0;
};

/**
 * The layer budget of one workload: rows that split the lanes' busy
 * time (summed over lanes) by layer. make_budget() appends the explicit
 * `unattributed` row, the remainder. Rows that overlap, or a layer
 * counted twice, show as a negative row: the remainder, or a row that
 * is itself a difference of two measurements.
 */
struct LayerBudget {
  double lane_busy_s = 0.0;
  std::vector<LayerRow> rows;  ///< last row is "unattributed"

  double row(const std::string& name) const;  ///< 0 when absent
  double sum() const;
  /** True when no row is below -tol seconds and the rows add up to
   *  lane_busy_s within tol. */
  bool adds_up(double tol) const;
  void print(std::ostream& os) const;
};

LayerBudget make_budget(double lane_busy_s, std::vector<LayerRow> rows);

/** The share of lane time a row may fall below zero by (timer and
 *  histogram rounding) before the budget counts as not adding up. */
constexpr double kLayerTolerance = 0.01;

/** One reported metric. */
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/** The benchmark's last output line: {"correct","attempted","failed",
 *  "metrics"} with every value printed with all its digits. */
std::string result_json(const Tally& tally, const std::vector<Metric>& m);

/**
 * setup_s: repeat a set-up at least kMinSetupReps times and for
 * kSetupSeconds, and report the median. one_setup(rep) does set-up
 * number `rep` and returns its seconds (< 0 on failure); -1 when a
 * set-up failed. A set-up can take under a millisecond, and the
 * machine's speed over a fraction of a second varies more than over a
 * second, so the repetitions span a whole second.
 */
constexpr int kMinSetupReps = 5;
constexpr double kSetupSeconds = 1.0;

double measure_setup(const std::function<double(int rep)>& one_setup);

/** Keep `threads` threads busy for `seconds`. A virtual machine whose
 *  vCPUs have sat idle for a few seconds runs the first second or so of
 *  full load several times slower, so each pass starts with this. */
void warm_up(int threads, double seconds);

/** Peak resident set of this process (VmHWM), in MiB. */
double peak_rss_mb();

/** Bytes this process has passed to write() so far (wchar in
 *  /proc/self/io); 0 where the file is unavailable. */
std::uint64_t written_bytes();

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_HPP_
