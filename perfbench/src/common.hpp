#ifndef PERFBENCH_COMMON_HPP_
#define PERFBENCH_COMMON_HPP_

// Small pieces shared by the study and serve workloads.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "suite/benchmark.hpp"
#include "workloads.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Sum (seconds) of one registry histogram in a snapshot delta. */
inline double
hist_sum(const baco::obs::MetricsSnapshot& delta, const std::string& name)
{
    const baco::obs::MetricValue* m = delta.find(name);
    return m ? m->histogram.sum : 0.0;
}

/** Latency (ms) of one registry histogram in a snapshot delta. */
inline Latency
hist_latency_ms(const baco::obs::MetricsSnapshot& delta,
                const std::string& name)
{
    Latency l;
    if (const baco::obs::MetricValue* m = delta.find(name)) {
        l.count = m->histogram.count;
        l.p50 = 1e3 * m->histogram.percentile(0.50);
        l.p99 = 1e3 * m->histogram.percentile(0.99);
    }
    return l;
}

/**
 * The timed window of a pass: snapshots the registry and the write
 * counter at open, and on a traced pass turns the library's spans on
 * for the window and exports them to `trace_path` when it closes.
 */
class TimedWindow {
 public:
  TimedWindow(bool traced, std::string trace_path)
      : traced_(traced), trace_path_(std::move(trace_path))
  {
      if (traced_) {
          baco::obs::Trace::clear();
          baco::obs::Trace::enable();
      }
      bytes0_ = written_bytes();
      before_ = baco::obs::MetricsRegistry::global().snapshot();
      t0_ = Clock::now();
  }

  /** Close the window: wall time, registry delta, written bytes, peak
   *  memory so far. */
  void close(Pass& pass)
  {
      pass.wall_s = seconds_since(t0_);
      pass.peak_rss_mb = peak_rss_mb();
      pass.layers.delta =
          baco::obs::MetricsRegistry::global().snapshot().delta_since(before_);
      pass.layers.write_bytes = written_bytes() - bytes0_;
      if (traced_) {
          baco::obs::Trace::disable();
          if (baco::obs::Trace::export_chrome(trace_path_))
              pass.trace_path = trace_path_;
          baco::obs::Trace::clear();
      }
  }

 private:
  bool traced_;
  std::string trace_path_;
  std::uint64_t bytes0_ = 0;
  baco::obs::MetricsSnapshot before_;
  Clock::time_point t0_;
};

/** Quality of one finished history against the benchmark's reference:
 *  best noise-free cost among feasible evaluations, at budget/3 and at
 *  the full history. */
inline QualityRun
quality_of(const baco::Benchmark& b, const baco::TuningHistory& h, int budget)
{
    QualityRun q;
    q.cell = b.name;
    q.reference = b.reference_cost;
    const std::size_t tiny = static_cast<std::size_t>(std::max(1, budget / 3));
    for (std::size_t i = 0; i < h.observations.size(); ++i) {
        const baco::Observation& o = h.observations[i];
        if (!o.feasible)
            continue;
        double c = b.true_cost(o.config);
        q.best_full = std::min(q.best_full, c);
        if (i < tiny)
            q.best_tiny = std::min(q.best_tiny, c);
    }
    return q;
}

/** A history as the parity checks compare it: its length and a digest
 *  of every (configuration, value, feasibility) in order. */
struct Signature {
  std::size_t length = 0;
  std::uint64_t digest = 0;

  bool operator==(const Signature& o) const
  {
      return length == o.length && digest == o.digest;
  }
};

inline Signature
signature(const baco::TuningHistory& h)
{
    Signature sig;
    sig.length = h.observations.size();
    std::uint64_t d = 1469598103934665603ull;  // FNV-1a over 64-bit words
    auto mix = [&d](std::uint64_t word) { d = (d ^ word) * 1099511628211ull; };
    for (const baco::Observation& o : h.observations) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &o.value, sizeof bits);
        mix(baco::config_hash(o.config));
        mix(bits);
        mix(o.feasible ? 1 : 0);
    }
    sig.digest = d;
    return sig;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP_
