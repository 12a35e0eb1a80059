#include "measure.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <thread>

namespace perfbench {

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

Latency
summarize(const std::vector<double>& samples)
{
    Latency l;
    l.count = samples.size();
    l.p50 = percentile(samples, 0.50);
    l.p99 = percentile(samples, 0.99);
    return l;
}

Latency
summarize_rounds(const std::vector<std::vector<double>>& rounds)
{
    Latency l;
    std::vector<double> p50, p99;
    for (const std::vector<double>& r : rounds) {
        l.count += r.size();
        p50.push_back(percentile(r, 0.50));
        p99.push_back(percentile(r, 0.99));
    }
    l.p50 = median(std::move(p50));
    l.p99 = median(std::move(p99));
    return l;
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
rounds_wall(const std::vector<double>& walls)
{
    return static_cast<double>(walls.size()) * median(walls);
}

double
floored_geomean(std::vector<double> v, double floor)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(std::max(x, floor));
    return std::exp(log_sum / static_cast<double>(v.size()));
}

Quality
summarize_quality(const std::vector<QualityRun>& runs)
{
    struct Acc {
      double tiny = 0.0, full = 0.0;
      int n = 0;
    };
    auto rel = [](double reference, double best) {
        return std::isfinite(best) && best > 0.0 ? reference / best : 0.0;
    };
    std::map<std::string, Acc> cells;
    Quality q;
    for (const QualityRun& r : runs) {
        Acc& a = cells[r.cell];
        a.tiny += rel(r.reference, r.best_tiny);
        a.full += rel(r.reference, r.best_full);
        ++a.n;
        if (std::isfinite(r.best_full) && r.best_full <= r.reference)
            ++q.expert_hits;
    }
    std::vector<double> tiny, full;
    for (const auto& [name, a] : cells) {
        tiny.push_back(a.tiny / a.n);
        full.push_back(a.full / a.n);
    }
    q.rel_expert_tiny = floored_geomean(tiny);
    q.rel_expert_full = floored_geomean(full);
    return q;
}

bool
Tally::check(bool ok, const std::string& what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (messages_.size() < 8)
            messages_.push_back(what);
    }
    return ok;
}

void
Tally::merge(const Tally& other)
{
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const std::string& m : other.messages_)
        if (messages_.size() < 8)
            messages_.push_back(m);
}

double
Tally::failed_frac() const
{
    return attempted_ ? static_cast<double>(failed_) /
                            static_cast<double>(attempted_)
                      : 0.0;
}

double
LayerBudget::row(const std::string& name) const
{
    for (const LayerRow& r : rows)
        if (r.name == name)
            return r.seconds;
    return 0.0;
}

double
LayerBudget::sum() const
{
    double s = 0.0;
    for (const LayerRow& r : rows)
        s += r.seconds;
    return s;
}

bool
LayerBudget::adds_up(double tol) const
{
    if (rows.empty() || rows.back().name != "unattributed")
        return false;
    for (const LayerRow& r : rows)
        if (r.seconds < -tol)
            return false;
    return std::fabs(sum() - lane_busy_s) <= tol;
}

void
LayerBudget::print(std::ostream& os) const
{
    os << std::left << std::setw(34) << "layer" << std::right
       << std::setw(12) << "seconds" << std::setw(9) << "share\n";
    for (const LayerRow& r : rows) {
        double share = lane_busy_s > 0.0 ? r.seconds / lane_busy_s : 0.0;
        os << std::left << std::setw(34) << r.name << std::right
           << std::fixed << std::setprecision(4) << std::setw(12)
           << r.seconds << std::setprecision(1) << std::setw(7)
           << 100.0 * share << " %\n";
    }
    os << std::left << std::setw(34) << "= lane busy (sum over lanes)"
       << std::right << std::fixed << std::setprecision(4) << std::setw(12)
       << lane_busy_s << "\n";
    os.unsetf(std::ios::floatfield);
}

LayerBudget
make_budget(double lane_busy_s, std::vector<LayerRow> rows)
{
    LayerBudget b;
    b.lane_busy_s = lane_busy_s;
    b.rows = std::move(rows);
    b.rows.push_back({"unattributed", lane_busy_s - b.sum()});
    return b;
}

std::string
result_json(const Tally& tally, const std::vector<Metric>& metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (tally.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted()
       << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        // Shortest form that reads back as the same double.
        char value[64];
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        for (int prec = 15; prec <= 17; ++prec) {
            std::snprintf(value, sizeof value, "%.*g", prec, v);
            if (std::strtod(value, nullptr) == v)
                break;
        }
        os << (i ? ", " : "") << '"' << metrics[i].name
           << "\": {\"value\": " << value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

namespace {

/** The first number after `key` on its line of a /proc key-value file. */
double
proc_field(const char* path, const std::string& key)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) == 0)
            return std::strtod(line.c_str() + key.size(), nullptr);
    }
    return 0.0;
}

}  // namespace

double
measure_setup(const std::function<double(int rep)>& one_setup)
{
    std::vector<double> reps;
    double spent = 0.0;
    for (int rep = 0; rep < kMinSetupReps || spent < kSetupSeconds; ++rep) {
        const double s = one_setup(rep);
        if (s < 0.0)
            return -1.0;
        reps.push_back(s);
        spent += s;
    }
    return median(reps);
}

void
warm_up(int threads, double seconds)
{
    using Clock = std::chrono::steady_clock;
    const auto until = Clock::now() + std::chrono::microseconds(
                                          static_cast<long long>(seconds * 1e6));
    std::atomic<double> sink{0.0};
    std::vector<std::thread> spinners;
    for (int t = 0; t < threads; ++t)
        spinners.emplace_back([&sink, until] {
            double x = 1.0;
            while (Clock::now() < until)
                for (int i = 0; i < 100000; ++i)
                    x = x * 1.0000001 + 1e-9;
            sink = sink + x;
        });
    for (std::thread& t : spinners)
        t.join();
}

double
peak_rss_mb()
{
    return proc_field("/proc/self/status", "VmHWM:") / 1024.0;
}

std::uint64_t
written_bytes()
{
    return static_cast<std::uint64_t>(proc_field("/proc/self/io", "wchar:"));
}

}  // namespace perfbench
