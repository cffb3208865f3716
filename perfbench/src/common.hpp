// Shared vocabulary of the end-to-end benchmark: the clock, order
// statistics, and the metric report every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

inline double us_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
/// empty. Sorts `values` in place.
inline double percentile(std::vector<double>& values, double p) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const auto n = static_cast<double>(values.size());
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    return values[rank == 0 ? 0 : rank - 1];
}

inline double median(std::vector<double> values) {
    return percentile(values, 50);
}

/// Latency summary of one phase: the median, the tail percentiles that
/// are printed but never gated, and the sample count behind them.
struct LatencySummary {
    double p50 = 0;
    double p99 = 0;
    double p999 = 0;
    double max = 0;
    std::size_t samples = 0;
};

inline LatencySummary summarize(std::vector<double>& values) {
    LatencySummary s;
    s.samples = values.size();
    if (values.empty()) return s;
    s.p50 = percentile(values, 50);
    s.p99 = percentile(values, 99);
    s.p999 = percentile(values, 99.9);
    s.max = values.back();
    return s;
}

/// End-to-end metrics are what a user of the system sees (and what
/// BENCHMARK.json bounds); layer metrics explain them; info metrics judge
/// the run itself (load-generator lag, client CPU) and are only printed.
enum class MetricKind { kEndToEnd, kLayer, kInfo };

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    MetricKind kind = MetricKind::kInfo;
};

/// Every number a run measured, in the order it was added. main() selects
/// which kind the final JSON line carries.
class Report {
public:
    void add(MetricKind kind, std::string name, double value,
             std::string unit) {
        metrics_.push_back(
            Metric{std::move(name), value, std::move(unit), kind});
    }

    const std::vector<Metric>& metrics() const noexcept { return metrics_; }

    const Metric* find(const std::string& name) const {
        for (const Metric& m : metrics_) {
            if (m.name == name) return &m;
        }
        return nullptr;
    }

    /// Free-form lines (phase details, run metadata) printed before the
    /// metric table and written into the result file.
    void note(std::string key, std::string value) {
        notes_.emplace_back(std::move(key), std::move(value));
    }

    const std::vector<std::pair<std::string, std::string>>& notes() const {
        return notes_;
    }

    /// Operations whose answers were checked, and how many were wrong,
    /// missing or lost.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// False when the run cannot be trusted at all (the in-process
    /// directory disagrees with the reference, the daemon exits badly).
    bool valid = true;
    std::vector<std::string> problems;
    /// Set when the load generator, not the system under test, may have
    /// set a number (send lag or client CPU beyond its limit).
    bool generator_late = false;

    void fail_run(std::string why) {
        valid = false;
        problems.push_back(std::move(why));
    }

private:
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> notes_;
};

/// Set-up is repeated and its median reported: at least 3 times, then
/// again while fewer than 9 samples exist and less than 3 s went into
/// them, so cheap set-ups get more samples. A traced run sets up once.
inline bool want_another_setup(const std::vector<double>& samples, bool traced) {
    if (traced) return samples.empty();
    double spent = 0;
    for (const double s : samples) spent += s;
    return samples.size() < 3 || (samples.size() < 9 && spent < 3.0);
}

inline std::string format(const char* fmt, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), fmt, value);
    return buffer;
}

}  // namespace perfbench
