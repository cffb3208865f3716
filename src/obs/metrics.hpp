// Observability substrate: a process-wide-shareable MetricsRegistry of
// lock-cheap counters, gauges and fixed-bucket latency histograms. The
// paper's whole evaluation (§4, Figs. 7-10) is latency/traffic accounting;
// this module makes those quantities first-class so every layer
// (directory, engine, protocol, simulator, socket transport) reports into
// one registry instead of per-bench stopwatches.
//
// Concurrency model (matches the directory layer's locking design):
// metric *values* are relaxed atomics — inc/observe on the hot path is a
// handful of uncontended fetch_adds, never a lock. The registry map
// itself is guarded by a mutex, but lookups only happen when a handle is
// first created; every component resolves its handles once (at
// construction, or when it is attached to a caller's registry) and keeps
// pointers to them, which stay valid for the registry's lifetime (values
// are node-allocated and never move). A component always has a registry:
// the caller's, or one it owns when the caller passes none, so no handle
// is ever null. Totals read while writers are active are per-metric exact
// but not a cross-metric snapshot; coherence assertions (e.g. issued ==
// satisfied + expired + in_flight) hold once writers quiesce.
//
// Naming scheme: dot-separated `<layer>.<quantity>[{key="value"}]`, e.g.
// `protocol.requests_expired` or `sim.deliveries{type="fwd"}`. Histogram
// names end in `_ms` when they record milliseconds. The Prometheus sink
// sanitizes dots to underscores and prefixes `sariadne_`; the JSON sink
// keeps names verbatim.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/lock_rank.hpp"

namespace sariadne::obs {

/// Monotonically increasing event count. Relaxed atomic: totals are exact
/// once writers quiesce, and never torn.
class Counter {
public:
    void inc(std::uint64_t n = 1) noexcept {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depths, backbone size). May go down.
class Gauge {
public:
    void set(std::int64_t value) noexcept {
        value_.store(value, std::memory_order_relaxed);
    }

    void add(std::int64_t n) noexcept {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    void sub(std::int64_t n) noexcept {
        value_.fetch_sub(n, std::memory_order_relaxed);
    }

    std::int64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: upper bounds are set at construction and never
/// change, so observation is one binary search plus three relaxed atomic
/// adds (bucket, count, sum) — no lock, no allocation. The implicit last
/// bucket catches everything above the largest bound (+Inf).
class Histogram {
public:
    explicit Histogram(std::vector<double> upper_bounds);

    void observe(double value) noexcept;

    /// Default bounds for millisecond latencies: 10 µs .. 10 s, roughly
    /// geometric — wide enough for parse/classify/match and virtual
    /// protocol response times alike.
    static const std::vector<double>& latency_ms_bounds();

    const std::vector<double>& bounds() const noexcept { return bounds_; }

    /// Non-cumulative count of bucket `i` (i == bounds().size() is +Inf).
    std::uint64_t bucket(std::size_t i) const noexcept {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

    double mean() const noexcept {
        const std::uint64_t n = count();
        return n == 0 ? 0.0 : sum() / static_cast<double>(n);
    }

private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_+Inf
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/// Thread-safe registry of named metrics. Handles returned by
/// counter()/gauge()/histogram() are stable references for the registry's
/// lifetime; resolve them once and keep them (the lookup takes the
/// registry mutex, the returned handle never does).
class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);

    /// `bounds` applies only when the histogram is first created.
    Histogram& histogram(std::string_view name,
                         const std::vector<double>& bounds =
                             Histogram::latency_ms_bounds());

    /// Prometheus text exposition (names sanitized, `sariadne_` prefix,
    /// histograms rendered with cumulative `_bucket{le=...}` series).
    std::string to_prometheus() const;

    /// Single JSON object keyed by verbatim metric name; histograms carry
    /// count/sum/mean plus per-bound bucket counts.
    std::string to_json() const;

    /// Exact value lookups for assertions; 0 when absent.
    std::uint64_t counter_value(std::string_view name) const;
    std::int64_t gauge_value(std::string_view name) const;

private:
    // std::map keeps the exposition deterministically sorted; values are
    // node-allocated unique_ptrs so handles survive rehashing-free.
    // Innermost rank in the hierarchy: handle resolution may run under any
    // other lock, and exposition acquires nothing further.
    mutable support::RankedMutex mutex_{support::LockRank::kMetricsRegistry};
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace sariadne::obs
