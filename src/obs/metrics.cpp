#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace sariadne::obs {

namespace {

/// `name{key="value"}` → metric part and label part (label part keeps its
/// braces; empty when the name carries no labels).
std::pair<std::string_view, std::string_view> split_labels(
    std::string_view name) {
    const auto brace = name.find('{');
    if (brace == std::string_view::npos) return {name, {}};
    return {name.substr(0, brace), name.substr(brace)};
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; dots become underscores.
std::string sanitize(std::string_view metric) {
    std::string out = "sariadne_";
    for (const char c : metric) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    return out;
}

std::string format_double(double value) {
    if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    return buffer;
}

void append_json_string(std::string& out, std::string_view text) {
    out.push_back('"');
    for (const char c : text) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
    }
    out.push_back('"');
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
    std::sort(bounds_.begin(), bounds_.end());
    for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double value) noexcept {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
    buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    // fetch_add on atomic<double> is C++20; keep the CAS loop for
    // toolchains that lower it to a libcall anyway.
    double expected = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(expected, expected + value,
                                       std::memory_order_relaxed)) {
    }
}

const std::vector<double>& Histogram::latency_ms_bounds() {
    static const std::vector<double> bounds{
        0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1.0,    2.5,
        5.0,  10.0,  25.0, 50.0, 100.0, 250.0, 1000.0, 10000.0};
    return bounds;
}

Counter& MetricsRegistry::counter(std::string_view name) {
    std::lock_guard lock(mutex_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        it = counters_.emplace(std::string(name), std::make_unique<Counter>())
                 .first;
    }
    return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
    std::lock_guard lock(mutex_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        it = gauges_.emplace(std::string(name), std::make_unique<Gauge>())
                 .first;
    }
    return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<double>& bounds) {
    std::lock_guard lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(std::string(name), std::make_unique<Histogram>(bounds))
                 .first;
    }
    return *it->second;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
    std::lock_guard lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second->value();
}

std::int64_t MetricsRegistry::gauge_value(std::string_view name) const {
    std::lock_guard lock(mutex_);
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0 : it->second->value();
}

std::string MetricsRegistry::to_prometheus() const {
    std::lock_guard lock(mutex_);
    std::string out;
    for (const auto& [name, counter] : counters_) {
        const auto [metric, labels] = split_labels(name);
        out += sanitize(metric) + "_total" + std::string(labels) + " " +
               std::to_string(counter->value()) + "\n";
    }
    for (const auto& [name, gauge] : gauges_) {
        const auto [metric, labels] = split_labels(name);
        out += sanitize(metric) + std::string(labels) + " " +
               std::to_string(gauge->value()) + "\n";
    }
    for (const auto& [name, histogram] : histograms_) {
        const auto [metric, labels] = split_labels(name);
        const std::string base = sanitize(metric);
        // Labeled histograms would need le merged into the label set; the
        // registry's users label counters/gauges only.
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < histogram->bounds().size(); ++i) {
            cumulative += histogram->bucket(i);
            out += base + "_bucket{le=\"" +
                   format_double(histogram->bounds()[i]) + "\"} " +
                   std::to_string(cumulative) + "\n";
        }
        cumulative += histogram->bucket(histogram->bounds().size());
        out += base + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) +
               "\n";
        out += base + "_sum " + format_double(histogram->sum()) + "\n";
        out += base + "_count " + std::to_string(histogram->count()) + "\n";
    }
    return out;
}

std::string MetricsRegistry::to_json() const {
    std::lock_guard lock(mutex_);
    std::string out = "{";
    bool first = true;
    const auto comma = [&] {
        if (!first) out += ",";
        first = false;
    };
    for (const auto& [name, counter] : counters_) {
        comma();
        append_json_string(out, name);
        out += ":" + std::to_string(counter->value());
    }
    for (const auto& [name, gauge] : gauges_) {
        comma();
        append_json_string(out, name);
        out += ":" + std::to_string(gauge->value());
    }
    for (const auto& [name, histogram] : histograms_) {
        comma();
        append_json_string(out, name);
        out += ":{\"count\":" + std::to_string(histogram->count()) +
               ",\"sum\":" + format_double(histogram->sum()) +
               ",\"mean\":" + format_double(histogram->mean()) +
               ",\"buckets\":[";
        for (std::size_t i = 0; i <= histogram->bounds().size(); ++i) {
            if (i > 0) out += ",";
            out += "[";
            out += i < histogram->bounds().size()
                       ? "\"" + format_double(histogram->bounds()[i]) + "\""
                       : "\"+Inf\"";
            out += "," + std::to_string(histogram->bucket(i)) + "]";
        }
        out += "]}";
    }
    out += "}";
    return out;
}

}  // namespace sariadne::obs
