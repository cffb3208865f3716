// sariadne_bench — the end-to-end benchmark of S-Ariadne. One run measures
// one workload for one seed:
//
//   sariadne_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
//                  [--trace-file PATH] [--out PATH] [--commit SHA]
//
// Daemon workloads spawn the real sariadne_daemon and drive it over
// loopback TCP; backbone_sim runs the protocol on the in-process
// simulator. Every answer is checked against a reference. With --trace 0
// the last stdout line carries the end-to-end metrics; with --trace 1 the
// run also replays the operation stream in-process with spans on, and the
// last line carries the per-layer metrics. perfbench/README.md explains
// the workloads and metrics; perfbench/run.py builds and runs this.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "backbone.hpp"
#include "common.hpp"
#include "daemon_load.hpp"
#include "inputs.hpp"
#include "replay.hpp"

namespace {

using namespace perfbench;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_file;
    std::string out;
    std::string commit = "unknown";
};

int usage() {
    std::fprintf(stderr,
                 "usage: sariadne_bench --workload NAME --seed N [--seconds S] "
                 "[--trace 0|1] [--trace-file PATH] [--out PATH] [--commit SHA]\n"
                 "workloads:");
    for (const WorkloadSpec& spec : workloads()) {
        std::fprintf(stderr, " %.*s", static_cast<int>(spec.name.size()),
                     spec.name.data());
    }
    std::fprintf(stderr, "\n");
    return 2;
}

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out + "\"";
}

std::string json_number(double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
    return buffer;
}

const char* kind_name(MetricKind kind) {
    switch (kind) {
        case MetricKind::kEndToEnd:
            return "end_to_end";
        case MetricKind::kLayer:
            return "layer";
        case MetricKind::kInfo:
            break;
    }
    return "info";
}

std::string compiler() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("g++ ") + __VERSION__;
#else
    return "unknown";
#endif
}

/// The metrics the final line carries: end-to-end ones untraced,
/// per-layer ones traced.
std::string metrics_json(const Report& report, MetricKind kind) {
    std::string out = "{";
    for (const Metric& m : report.metrics()) {
        if (m.kind != kind) continue;
        if (out.size() > 1) out += ", ";
        out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
    }
    return out + "}";
}

void write_result_file(const Options& options, const Report& report,
                       const CpuSplit& cpus, bool correct) {
    std::FILE* out = std::fopen(options.out.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("cannot write " + options.out);
    std::string text = "{\n";
    text += "  \"workload\": " + json_string(options.workload) + ",\n";
    text += "  \"seed\": " + std::to_string(options.seed) + ",\n";
    text += "  \"seconds\": " + json_number(options.seconds) + ",\n";
    text += std::string("  \"trace\": ") + (options.trace ? "true" : "false") + ",\n";
    text += "  \"commit\": " + json_string(options.commit) + ",\n";
    text += "  \"compiler\": " + json_string(compiler()) + ",\n";
    text += "  \"build_type\": " + json_string(SARIADNE_BENCH_BUILD_TYPE) + ",\n";
    text += "  \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) + ",\n";
    text += "  \"affinity\": {\"daemon\": " + json_string(describe_cpus(cpus.daemon)) +
            ", \"client\": " + json_string(describe_cpus(cpus.client)) + "},\n";
    text += std::string("  \"correct\": ") + (correct ? "true" : "false") + ",\n";
    text += "  \"attempted\": " + std::to_string(report.attempted) + ",\n";
    text += "  \"failed\": " + std::to_string(report.failed) + ",\n";
    text += "  \"notes\": {";
    bool first = true;
    for (const auto& [key, value] : report.notes()) {
        text += (first ? "\n    " : ",\n    ") + json_string(key) + ": " + json_string(value);
        first = false;
    }
    text += "\n  },\n  \"metrics\": {";
    first = true;
    for (const Metric& m : report.metrics()) {
        text += (first ? "\n    " : ",\n    ") + json_string(m.name) +
                ": {\"value\": " + json_number(m.value) + ", \"unit\": " +
                json_string(m.unit) + ", \"kind\": " + json_string(kind_name(m.kind)) + "}";
        first = false;
    }
    text += "\n  }\n}\n";
    std::fputs(text.c_str(), out);
    if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + options.out);
}

int run(const Options& options) {
    const WorkloadSpec* spec = find_workload(options.workload);
    if (spec == nullptr) return usage();
    const CpuSplit cpus = split_cpus();
    pin_current_thread(cpus.client);

    std::printf("sariadne_bench: workload %s, seed %llu, %.1f s, trace %d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0);
    std::printf("sariadne_bench: commit %s, %s, %s build, nproc %u, daemon cpus %s, "
                "client cpus %s\n",
                options.commit.c_str(), compiler().c_str(), SARIADNE_BENCH_BUILD_TYPE,
                std::thread::hardware_concurrency(), describe_cpus(cpus.daemon).c_str(),
                describe_cpus(cpus.client).c_str());
    std::fflush(stdout);

    Report report;
    auto inputs = make_inputs(*spec, options.seed);
    const std::string disagreement = check_semantic_directory(*inputs);
    if (!disagreement.empty()) report.fail_run(disagreement);

    if (spec->mode == Mode::kDaemon) {
        DaemonRunOptions daemon_options;
        daemon_options.daemon_path = SARIADNE_DAEMON_PATH;
        daemon_options.seconds = options.seconds;
        daemon_options.traced = options.trace;
        run_daemon_workload(*inputs, daemon_options, cpus, report);
    } else {
        run_backbone_workload(*inputs, options.seconds, options.trace, report);
    }

    if (options.trace) {
        const double op_ns = run_replay(*inputs, options.trace_file, report);
        const Metric* low = report.find("p50_us_low");
        report.add(MetricKind::kLayer, "daemon.residual_us",
                   (low != nullptr ? low->value : 0) - op_ns / 1000.0, "us");
    }

    for (const auto& [key, value] : report.notes()) {
        std::printf("  %-28s %s\n", key.c_str(), value.c_str());
    }
    std::printf("  %-44s %16s  %s\n", "metric", "value", "unit");
    for (const Metric& m : report.metrics()) {
        std::printf("  %-44s %16.4f  %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.kind == MetricKind::kEndToEnd ? "[end-to-end]"
                    : m.kind == MetricKind::kLayer  ? "[layer]"
                                                    : "");
    }
    for (const std::string& problem : report.problems) {
        std::fprintf(stderr, "sariadne_bench: %s\n", problem.c_str());
    }
    if (report.generator_late) {
        std::fprintf(stderr,
                     "sariadne_bench: warning: the load generator missed its "
                     "validity limits (see validity.* above)\n");
    }

    const bool correct = report.valid && report.failed == 0;
    if (!options.out.empty()) write_result_file(options, report, cpus, correct);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                metrics_json(report, options.trace ? MetricKind::kLayer
                                                   : MetricKind::kEndToEnd)
                    .c_str());
    std::fflush(stdout);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return usage();
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            options.trace = value == "1";
        } else if (flag == "--trace-file") {
            options.trace_file = value;
        } else if (flag == "--out") {
            options.out = value;
        } else if (flag == "--commit") {
            options.commit = value;
        } else {
            return usage();
        }
    }
    if (options.workload.empty() || !(options.seconds >= 0.5 && options.seconds <= 600)) {
        return usage();
    }
    if (options.trace_file.empty()) {
        options.trace_file = options.workload + ".trace.json";
    }
    try {
        return run(options);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "sariadne_bench: %s\n", error.what());
        return 1;
    }
}
