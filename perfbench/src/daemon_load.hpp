// The daemon workloads: spawn the real sariadne_daemon, drive it over
// loopback TCP from two client threads (one connection each), check every
// reply against the reference, and scrape the daemon's /metrics between
// phases.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"

namespace perfbench {

/// The CPUs this process may use, split in two halves: the daemon runs
/// pinned to the lower half, the load generator to the upper half, so the
/// generator never competes with the system under test for a core.
struct CpuSplit {
    std::vector<int> daemon;
    std::vector<int> client;
};

CpuSplit split_cpus();

/// Pins the calling thread (and every thread it later creates) to `cpus`.
void pin_current_thread(const std::vector<int>& cpus);

std::string describe_cpus(const std::vector<int>& cpus);

/// Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable.
double vm_hwm_mb(int pid);

struct DaemonRunOptions {
    std::string daemon_path;
    double seconds = 10;
    bool traced = false;  ///< one set-up only (see want_another_setup)
};

/// Runs one daemon workload: set-up (repeated, median reported; the
/// daemon of the last one serves the phases), an untimed warm-up, then
/// round-robin slots of the open-loop "low" and "mid" phases and the
/// closed-loop saturation phase. Adds end-to-end metrics, transport layer
/// metrics and load-generator validity figures to `report`.
void run_daemon_workload(const Inputs& inputs, const DaemonRunOptions& options,
                         const CpuSplit& cpus, Report& report);

/// Open-loop rate of the "low" phase for every daemon workload, ops/s.
inline constexpr double kLowRate = 5000;

}  // namespace perfbench
