// The traced run: replays a workload's set-up publishes and the start of
// its operation stream in-process, through the layers' public functions,
// with one span per call kept in a preallocated buffer. Gives per-layer
// self times, match work counts and the tracing overhead; end-to-end
// numbers never come from here.
#pragma once

#include <string>

#include "common.hpp"
#include "inputs.hpp"

namespace perfbench {

/// Operations of the stream the replay covers (after the set-up
/// publishes).
inline constexpr std::size_t kReplayOps = 20000;

/// Fills one directory with the set-up publishes (traced), replays the
/// stream over it three times (two with alternate chunks traced, for the
/// overhead, one traced throughout), adds the per-layer metrics to
/// `report` and writes the set-up spans and those of the fully traced
/// replay to `trace_path` as Chrome trace-event JSON. Returns the median
/// in-process time of one stream operation, in ns.
double run_replay(Inputs& inputs, const std::string& trace_path, Report& report);

}  // namespace perfbench
