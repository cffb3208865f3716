// The backbone_sim workload: the full S-Ariadne protocol over the
// in-process discrete-event simulator (SimTransport) — directory
// election, publishing to the nearest directory, summary exchange and
// forwarding — measured in wall time.
#pragma once

#include "common.hpp"
#include "inputs.hpp"

namespace perfbench {

/// Set-up (repeated, median reported; one when `traced`), then three
/// phases in round-robin slots over the same backbone: one discovery at a
/// time ("low"), 8 interleaved ("mid") and 64 in flight ("capacity").
/// Every discovery is checked against a brute-force match set.
void run_backbone_workload(Inputs& inputs, double seconds, bool traced,
                           Report& report);

}  // namespace perfbench
