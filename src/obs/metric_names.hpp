// The metric-name table. Every metric a src/ component creates in an
// obs::MetricsRegistry is declared here, so the full exposition surface is
// reviewable in one place and renames cannot silently fork a series
// (dashboards key on these strings). sariadne-analyze enforces two
// rules: no quoted name literal may be passed to counter()/gauge()/
// histogram() anywhere under src/ — call sites reference these constants
// (tests and benches may still create ad-hoc metrics) — and every
// constant here is named as `names::k…` by some other file under src/.
//
// Naming scheme (see obs/metrics.hpp): `<layer>.<quantity>[{key="value"}]`,
// `_ms` suffix for millisecond histograms.
#pragma once

#include <string>
#include <string_view>

namespace sariadne::obs::names {

// --- engine.* (core/discovery_engine.hpp) -------------------------------
inline constexpr std::string_view kEngineDiscoveries = "engine.discoveries";
inline constexpr std::string_view kEngineDiscoveriesSatisfied =
    "engine.discoveries_satisfied";
inline constexpr std::string_view kEngineDiscoveriesUnsatisfied =
    "engine.discoveries_unsatisfied";
inline constexpr std::string_view kEngineDiscoverMs = "engine.discover_ms";

// --- directory.* (directory/semantic_directory.hpp) ---------------------
inline constexpr std::string_view kDirectoryPublishes = "directory.publishes";
inline constexpr std::string_view kDirectoryRemovals = "directory.removals";
inline constexpr std::string_view kDirectoryQueries = "directory.queries";
inline constexpr std::string_view kDirectorySummaryRebuilds =
    "directory.summary_rebuilds";
inline constexpr std::string_view kDirectoryCapabilityMatches =
    "directory.capability_matches";
inline constexpr std::string_view kDirectoryConceptQueries =
    "directory.concept_queries";
inline constexpr std::string_view kDirectoryDagsVisited =
    "directory.dags_visited";
inline constexpr std::string_view kDirectoryDagsPruned =
    "directory.dags_pruned";
inline constexpr std::string_view kDirectoryServices = "directory.services";
inline constexpr std::string_view kDirectoryShardContention =
    "directory.shard_contention";
inline constexpr std::string_view kDirectoryPublishParseMs =
    "directory.publish_parse_ms";
inline constexpr std::string_view kDirectoryPublishInsertMs =
    "directory.publish_insert_ms";
inline constexpr std::string_view kDirectoryQueryParseMs =
    "directory.query_parse_ms";
inline constexpr std::string_view kDirectoryQueryMatchMs =
    "directory.query_match_ms";

// --- matching.* ---------------------------------------------------------
inline constexpr std::string_view kMatchingQuickRejects =
    "matching.quick_rejects";
inline constexpr std::string_view kMatchingReachabilityPrunes =
    "matching.reachability_prunes";
inline constexpr std::string_view kMatchingQueryAllocs =
    "matching.query_allocs";

// --- directory batch publish (directory/semantic_directory.hpp) ---------
inline constexpr std::string_view kDirectoryPublishBatches =
    "directory.publish_batches";

// --- sim.* (net/simulator.cpp) ------------------------------------------
inline constexpr std::string_view kSimUnicasts = "sim.unicasts";
inline constexpr std::string_view kSimBroadcasts = "sim.broadcasts";
inline constexpr std::string_view kSimDeliveries = "sim.deliveries";
inline constexpr std::string_view kSimLinkTransmissions =
    "sim.link_transmissions";
inline constexpr std::string_view kSimBytesTransmitted =
    "sim.bytes_transmitted";
inline constexpr std::string_view kSimDroppedUnreachable =
    "sim.dropped_unreachable";
inline constexpr std::string_view kSimFaultsDropped = "sim.faults_dropped";
inline constexpr std::string_view kSimFaultsDuplicated =
    "sim.faults_duplicated";
inline constexpr std::string_view kSimFaultsCrashes = "sim.faults_crashes";
inline constexpr std::string_view kSimFaultsRecoveries =
    "sim.faults_recoveries";
inline constexpr std::string_view kSimPendingEvents = "sim.pending_events";
inline constexpr std::string_view kSimNowMs = "sim.now_ms";

/// The one sanctioned dynamic name: the per-message-type delivery
/// breakdown, `sim.deliveries{type="<msg.type>"}`. Kept as a function so
/// the label shape stays uniform across the exposition.
inline std::string sim_deliveries_by_type(std::string_view type) {
    std::string name = "sim.deliveries{type=\"";
    name += type;
    name += "\"}";
    return name;
}

// --- protocol.* (ariadne/protocol.cpp) ----------------------------------
inline constexpr std::string_view kProtocolRequestsIssued =
    "protocol.requests_issued";
inline constexpr std::string_view kProtocolRequestsRetried =
    "protocol.requests_retried";
inline constexpr std::string_view kProtocolRequestsExpired =
    "protocol.requests_expired";
inline constexpr std::string_view kProtocolRequestsSatisfied =
    "protocol.requests_satisfied";
inline constexpr std::string_view kProtocolRequestsUnsatisfied =
    "protocol.requests_unsatisfied";
inline constexpr std::string_view kProtocolResponses = "protocol.responses";
inline constexpr std::string_view kProtocolForwards = "protocol.forwards";
inline constexpr std::string_view kProtocolElectionsStarted =
    "protocol.elections_started";
inline constexpr std::string_view kProtocolDirectoriesElected =
    "protocol.directories_elected";
inline constexpr std::string_view kProtocolHandovers = "protocol.handovers";
inline constexpr std::string_view kProtocolSummaryPushes =
    "protocol.summary_pushes";
inline constexpr std::string_view kProtocolSummaryPulls =
    "protocol.summary_pulls";
inline constexpr std::string_view kProtocolSummaryPullReplies =
    "protocol.summary_pull_replies";
inline constexpr std::string_view kProtocolBloomFalsePositives =
    "protocol.bloom_false_positives";
inline constexpr std::string_view kProtocolBloomWireRejected =
    "protocol.bloom_wire_rejected";
inline constexpr std::string_view kProtocolPendingReaped =
    "protocol.pending_reaped";
inline constexpr std::string_view kProtocolPublishesAcked =
    "protocol.publishes_acked";
inline constexpr std::string_view kProtocolPublishesRetried =
    "protocol.publishes_retried";
inline constexpr std::string_view kProtocolPublishesExpired =
    "protocol.publishes_expired";
inline constexpr std::string_view kProtocolPublishNacks =
    "protocol.publish_nacks";
inline constexpr std::string_view kProtocolDuplicatesDropped =
    "protocol.duplicates_dropped";
inline constexpr std::string_view kProtocolMalformedPublishes =
    "protocol.malformed_publishes";
inline constexpr std::string_view kProtocolMalformedRequests =
    "protocol.malformed_requests";
inline constexpr std::string_view kProtocolRequestsInFlight =
    "protocol.requests_in_flight";
inline constexpr std::string_view kProtocolDirectories =
    "protocol.directories";
inline constexpr std::string_view kProtocolRetryBacklog =
    "protocol.retry_backlog";
inline constexpr std::string_view kProtocolPublishOutstanding =
    "protocol.publish_outstanding";
inline constexpr std::string_view kProtocolDeferredPublishes =
    "protocol.deferred_publishes";
inline constexpr std::string_view kProtocolDeferredRequests =
    "protocol.deferred_requests";
inline constexpr std::string_view kProtocolResponseMs =
    "protocol.response_ms";
inline constexpr std::string_view kProtocolDirectoryComputeMs =
    "protocol.directory_compute_ms";
inline constexpr std::string_view kProtocolSummaryBytesSent =
    "protocol.summary_bytes_sent";
inline constexpr std::string_view kProtocolSummaryDeltaPushes =
    "protocol.summary_delta_pushes";
inline constexpr std::string_view kProtocolForwardsSavedExact =
    "protocol.forwards_saved_exact";

// --- transport.* (net/event_loop.cpp) -----------------------------------
inline constexpr std::string_view kTransportConnectionsAccepted =
    "transport.connections_accepted";
inline constexpr std::string_view kTransportConnectionsClosed =
    "transport.connections_closed";
inline constexpr std::string_view kTransportConnectionsActive =
    "transport.connections_active";
inline constexpr std::string_view kTransportConnectionsRejected =
    "transport.connections_rejected";
inline constexpr std::string_view kTransportFramesSent =
    "transport.frames_sent";
/// One per successful send(2); frames_sent / send_calls is how many
/// frames each syscall carries.
inline constexpr std::string_view kTransportSendCalls =
    "transport.send_calls";
inline constexpr std::string_view kTransportFramesReceived =
    "transport.frames_received";
inline constexpr std::string_view kTransportBytesSent =
    "transport.bytes_sent";
inline constexpr std::string_view kTransportBytesReceived =
    "transport.bytes_received";
inline constexpr std::string_view kTransportDecodeErrors =
    "transport.decode_errors";
inline constexpr std::string_view kTransportOversizedFrames =
    "transport.oversized_frames";
inline constexpr std::string_view kTransportBackpressureDrops =
    "transport.backpressure_drops";
inline constexpr std::string_view kTransportWriteQueueBytes =
    "transport.write_queue_bytes";

}  // namespace sariadne::obs::names
