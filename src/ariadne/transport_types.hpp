// Transport-neutral vocabulary shared by the protocol layer and every
// concrete transport. These types describe *what* moves between nodes,
// not *how*: the discrete-event simulator (net/simulator.hpp) and the
// real socket transport (net/event_loop.hpp) both address `NodeId`s and
// deliver `Message`s. A Message's body is the wire codec's own
// WireMessage (ariadne/wire.hpp): the protocol has one message vocabulary
// on every transport. They live in src/ariadne (below src/net in the
// layer DAG) so the protocol layer compiles against this header alone —
// never against a concrete transport — and they stay in namespace
// sariadne::net because they name the network-facing contract, wherever
// a transport implements it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "ariadne/wire.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"

namespace sariadne::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xFFFFFFFFu;

/// Milliseconds on the transport's clock: virtual time on the simulator,
/// real steady-clock time on the socket event loop.
using SimTime = double;

struct Message {
    /// The sender, stamped by the transport on every send: the one
    /// identity receivers reply to and key peer state by (a socket
    /// transport stamps the connection's NodeId, whatever the body says).
    NodeId source = kNoNode;
    ariadne::wire::WireMessage body;  ///< type + payload, as framed on a socket
    /// Bytes the simulator charges per hop: SimTransport sets it to
    /// wire::encoded_size(body). The socket transport counts the bytes it
    /// really sends instead.
    std::uint32_t size_bytes = 0;
    /// Per-send sequence id, assigned by the transport: every unicast or
    /// broadcast initiation gets a fresh id, and a fault-injected duplicate
    /// delivery carries the id of the send it echoes. Receivers deduplicate
    /// on it; retransmissions are distinct sends and get distinct ids.
    std::uint64_t wire_seq = 0;
};

/// A message carrying `payload`, typed by its payload alternative: the one
/// way to build a message, so type and payload cannot disagree.
inline Message make_message(ariadne::wire::Payload payload) {
    Message msg;
    msg.body.type = ariadne::wire::type_of(payload);
    msg.body.payload = std::move(payload);
    return msg;
}

/// The simulator's traffic counters, aggregated over the run: a view of
/// the `sim.*` counters of a registry (read_traffic). The socket transport
/// counts its traffic under `transport.*` instead, so this view of its
/// registry reads zero.
struct TrafficStats {
    std::uint64_t unicasts = 0;          ///< unicast sends
    std::uint64_t broadcasts = 0;        ///< broadcast initiations
    std::uint64_t deliveries = 0;        ///< messages handed to the protocol
    std::uint64_t link_transmissions = 0;///< per-hop radio transmissions
    std::uint64_t bytes_transmitted = 0; ///< size-weighted link transmissions
    std::uint64_t dropped_unreachable = 0;
    std::uint64_t faults_dropped = 0;    ///< deliveries lost to the FaultPlan
    std::uint64_t faults_duplicated = 0; ///< deliveries echoed by the FaultPlan
    std::uint64_t faults_crashes = 0;    ///< scheduled node downs executed
    std::uint64_t faults_recoveries = 0; ///< scheduled node ups executed
    /// Deliveries by wire::to_string(type), for every type delivered at
    /// least once.
    std::map<std::string, std::uint64_t> per_type;

    /// Replay determinism check: two runs with the same seed and fault
    /// plan must produce identical traffic.
    friend bool operator==(const TrafficStats&, const TrafficStats&) = default;
};

/// The `sim.*` counters of `registry` (zero where absent).
inline TrafficStats read_traffic(const obs::MetricsRegistry& registry) {
    namespace names = obs::names;
    TrafficStats stats;
    stats.unicasts = registry.counter_value(names::kSimUnicasts);
    stats.broadcasts = registry.counter_value(names::kSimBroadcasts);
    stats.deliveries = registry.counter_value(names::kSimDeliveries);
    stats.link_transmissions =
        registry.counter_value(names::kSimLinkTransmissions);
    stats.bytes_transmitted =
        registry.counter_value(names::kSimBytesTransmitted);
    stats.dropped_unreachable =
        registry.counter_value(names::kSimDroppedUnreachable);
    stats.faults_dropped = registry.counter_value(names::kSimFaultsDropped);
    stats.faults_duplicated =
        registry.counter_value(names::kSimFaultsDuplicated);
    stats.faults_crashes = registry.counter_value(names::kSimFaultsCrashes);
    stats.faults_recoveries =
        registry.counter_value(names::kSimFaultsRecoveries);
    for (std::size_t id = 1; id <= ariadne::wire::kMsgTypeCount; ++id) {
        const char* type =
            ariadne::wire::to_string(static_cast<ariadne::wire::MsgType>(id));
        const std::uint64_t delivered =
            registry.counter_value(names::sim_deliveries_by_type(type));
        if (delivered > 0) stats.per_type[type] = delivered;
    }
    return stats;
}

}  // namespace sariadne::net
