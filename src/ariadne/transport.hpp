// The Transport seam of the discovery protocol. DiscoveryNetwork used to
// own a net::Simulator directly; it now talks exclusively through this
// interface, so the same protocol logic runs unchanged on
//
//   * ariadne::SimTransport        — the deterministic discrete-event
//     simulator testbed (net/sim_transport.hpp), carrying each message
//     unencoded and charging it its exact encoded size, all fault
//     injection preserved, and
//   * net::EventLoopTransport      — a poll-based nonblocking-socket
//     event loop moving the same messages as wire-codec frames over real
//     TCP connections (net/event_loop.hpp), hosting sariadne_daemon.
//
// A message's body is a wire::WireMessage on both (ariadne/wire.hpp).
//
// Contract (every implementation):
//
//   Identity    — the transport stamps Message::source with the sender
//                 (the sending node; a socket peer's connection NodeId)
//                 and never rewrites the body. The protocol replies to and
//                 keys peer state by source alone, never by a node id a
//                 payload carries.
//   Threading   — single-threaded reactor. The delivery handler and every
//                 scheduled action run on the thread that drives run_for()
//                 / the event loop; the protocol layer therefore needs no
//                 locks of its own. unicast/broadcast/schedule must only
//                 be called from that same thread (delivery and timer
//                 callbacks), exactly as with the simulator.
//   Ordering    — deliveries from one sender to one receiver preserve
//                 send order (FIFO per direction). No cross-sender order
//                 is promised; the simulator's jitter faults and real TCP
//                 both reorder across peers.
//   Time        — now() is milliseconds on the transport's clock: virtual
//                 event time on the simulator, steady-clock real time on
//                 the socket loop. schedule() fires on that same clock,
//                 never before its delay has elapsed, and never
//                 concurrently with a delivery. A handler's reply is due
//                 at handler start + its service time on this clock, so
//                 the protocol schedules only the part not yet elapsed:
//                 all of it on the simulator, whose clock stands still
//                 inside a handler; none of it on the socket loop, whose
//                 clock already ran through the measured compute. A
//                 delay of 0 fires before the reactor next sleeps, so
//                 the reply leaves in the step that computed it.
//   Backpressure— send paths never block the reactor. The simulator's
//                 queue is unbounded (virtual time is free); the socket
//                 transport bounds each connection's send buffer and
//                 sheds frames (counted under transport.* metrics) when a
//                 peer stops draining.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ariadne/transport_types.hpp"
#include "obs/metrics.hpp"

namespace sariadne::ariadne {

class Transport {
public:
    /// Delivery callback: `self` is the node the message was addressed to
    /// (always a node hosted by this transport), `msg` carries the
    /// protocol message with source/wire_seq stamped by the transport.
    using DeliveryHandler =
        std::function<void(net::NodeId self, const net::Message& msg)>;

    virtual ~Transport() = default;

    // --- wiring ---------------------------------------------------------

    /// Installs the protocol's delivery callback. Must be called before
    /// any message can arrive; replacing the handler mid-run is allowed
    /// (tests) but not thread-safe.
    virtual void set_delivery_handler(DeliveryHandler handler) = 0;

    /// Counts traffic into `registry` (`sim.*` / `transport.*`) from now
    /// on, instead of the registry the transport owns until then. The
    /// registry must outlive the transport.
    virtual void set_metrics(obs::MetricsRegistry& registry) = 0;

    // --- data plane -----------------------------------------------------

    /// Sends `msg` from `from` to `to`. Unreachable destinations are
    /// counted and dropped, never an error.
    virtual void unicast(net::NodeId from, net::NodeId to,
                         net::Message msg) = 0;

    /// TTL-bounded flood to every up-node within `ttl_hops` of `from`
    /// (excluding `from`). The socket transport has one-hop reach to every
    /// connected peer, so any ttl >= 1 covers all live connections.
    virtual void broadcast(net::NodeId from, std::uint32_t ttl_hops,
                           net::Message msg) = 0;

    // --- clock ----------------------------------------------------------

    virtual net::SimTime now() const = 0;

    /// Schedules `action` on the transport thread `delay_ms` from now.
    virtual void schedule(net::SimTime delay_ms,
                          std::function<void()> action) = 0;

    /// Drives the transport for `duration_ms` of its clock: virtual time
    /// on the simulator, real wall time on the event loop.
    virtual void run_for(net::SimTime duration_ms) = 0;

    /// True when nothing further can happen without external input (no
    /// queued events; the socket transport is idle between arrivals).
    virtual bool idle() const = 0;

    // --- node roster (what directory_for / fitness consult) -------------

    /// Number of addressable nodes. Fixed for the transport's lifetime
    /// (the socket transport preallocates its connection capacity).
    virtual std::size_t node_count() const = 0;

    /// Whether `node` is currently reachable (up in the topology / its
    /// connection is live).
    virtual bool is_up(net::NodeId node) const = 0;

    /// Hop distances from `from` to every node, -1 when unreachable —
    /// the routing oracle behind directory_for(). The socket transport is
    /// a star: self 0, live peers 1, everything else -1.
    virtual std::vector<int> hop_distances(net::NodeId from) const = 0;

    /// Mains-powered infrastructure flag (election fitness).
    virtual bool is_infrastructure(net::NodeId node) const = 0;

    /// Radio/link degree of `node` (election fitness).
    virtual std::size_t degree(net::NodeId node) const = 0;
};

}  // namespace sariadne::ariadne
