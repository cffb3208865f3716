// Discrete-event network simulator. Single-threaded, deterministic: events
// (message deliveries, timers) execute in virtual-time order with a
// monotonically increasing sequence number breaking ties. Messages carry
// the protocol's wire structs (ariadne/wire.hpp) unencoded, with the
// sender's size_bytes charged per hop; one delivery handler receives every
// delivered message with the node it was addressed to (SimTransport
// installs the protocol's), and protocol layers (src/ariadne) communicate
// exclusively through the simulator.
//
// Radio model: a unicast between reachable nodes arrives after
//   path_cost * per_hop_latency_ms
// (path_cost weighs a radio hop 1.0 and a wired link its weight) and is
// charged one transmission per hop of the shortest hop path. Ariadne
// assumes an underlying MANET routing layer; we charge its path cost
// without simulating the routing protocol itself. Both numbers come from
// the topology's per-source route table, rebuilt after a topology change
// (net/topology.hpp). TTL-bounded broadcast floods outward one hop per
// latency step, delivering to every up-node within the hop bound — the
// paper's "up to a given number of hops" advertisement/election
// primitive. Every traffic event increments one `sim.*` counter of the
// simulator's registry; those counters feed the protocol-traffic metrics
// of the distributed benches.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "ariadne/transport.hpp"
#include "ariadne/transport_types.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace sariadne::net {

/// One scheduled node outage: the node goes down at `down_at` and (when
/// `up_at > down_at`) recovers at `up_at`, both in virtual ms from the
/// moment the plan is installed.
struct CrashWindow {
    NodeId node = kNoNode;
    SimTime down_at = 0;
    SimTime up_at = 0;  ///< <= down_at means the node never recovers
};

/// Deterministic fault-injection plan for the radio model. All randomness
/// is drawn from one seeded support::Rng in event order, so two runs with
/// the same plan over the same workload produce identical traffic. The
/// default-constructed plan is inert: no RNG is consulted and the
/// simulator behaves exactly as without a plan (zero-cost when off).
struct FaultPlan {
    std::uint64_t seed = 0x5EEDFA17ULL;
    /// Probability that a delivery is lost in flight (per receiver for
    /// broadcasts: each covered node fails its reception independently).
    double loss_probability = 0;
    /// Probability that a delivery is duplicated (the receiver hears the
    /// frame twice, the echo arriving after an extra jitter delay).
    double duplication_probability = 0;
    /// Uniform extra latency in [0, latency_jitter_ms) added per delivery.
    double latency_jitter_ms = 0;
    /// Scheduled node outages (crash/recover windows).
    std::vector<CrashWindow> crashes;
    /// Targeted drop hook for tests: when set and returning true for a
    /// scheduled delivery, that delivery is dropped (counted under
    /// faults_dropped). Evaluated before the probabilistic faults and
    /// without consuming RNG draws, so it never perturbs the random
    /// sequence of the surrounding plan.
    std::function<bool(NodeId from, NodeId to, const Message&)> drop;

    bool enabled() const noexcept {
        return loss_probability > 0 || duplication_probability > 0 ||
               latency_jitter_ms > 0 || !crashes.empty() || drop != nullptr;
    }
};

class Simulator {
public:
    using DeliveryHandler = ariadne::Transport::DeliveryHandler;

    /// Counts into a registry of its own until set_metrics() attaches a
    /// caller's.
    explicit Simulator(Topology topology, double per_hop_latency_ms = 2.0)
        : topology_(std::move(topology)),
          per_hop_latency_ms_(per_hop_latency_ms) {}

    Topology& topology() noexcept { return topology_; }
    const Topology& topology() const noexcept { return topology_; }

    /// Installs the callback every delivered message goes to, with the
    /// node it was addressed to. Without one, deliveries are counted and
    /// dropped.
    void set_delivery_handler(DeliveryHandler handler) {
        handler_ = std::move(handler);
    }

    SimTime now() const noexcept { return now_; }

    /// Schedules a callback `delay_ms` of virtual time from now.
    void schedule(SimTime delay_ms, std::function<void()> action);

    /// Sends a message along the current shortest up-path; delivery is
    /// scheduled at now + hops * latency. Unreachable → counted + dropped.
    void unicast(NodeId from, NodeId to, Message msg);

    /// TTL-bounded flood: every up-node within `ttl_hops` of `from`
    /// (excluding `from`) receives the message at hop-distance latency.
    void broadcast(NodeId from, std::uint32_t ttl_hops, Message msg);

    /// Runs until the event queue drains; the clock stays at the last
    /// executed event.
    void run();

    /// Runs every event with time <= `until`, then advances the clock to
    /// `until` — back-to-back windows `run(t1); run(t2)` tile virtual time
    /// exactly like a single `run(t2)`, so now()-based staleness checks
    /// (advertisement timeouts, retry deadlines) see no seam.
    void run(SimTime until);

    /// Drains at most `max_events` events (test stepping).
    std::size_t step(std::size_t max_events);

    /// Installs (or replaces) the fault plan: seeds the fault RNG and
    /// schedules the plan's crash/recover windows relative to now().
    /// Loss/duplication/jitter apply to every delivery scheduled after the
    /// call; an inert plan (`FaultPlan{}` with no crashes) restores the
    /// perfect radio. Counters surface in stats() and as `sim.faults_*`.
    void set_faults(FaultPlan plan);

    const FaultPlan& faults() const noexcept { return faults_; }

    /// The traffic so far: read_traffic() of metrics().
    TrafficStats stats() const { return read_traffic(metrics()); }

    /// Counts traffic into `registry` under `sim.*` names from now on,
    /// instead of the simulator's own registry. The registry must outlive
    /// the simulator.
    void set_metrics(obs::MetricsRegistry& registry) {
        metrics_ = Metrics(registry);
    }

    /// The registry the simulator counts into: the attached one, or its own.
    obs::MetricsRegistry& metrics() const noexcept {
        return *metrics_.registry;
    }

    bool idle() const noexcept { return events_.empty(); }

private:
    struct Event {
        SimTime time;
        std::uint64_t seq;
        std::function<void()> action;

        bool operator>(const Event& other) const noexcept {
            return time != other.time ? time > other.time : seq > other.seq;
        }
    };

    void deliver(NodeId to, const Message& msg);

    /// Event loop shared by run() and step(): runs events in time order
    /// while their time is <= `until`, at most `max_events` of them, then
    /// refreshes the `sim.pending_events` and `sim.now_ms` gauges. Returns
    /// how many ran.
    std::size_t drain(SimTime until, std::size_t max_events);

    /// Applies the fault plan to one delivery of `msg` from `from` to `to`
    /// due at `delay_ms` from now: may drop it, add jitter, or schedule a
    /// duplicate echo. No-op pass-through when the plan is inert.
    void schedule_delivery(NodeId from, NodeId to, SimTime delay_ms,
                           Message msg);

    /// Handles into the registry the simulator counts into, all resolved
    /// by the constructor.
    struct Metrics {
        explicit Metrics(obs::MetricsRegistry& target);

        obs::MetricsRegistry* registry;
        obs::Counter* unicasts;
        obs::Counter* broadcasts;
        obs::Counter* deliveries;
        /// `sim.deliveries{type=...}`, indexed by wire id - 1, so a
        /// delivery neither builds a name nor takes the registry lock.
        std::array<obs::Counter*, ariadne::wire::kMsgTypeCount>
            deliveries_by_type;
        obs::Counter* link_transmissions;
        obs::Counter* bytes_transmitted;
        obs::Counter* dropped_unreachable;
        obs::Counter* faults_dropped;
        obs::Counter* faults_duplicated;
        obs::Counter* faults_crashes;
        obs::Counter* faults_recoveries;
        obs::Gauge* pending_events;
        obs::Gauge* now_ms;
    };

    Topology topology_;
    DeliveryHandler handler_;
    double per_hop_latency_ms_;
    SimTime now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t next_wire_seq_ = 0;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
    std::unique_ptr<obs::MetricsRegistry> own_registry_ =
        std::make_unique<obs::MetricsRegistry>();
    Metrics metrics_{*own_registry_};
    FaultPlan faults_;
    Rng fault_rng_;
};

}  // namespace sariadne::net
