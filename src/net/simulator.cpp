#include "net/simulator.hpp"

#include <cstdint>
#include <limits>
#include <utility>

#include "ariadne/wire.hpp"
#include "obs/metric_names.hpp"

namespace sariadne::net {

Simulator::Metrics::Metrics(obs::MetricsRegistry& target)
    : registry(&target),
      unicasts(&target.counter(obs::names::kSimUnicasts)),
      broadcasts(&target.counter(obs::names::kSimBroadcasts)),
      deliveries(&target.counter(obs::names::kSimDeliveries)),
      link_transmissions(&target.counter(obs::names::kSimLinkTransmissions)),
      bytes_transmitted(&target.counter(obs::names::kSimBytesTransmitted)),
      dropped_unreachable(&target.counter(obs::names::kSimDroppedUnreachable)),
      faults_dropped(&target.counter(obs::names::kSimFaultsDropped)),
      faults_duplicated(&target.counter(obs::names::kSimFaultsDuplicated)),
      faults_crashes(&target.counter(obs::names::kSimFaultsCrashes)),
      faults_recoveries(&target.counter(obs::names::kSimFaultsRecoveries)),
      pending_events(&target.gauge(obs::names::kSimPendingEvents)),
      now_ms(&target.gauge(obs::names::kSimNowMs)) {
    for (std::size_t i = 0; i < deliveries_by_type.size(); ++i) {
        const auto type = static_cast<ariadne::wire::MsgType>(i + 1);
        deliveries_by_type[i] = &target.counter(
            obs::names::sim_deliveries_by_type(ariadne::wire::to_string(type)));
    }
}

void Simulator::set_faults(FaultPlan plan) {
    faults_ = std::move(plan);
    fault_rng_ = Rng(faults_.seed);
    for (const CrashWindow& window : faults_.crashes) {
        SARIADNE_EXPECTS(window.node < topology_.node_count());
        SARIADNE_EXPECTS(window.down_at >= 0);
        const NodeId node = window.node;
        schedule(window.down_at, [this, node] {
            topology_.set_up(node, false);
            metrics_.faults_crashes->inc();
        });
        if (window.up_at > window.down_at) {
            schedule(window.up_at, [this, node] {
                topology_.set_up(node, true);
                metrics_.faults_recoveries->inc();
            });
        }
    }
}

void Simulator::schedule(SimTime delay_ms, std::function<void()> action) {
    SARIADNE_EXPECTS(delay_ms >= 0);
    events_.push(Event{now_ + delay_ms, next_seq_++, std::move(action)});
}

void Simulator::deliver(NodeId to, const Message& msg) {
    if (!topology_.is_up(to)) return;  // went down while in flight
    metrics_.deliveries->inc();
    metrics_.deliveries_by_type[static_cast<std::size_t>(msg.body.type) - 1]
        ->inc();
    if (handler_) handler_(to, msg);
}

void Simulator::schedule_delivery(NodeId from, NodeId to, SimTime delay_ms,
                                  Message msg) {
    if (!faults_.enabled()) {
        schedule(delay_ms, [this, to, m = std::move(msg)] { deliver(to, m); });
        return;
    }
    if (faults_.drop != nullptr && faults_.drop(from, to, msg)) {
        metrics_.faults_dropped->inc();
        return;
    }
    // The RNG draw order per delivery is fixed (loss, jitter, dup, dup
    // jitter) so the fault sequence replays exactly for a given seed.
    if (faults_.loss_probability > 0 &&
        fault_rng_.chance(faults_.loss_probability)) {
        metrics_.faults_dropped->inc();
        return;
    }
    if (faults_.latency_jitter_ms > 0) {
        delay_ms += fault_rng_.uniform() * faults_.latency_jitter_ms;
    }
    if (faults_.duplication_probability > 0 &&
        fault_rng_.chance(faults_.duplication_probability)) {
        metrics_.faults_duplicated->inc();
        // The echoed frame trails the original; it carries the same
        // wire_seq, so deduplicating receivers can recognize it.
        const double echo_delay =
            delay_ms + 0.1 +
            (faults_.latency_jitter_ms > 0
                 ? fault_rng_.uniform() * faults_.latency_jitter_ms
                 : 0.0);
        schedule(echo_delay, [this, to, m = msg] { deliver(to, m); });
    }
    schedule(delay_ms, [this, to, m = std::move(msg)] { deliver(to, m); });
}

void Simulator::unicast(NodeId from, NodeId to, Message msg) {
    SARIADNE_EXPECTS(from < topology_.node_count());
    SARIADNE_EXPECTS(to < topology_.node_count());
    metrics_.unicasts->inc();
    msg.source = from;
    msg.wire_seq = ++next_wire_seq_;
    if (from == to) {
        // Loopback never touches the radio, so the fault model does not
        // apply; deliver directly.
        schedule(0, [this, to, m = std::move(msg)] { deliver(to, m); });
        return;
    }
    const int hops = topology_.hop_distance(from, to);
    if (hops < 0) {
        metrics_.dropped_unreachable->inc();
        return;
    }
    // Latency follows the weighted path (wired backbone links are cheaper
    // than radio hops in hybrid topologies); transmission counting stays
    // per physical link.
    const double cost = topology_.path_cost(from, to);
    metrics_.link_transmissions->inc(static_cast<std::uint64_t>(hops));
    metrics_.bytes_transmitted->inc(static_cast<std::uint64_t>(hops) *
                                    msg.size_bytes);
    schedule_delivery(from, to, cost * per_hop_latency_ms_, std::move(msg));
}

void Simulator::broadcast(NodeId from, std::uint32_t ttl_hops, Message msg) {
    SARIADNE_EXPECTS(from < topology_.node_count());
    metrics_.broadcasts->inc();
    msg.source = from;
    msg.wire_seq = ++next_wire_seq_;
    const auto dist = topology_.hop_distances(from);
    for (NodeId node = 0; node < topology_.node_count(); ++node) {
        if (node == from || dist[node] < 0) continue;
        if (static_cast<std::uint32_t>(dist[node]) > ttl_hops) continue;
        // Each covered node hears one radio transmission from its
        // predecessor on the flood tree.
        metrics_.link_transmissions->inc();
        metrics_.bytes_transmitted->inc(msg.size_bytes);
        schedule_delivery(from, node, dist[node] * per_hop_latency_ms_, msg);
    }
}

std::size_t Simulator::drain(SimTime until, std::size_t max_events) {
    std::size_t executed = 0;
    while (executed < max_events && !events_.empty()) {
        const Event& top = events_.top();
        if (top.time > until) break;
        // Move out before pop (the action may schedule further events):
        // priority_queue::top() is const, and the moved-from event is
        // popped at once.
        auto action = std::move(const_cast<Event&>(top).action);
        now_ = top.time;
        events_.pop();
        action();
        ++executed;
    }
    metrics_.pending_events->set(static_cast<std::int64_t>(events_.size()));
    metrics_.now_ms->set(static_cast<std::int64_t>(now_));
    return executed;
}

void Simulator::run() { drain(1e12, SIZE_MAX); }

void Simulator::run(SimTime until) {
    drain(until, SIZE_MAX);
    // The window's virtual time elapses in full even when the tail of it
    // held no events; otherwise back-to-back run() windows would skew
    // every now()-based staleness check by the idle gap.
    if (until > now_) now_ = until;
    metrics_.now_ms->set(static_cast<std::int64_t>(now_));
}

std::size_t Simulator::step(std::size_t max_events) {
    return drain(std::numeric_limits<SimTime>::infinity(), max_events);
}

}  // namespace sariadne::net
