// SimTransport — the discrete-event simulator behind the Transport seam.
// A thin forwarding adapter: every call maps 1:1 onto the net::Simulator
// API (same event order, same wire_seq assignment). The one thing it adds
// is each message's size, wire::encoded_size of its body, so
// sim.bytes_transmitted counts exact datagram bytes per hop while the
// simulator carries the typed message unencoded. Fault injection,
// mobility and topology control stay available through the simulator()
// escape hatch — the one sanctioned way for tests and benches to reach
// the concrete simulator now that DiscoveryNetwork no longer leaks it.
#pragma once

#include <memory>
#include <utility>

#include "ariadne/protocol.hpp"
#include "ariadne/transport.hpp"
#include "ariadne/wire.hpp"
#include "net/simulator.hpp"

namespace sariadne::ariadne {

class SimTransport final : public Transport {
public:
    explicit SimTransport(net::Topology topology,
                          double per_hop_latency_ms = 2.0)
        : sim_(std::make_unique<net::Simulator>(std::move(topology),
                                                per_hop_latency_ms)) {}

    /// The escape hatch: full simulator access (faults, mobility,
    /// topology mutation, stepping) for tests and benches.
    net::Simulator& simulator() noexcept { return *sim_; }
    const net::Simulator& simulator() const noexcept { return *sim_; }

    // --- Transport -------------------------------------------------------

    void set_delivery_handler(DeliveryHandler handler) override {
        sim_->set_delivery_handler(std::move(handler));
    }

    void set_metrics(obs::MetricsRegistry& registry) override {
        sim_->set_metrics(registry);
    }

    void unicast(net::NodeId from, net::NodeId to, net::Message msg) override {
        msg.size_bytes =
            static_cast<std::uint32_t>(wire::encoded_size(msg.body));
        sim_->unicast(from, to, std::move(msg));
    }

    void broadcast(net::NodeId from, std::uint32_t ttl_hops,
                   net::Message msg) override {
        msg.size_bytes =
            static_cast<std::uint32_t>(wire::encoded_size(msg.body));
        sim_->broadcast(from, ttl_hops, std::move(msg));
    }

    net::SimTime now() const override { return sim_->now(); }

    void schedule(net::SimTime delay_ms,
                  std::function<void()> action) override {
        sim_->schedule(delay_ms, std::move(action));
    }

    void run_for(net::SimTime duration_ms) override {
        sim_->run(sim_->now() + duration_ms);
    }

    bool idle() const override { return sim_->idle(); }

    std::size_t node_count() const override {
        return sim_->topology().node_count();
    }

    bool is_up(net::NodeId node) const override {
        return sim_->topology().is_up(node);
    }

    std::vector<int> hop_distances(net::NodeId from) const override {
        return sim_->topology().hop_distances(from);
    }

    bool is_infrastructure(net::NodeId node) const override {
        return sim_->topology().is_infrastructure(node);
    }

    std::size_t degree(net::NodeId node) const override {
        return sim_->topology().neighbors(node).size();
    }

private:
    std::unique_ptr<net::Simulator> sim_;
};

/// Convenience for tests/benches built on the simulator testbed: the
/// simulator behind `network`'s transport. Precondition: the network was
/// constructed over a SimTransport (the topology convenience constructor
/// guarantees that); throws std::bad_cast otherwise.
inline net::Simulator& sim(DiscoveryNetwork& network) {
    return dynamic_cast<SimTransport&>(network.transport()).simulator();
}

inline const net::Simulator& sim(const DiscoveryNetwork& network) {
    return dynamic_cast<const SimTransport&>(network.transport()).simulator();
}

}  // namespace sariadne::ariadne
