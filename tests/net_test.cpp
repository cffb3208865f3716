#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "ariadne/wire.hpp"
#include "net/sim_transport.hpp"
#include "net/simulator.hpp"
#include "net/topology.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace sariadne::net {
namespace {

namespace wire = ariadne::wire;

TEST(Topology, GridStructure) {
    const Topology topo = Topology::grid(4, 3);
    EXPECT_EQ(topo.node_count(), 12u);
    EXPECT_EQ(topo.neighbors(0).size(), 2u);   // corner
    EXPECT_EQ(topo.neighbors(1).size(), 3u);   // edge
    EXPECT_EQ(topo.neighbors(5).size(), 4u);   // interior
    EXPECT_TRUE(topo.connected());
}

TEST(Topology, GridHopDistanceIsManhattan) {
    const Topology topo = Topology::grid(5, 5);
    EXPECT_EQ(topo.hop_distance(0, 24), 8);  // (0,0) -> (4,4)
    EXPECT_EQ(topo.hop_distance(0, 0), 0);
    EXPECT_EQ(topo.hop_distance(0, 4), 4);
}

TEST(Topology, RandomGeometricIsConnected) {
    Rng rng(123);
    for (int trial = 0; trial < 5; ++trial) {
        const Topology topo = Topology::random_geometric(30, 0.25, rng);
        EXPECT_EQ(topo.node_count(), 30u);
        EXPECT_TRUE(topo.connected());
    }
}

TEST(Topology, NodeChurnAffectsReachability) {
    Topology topo = Topology::grid(3, 1);  // 0 - 1 - 2
    EXPECT_EQ(topo.hop_distance(0, 2), 2);
    topo.set_up(1, false);
    EXPECT_EQ(topo.hop_distance(0, 2), -1);
    EXPECT_FALSE(topo.connected());
    topo.set_up(1, true);
    EXPECT_EQ(topo.hop_distance(0, 2), 2);
}

TEST(Topology, DistancesFromDownNodeAreUnreachable) {
    Topology topo = Topology::grid(2, 2);
    topo.set_up(0, false);
    const auto dist = topo.hop_distances(0);
    for (const int d : dist) EXPECT_EQ(d, -1);
}

/// An independent model of a Topology's links and liveness: the test keeps
/// its own edge list, mirrors each mutation into it, and computes every
/// route with Floyd–Warshall.
struct RouteModel {
    struct Edge {
        NodeId a;
        NodeId b;
        double weight;
    };
    std::vector<Edge> edges;
    std::vector<char> up;
    std::vector<std::vector<int>> hops;
    std::vector<std::vector<double>> costs;

    /// Reads the initial links from `topo`: wired access-point links
    /// carry `wired_weight`, every other link is one radio hop.
    RouteModel(const Topology& topo, double wired_weight)
        : up(topo.node_count(), 1) {
        for (NodeId a = 0; a < topo.node_count(); ++a) {
            for (const NodeId b : topo.neighbors(a)) {
                if (a >= b) continue;
                const bool wired =
                    topo.is_infrastructure(a) && topo.is_infrastructure(b);
                edges.push_back({a, b, wired ? wired_weight : 1.0});
            }
        }
    }

    /// Mirrors rebuild_radio_links: wired links between access points
    /// survive; radio links are re-derived from positions.
    void rebuild(const Topology& topo, double radio_range) {
        std::erase_if(edges, [&](const Edge& e) {
            return e.weight == 1.0 || !topo.is_infrastructure(e.a) ||
                   !topo.is_infrastructure(e.b);
        });
        for (NodeId a = 0; a < topo.node_count(); ++a) {
            for (NodeId b = a + 1; b < topo.node_count(); ++b) {
                const double dx = topo.position(a).x - topo.position(b).x;
                const double dy = topo.position(a).y - topo.position(b).y;
                if (std::sqrt(dx * dx + dy * dy) <= radio_range) {
                    edges.push_back({a, b, 1.0});
                }
            }
        }
    }

    void solve() {
        const std::size_t n = up.size();
        constexpr int kNoHops = 1 << 28;
        constexpr double kNoCost = 1e18;
        hops.assign(n, std::vector<int>(n, kNoHops));
        costs.assign(n, std::vector<double>(n, kNoCost));
        for (NodeId v = 0; v < n; ++v) {
            if (!up[v]) continue;
            hops[v][v] = 0;
            costs[v][v] = 0.0;
        }
        for (const Edge& e : edges) {
            if (!up[e.a] || !up[e.b]) continue;
            hops[e.a][e.b] = hops[e.b][e.a] = 1;
            const double w = std::min(costs[e.a][e.b], e.weight);
            costs[e.a][e.b] = costs[e.b][e.a] = w;
        }
        for (NodeId k = 0; k < n; ++k) {
            for (NodeId i = 0; i < n; ++i) {
                for (NodeId j = 0; j < n; ++j) {
                    hops[i][j] = std::min(hops[i][j], hops[i][k] + hops[k][j]);
                    costs[i][j] =
                        std::min(costs[i][j], costs[i][k] + costs[k][j]);
                }
            }
        }
        for (NodeId i = 0; i < n; ++i) {
            for (NodeId j = 0; j < n; ++j) {
                if (hops[i][j] >= kNoHops) hops[i][j] = -1;
                if (costs[i][j] >= kNoCost) costs[i][j] = -1.0;
            }
        }
    }
};

/// Checks all four route queries of `topo` against the model. `lead`
/// picks which query kind runs first, so each kind in turn is the one
/// that meets the table right after a mutation.
void expect_routes_match(const Topology& topo, RouteModel& model, int lead,
                         const std::string& where) {
    SCOPED_TRACE(where);
    model.solve();
    const std::size_t n = topo.node_count();
    for (NodeId from = 0; from < n; ++from) {
        for (int q = 0; q < 4; ++q) {
            switch ((lead + q) % 4) {
                case 0:
                    for (NodeId to = 0; to < n; ++to) {
                        ASSERT_EQ(topo.hop_distance(from, to),
                                  model.hops[from][to])
                            << from << " -> " << to;
                    }
                    break;
                case 1:
                    for (NodeId to = 0; to < n; ++to) {
                        ASSERT_NEAR(topo.path_cost(from, to),
                                    model.costs[from][to], 1e-9)
                            << from << " -> " << to;
                    }
                    break;
                case 2:
                    ASSERT_EQ(topo.hop_distances(from), model.hops[from])
                        << "from " << from;
                    break;
                default: {
                    const std::vector<double> costs = topo.path_costs(from);
                    ASSERT_EQ(costs.size(), n);
                    for (NodeId to = 0; to < n; ++to) {
                        ASSERT_NEAR(costs[to], model.costs[from][to], 1e-9)
                            << from << " -> " << to;
                    }
                }
            }
        }
    }
}

/// A seeded mix of liveness toggles, extra weighted links and moves
/// followed by radio rebuilds. Routes are read before each mutation, so a
/// table that survived the mutation would be read stale after it.
void run_route_differential(Topology topo, double radio_range,
                            double wired_weight, std::uint64_t seed) {
    RouteModel model(topo, wired_weight);
    Rng rng(seed);
    const std::size_t n = topo.node_count();
    const auto any_node = [&] { return static_cast<NodeId>(rng.below(n)); };
    for (int step = 0; step < 60; ++step) {
        expect_routes_match(topo, model, step, "before step " +
                                                   std::to_string(step));
        if (testing::Test::HasFatalFailure()) return;
        switch (rng.below(3)) {
            case 0: {
                const NodeId node = any_node();
                const bool up = !topo.is_up(node);
                topo.set_up(node, up);
                model.up[node] = up ? 1 : 0;
                break;
            }
            case 1: {
                const NodeId a = any_node();
                NodeId b = any_node();
                if (b == a) b = static_cast<NodeId>((a + 1) % n);
                const double weight = 0.05 + 1.95 * rng.uniform();
                topo.add_link(a, b, weight);
                model.edges.push_back({a, b, weight});
                break;
            }
            default: {
                const NodeId node = any_node();
                topo.set_position(node, Position{rng.uniform(), rng.uniform()});
                topo.rebuild_radio_links(radio_range);
                model.rebuild(topo, radio_range);
            }
        }
    }
    expect_routes_match(topo, model, 0, "after the last step");
}

TEST(Topology, RoutesMatchFloydWarshallAcrossMutations) {
    run_route_differential(Topology::grid(5, 4), /*radio_range=*/0.26, 1.0,
                           0x6121D);
    Rng geometric(77);
    run_route_differential(Topology::random_geometric(24, 0.3, geometric),
                           0.3, 1.0, 0x6E0);
    Rng hybrid(78);
    run_route_differential(Topology::hybrid(20, 4, 0.3, hybrid, 0.2), 0.3,
                           0.2, 0x4B1D);
}

TEST(Topology, MoveThenRebuildReroutes) {
    Topology topo = Topology::grid(3, 1);  // 0 - 1 - 2 at x = 0, 1/3, 2/3
    topo.rebuild_radio_links(0.5);
    EXPECT_EQ(topo.hop_distance(0, 2), 2);
    topo.set_position(2, Position{0.1, 0.0});
    EXPECT_EQ(topo.hop_distance(0, 2), 2);  // links follow the rebuild
    topo.rebuild_radio_links(0.5);
    EXPECT_EQ(topo.hop_distance(0, 2), 1);
    EXPECT_DOUBLE_EQ(topo.path_cost(0, 2), 1.0);
    // A rebuild that links nothing still drops the old routes.
    topo.rebuild_radio_links(0.05);
    EXPECT_EQ(topo.hop_distance(0, 2), -1);
    EXPECT_LT(topo.path_cost(0, 2), 0);
}

/// The simulator's delivery handler for a test: what each node received,
/// as (arrival time, message type).
struct Recorder {
    explicit Recorder(Simulator& sim)
        : received(sim.topology().node_count()) {
        sim.set_delivery_handler([this, &sim](NodeId self, const Message& msg) {
            received[self].emplace_back(sim.now(),
                                        wire::to_string(msg.body.type));
        });
    }
    std::vector<std::vector<std::pair<SimTime, std::string>>> received;
};

TEST(Simulator, EventsRunInTimeOrder) {
    Simulator sim(Topology::grid(1, 1));
    std::vector<int> order;
    sim.schedule(30, [&] { order.push_back(3); });
    sim.schedule(10, [&] { order.push_back(1); });
    sim.schedule(20, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(sim.now(), 30.0);
}

TEST(Simulator, TiesBreakInScheduleOrder) {
    Simulator sim(Topology::grid(1, 1));
    std::vector<int> order;
    sim.schedule(5, [&] { order.push_back(1); });
    sim.schedule(5, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, UnicastLatencyScalesWithHops) {
    Simulator sim(Topology::grid(4, 1), /*per_hop_latency_ms=*/3.0);
    Recorder recorder(sim);
    const auto& received = recorder.received[3];
    Message msg = make_message(wire::SummaryPull{});
    sim.unicast(0, 3, std::move(msg));
    sim.run();
    ASSERT_EQ(received.size(), 1u);
    EXPECT_DOUBLE_EQ(received[0].first, 9.0);  // 3 hops x 3 ms
    EXPECT_EQ(sim.stats().unicasts, 1u);
    EXPECT_EQ(sim.stats().link_transmissions, 3u);
}

TEST(Simulator, UnreachableUnicastIsDropped) {
    Topology topo = Topology::grid(3, 1);
    topo.set_up(1, false);
    Simulator sim(std::move(topo));
    Recorder recorder(sim);
    const auto& received = recorder.received[2];
    Message msg = make_message(wire::SummaryPull{});
    sim.unicast(0, 2, std::move(msg));
    sim.run();
    EXPECT_TRUE(received.empty());
    EXPECT_EQ(sim.stats().dropped_unreachable, 1u);
}

TEST(Simulator, BroadcastRespectsTtl) {
    Simulator sim(Topology::grid(5, 1), 1.0);  // 0-1-2-3-4
    Recorder recorder(sim);
    Message msg = make_message(wire::DirAdv{});
    sim.broadcast(0, /*ttl_hops=*/2, std::move(msg));
    sim.run();
    EXPECT_TRUE(recorder.received[0].empty());  // sender excluded
    EXPECT_EQ(recorder.received[1].size(), 1u);
    EXPECT_EQ(recorder.received[2].size(), 1u);
    EXPECT_TRUE(recorder.received[3].empty());
    EXPECT_TRUE(recorder.received[4].empty());
    EXPECT_DOUBLE_EQ(recorder.received[2][0].first, 2.0);
}

TEST(Simulator, MessageToDownNodeNotDelivered) {
    Topology topo = Topology::grid(2, 1);
    Simulator sim(std::move(topo));
    Recorder recorder(sim);
    const auto& received = recorder.received[1];
    Message msg = make_message(wire::SummaryPull{});
    sim.unicast(0, 1, std::move(msg));
    sim.topology().set_up(1, false);  // goes down while in flight
    sim.run();
    EXPECT_TRUE(received.empty());
}

TEST(Simulator, SelfUnicastDeliversImmediately) {
    Simulator sim(Topology::grid(2, 1));
    Recorder recorder(sim);
    const auto& received = recorder.received[0];
    Message msg = make_message(wire::SummaryPull{});
    sim.unicast(0, 0, std::move(msg));
    sim.run();
    ASSERT_EQ(received.size(), 1u);
    EXPECT_DOUBLE_EQ(received[0].first, 0.0);
}

TEST(Simulator, RunUntilBoundsVirtualTime) {
    Simulator sim(Topology::grid(1, 1));
    int fired = 0;
    sim.schedule(10, [&] { ++fired; });
    sim.schedule(100, [&] { ++fired; });
    sim.run(50);
    EXPECT_EQ(fired, 1);
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockThroughQuietWindows) {
    Simulator sim(Topology::grid(1, 1));
    int fired = 0;
    sim.schedule(10, [&] { ++fired; });
    sim.run(50);
    EXPECT_EQ(fired, 1);
    // The clock lands on the window edge, not on the last executed event,
    // so now()-relative deadlines see contiguous time across windows.
    EXPECT_DOUBLE_EQ(sim.now(), 50.0);
    sim.run(70);  // an entirely quiet window still advances time
    EXPECT_DOUBLE_EQ(sim.now(), 70.0);
}

TEST(Simulator, BackToBackWindowsTileLikeOneRun) {
    const auto count_fires = [](Simulator& sim,
                                std::initializer_list<SimTime> stops) {
        int fired = 0;
        std::function<void()> tick;
        tick = [&sim, &fired, &tick] {
            ++fired;
            sim.schedule(7, tick);
        };
        sim.schedule(7, tick);
        for (const SimTime until : stops) sim.run(until);
        return fired;
    };
    Simulator tiled(Topology::grid(1, 1));
    Simulator single(Topology::grid(1, 1));
    EXPECT_EQ(count_fires(tiled, {30, 60, 90}), count_fires(single, {90}));
    EXPECT_DOUBLE_EQ(tiled.now(), 90.0);
    EXPECT_DOUBLE_EQ(single.now(), 90.0);
}

TEST(Simulator, StepExecutesBoundedEvents) {
    Simulator sim(Topology::grid(1, 1));
    int fired = 0;
    for (int i = 0; i < 5; ++i) sim.schedule(i, [&] { ++fired; });
    EXPECT_EQ(sim.step(2), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(sim.idle());
    EXPECT_EQ(sim.step(100), 3u);
    EXPECT_TRUE(sim.idle());
}

TEST(Simulator, StepRefreshesClockGauges) {
    obs::MetricsRegistry registry;
    Simulator sim(Topology::grid(1, 1));
    sim.set_metrics(registry);
    for (int i = 1; i <= 5; ++i) sim.schedule(10.0 * i, [] {});
    EXPECT_EQ(sim.step(2), 2u);
    EXPECT_EQ(registry.gauge_value(obs::names::kSimPendingEvents), 3);
    EXPECT_EQ(registry.gauge_value(obs::names::kSimNowMs), 20);
}

/// A default payload of every wire::Payload alternative, in wire-id order.
template <std::size_t... Index>
std::vector<wire::Payload> every_payload(std::index_sequence<Index...>) {
    return {wire::Payload(std::in_place_index<Index>)...};
}

TEST(Simulator, TrafficAccountingByType) {
    Simulator sim(Topology::grid(3, 1));
    Message a = make_message(wire::PubAck{});
    a.size_bytes = 100;
    sim.unicast(0, 2, std::move(a));
    sim.broadcast(1, 1, make_message(wire::DirAdv{}));
    sim.run();
    EXPECT_EQ(sim.stats().per_type.size(), 2u);  // only the types delivered
    EXPECT_EQ(sim.stats().per_type.at("pub-ack"), 1u);
    EXPECT_EQ(sim.stats().per_type.at("dir-adv"), 2u);
    EXPECT_EQ(sim.stats().bytes_transmitted, 200u);  // 2 hops x 100 bytes

    // One delivery of every message type is counted once under that
    // type's own name, in stats() and in the registry alike.
    Simulator each(Topology::grid(2, 1));
    for (wire::Payload& payload :
         every_payload(std::make_index_sequence<wire::kMsgTypeCount>{})) {
        each.unicast(0, 1, make_message(std::move(payload)));
    }
    each.run();
    const TrafficStats stats = each.stats();
    EXPECT_EQ(stats.deliveries, wire::kMsgTypeCount);
    EXPECT_EQ(stats.per_type.size(), wire::kMsgTypeCount);
    for (std::size_t id = 1; id <= wire::kMsgTypeCount; ++id) {
        const char* type = wire::to_string(static_cast<wire::MsgType>(id));
        EXPECT_EQ(stats.per_type.count(type) ? stats.per_type.at(type) : 0,
                  1u)
            << type;
        EXPECT_EQ(each.metrics().counter_value(
                      obs::names::sim_deliveries_by_type(type)),
                  1u)
            << type;
    }

    // Over a SimTransport every message is charged its exact datagram
    // size per hop: a unicast once per hop, a broadcast once per covered
    // node.
    ariadne::SimTransport transport(Topology::grid(4, 1));  // 0-1-2-3
    const Simulator& inner = transport.simulator();
    const Message request = make_message(wire::Request{7, 0, "<request/>"});
    const std::uint64_t request_bytes = wire::encode(request.body).size();
    transport.unicast(0, 3, request);
    EXPECT_EQ(inner.stats().bytes_transmitted, 3 * request_bytes);
    const Message adv = make_message(wire::DirAdv{1});
    const std::uint64_t adv_bytes = wire::encode(adv.body).size();
    transport.broadcast(1, /*ttl_hops=*/2, adv);  // covers 0, 2 and 3
    EXPECT_EQ(inner.stats().bytes_transmitted,
              3 * request_bytes + 3 * adv_bytes);
    transport.run_for(100);
    EXPECT_EQ(inner.stats().per_type.at("req"), 1u);
    EXPECT_EQ(inner.stats().per_type.at("dir-adv"), 3u);
}

/// Like Recorder, keeping each delivery's wire sequence id.
struct WireRecorder {
    struct Entry {
        SimTime at;
        std::string type;
        std::uint64_t wire_seq;
    };

    explicit WireRecorder(Simulator& sim)
        : received(sim.topology().node_count()) {
        sim.set_delivery_handler([this, &sim](NodeId self, const Message& msg) {
            received[self].push_back(
                {sim.now(), wire::to_string(msg.body.type), msg.wire_seq});
        });
    }
    std::vector<std::vector<Entry>> received;
};

TEST(Faults, TotalLossDropsEveryDelivery) {
    Simulator sim(Topology::grid(3, 1));
    Recorder recorder(sim);
    const auto& received = recorder.received[2];
    FaultPlan plan;
    plan.loss_probability = 1.0;
    sim.set_faults(std::move(plan));
    for (int i = 0; i < 5; ++i) {
        Message msg = make_message(wire::SummaryPull{});
        sim.unicast(0, 2, std::move(msg));
    }
    sim.run();
    EXPECT_TRUE(received.empty());
    EXPECT_EQ(sim.stats().faults_dropped, 5u);
    // The send itself still happened and was accounted as traffic.
    EXPECT_EQ(sim.stats().unicasts, 5u);
}

TEST(Faults, DuplicationEchoesWithSameWireSeq) {
    Simulator sim(Topology::grid(2, 1));
    WireRecorder recorder(sim);
    const auto& received = recorder.received[1];
    FaultPlan plan;
    plan.duplication_probability = 1.0;
    sim.set_faults(std::move(plan));
    Message msg = make_message(wire::SummaryPull{});
    sim.unicast(0, 1, std::move(msg));
    sim.run();
    ASSERT_EQ(received.size(), 2u);
    EXPECT_EQ(sim.stats().faults_duplicated, 1u);
    // The echo is byte-identical: same wire sequence id, so receivers can
    // dedup it; it arrives strictly after the original.
    EXPECT_NE(received[0].wire_seq, 0u);
    EXPECT_EQ(received[0].wire_seq, received[1].wire_seq);
    EXPECT_GT(received[1].at, received[0].at);
}

TEST(Faults, JitterDelaysButStillDelivers) {
    Simulator sim(Topology::grid(2, 1), /*per_hop_latency_ms=*/5.0);
    Recorder recorder(sim);
    const auto& received = recorder.received[1];
    FaultPlan plan;
    plan.latency_jitter_ms = 50.0;
    sim.set_faults(std::move(plan));
    Message msg = make_message(wire::SummaryPull{});
    sim.unicast(0, 1, std::move(msg));
    sim.run();
    ASSERT_EQ(received.size(), 1u);
    EXPECT_GE(received[0].first, 5.0);
    EXPECT_LE(received[0].first, 55.0);
}

TEST(Faults, CrashWindowTakesNodeDownThenRecovers) {
    Simulator sim(Topology::grid(2, 1), 1.0);
    Recorder recorder(sim);
    const auto& received = recorder.received[1];
    FaultPlan plan;
    plan.crashes.push_back({1, /*down_at=*/10.0, /*up_at=*/100.0});
    sim.set_faults(std::move(plan));
    sim.schedule(50, [&] {  // mid-window: receiver is down
        EXPECT_FALSE(sim.topology().is_up(1));
        Message msg = make_message(wire::ElectCall{});
        sim.unicast(0, 1, std::move(msg));
    });
    sim.schedule(200, [&] {  // after the window: recovered
        EXPECT_TRUE(sim.topology().is_up(1));
        Message msg = make_message(wire::ElectAppoint{});
        sim.unicast(0, 1, std::move(msg));
    });
    sim.run();
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].second, "elect-appoint");
    EXPECT_EQ(sim.stats().faults_crashes, 1u);
    EXPECT_EQ(sim.stats().faults_recoveries, 1u);
}

TEST(Faults, DropHookFiltersByPredicate) {
    Simulator sim(Topology::grid(2, 1));
    Recorder recorder(sim);
    const auto& received = recorder.received[1];
    FaultPlan plan;
    plan.drop = [](NodeId, NodeId, const Message& msg) {
        return msg.body.type == wire::MsgType::kPubNack;
    };
    sim.set_faults(std::move(plan));
    sim.unicast(0, 1, make_message(wire::PubNack{}));
    sim.unicast(0, 1, make_message(wire::PubAck{}));
    sim.run();
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].second, "pub-ack");
    EXPECT_EQ(sim.stats().faults_dropped, 1u);
}

TEST(Faults, LoopbackBypassesFaultInjection) {
    Simulator sim(Topology::grid(2, 1));
    Recorder recorder(sim);
    const auto& received = recorder.received[0];
    FaultPlan plan;
    plan.loss_probability = 1.0;
    sim.set_faults(std::move(plan));
    Message msg = make_message(wire::SummaryPull{});
    sim.unicast(0, 0, std::move(msg));
    sim.run();
    // A node talking to itself never crosses the radio: faults don't apply.
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(sim.stats().faults_dropped, 0u);
}

TEST(Faults, SameSeedReplaysIdenticalTraffic) {
    const auto run_once = [](std::uint64_t seed) {
        Simulator sim(Topology::grid(4, 1), 1.0);
        FaultPlan plan;
        plan.seed = seed;
        plan.loss_probability = 0.3;
        plan.duplication_probability = 0.2;
        plan.latency_jitter_ms = 10.0;
        sim.set_faults(std::move(plan));
        for (int i = 0; i < 50; ++i) {
            Message msg = make_message(wire::SummaryPull{});
            msg.size_bytes = 16;
            sim.unicast(static_cast<NodeId>(i % 4),
                        static_cast<NodeId>((i + 3) % 4), std::move(msg));
        }
        sim.run();
        return sim.stats();
    };
    const TrafficStats a = run_once(42);
    const TrafficStats b = run_once(42);
    const TrafficStats c = run_once(43);
    EXPECT_EQ(a, b);           // identical seed -> identical run
    EXPECT_FALSE(a == c);      // different seed -> different faults
    EXPECT_GT(a.faults_dropped, 0u);
    EXPECT_GT(a.faults_duplicated, 0u);
}

TEST(Faults, InertPlanChangesNothing) {
    const auto run_once = [](bool install_inert_plan) {
        Simulator sim(Topology::grid(3, 1), 2.0);
        if (install_inert_plan) sim.set_faults(FaultPlan{});
        for (int i = 0; i < 20; ++i) {
            Message msg = make_message(wire::SummaryPull{});
            msg.size_bytes = 8;
            sim.unicast(0, 2, std::move(msg));
        }
        Message adv = make_message(wire::DirAdv{});
        sim.broadcast(1, 1, std::move(adv));
        sim.run();
        return sim.stats();
    };
    const TrafficStats with_plan = run_once(true);
    const TrafficStats without_plan = run_once(false);
    EXPECT_EQ(with_plan, without_plan);
    EXPECT_EQ(with_plan.faults_dropped, 0u);
    EXPECT_EQ(with_plan.faults_duplicated, 0u);
}

}  // namespace
}  // namespace sariadne::net
