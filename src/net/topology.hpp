// Network topology for the discrete-event simulator: nodes with planar
// positions and bidirectional radio links. Two standard constructions are
// provided — a connected random geometric graph (the usual MANET model:
// nodes scattered in the unit square, linked when within radio range) and
// a grid (deterministic worst-case diameter). Nodes can go down and come
// back, modelling the churn that drives directory re-election.
//
// Route queries (hop_distance, path_cost and their per-source row forms)
// read a per-source route table. The first query from a node after a
// topology change runs one BFS (hop counts) and one Dijkstra
// (latency-weighted costs) from it and keeps both rows; later queries from
// that node read them. Every mutator that can change a route (set_up,
// add_link, rebuild_radio_links) clears the table. It holds at most an
// int and a double per node pair: n² × 12 B, 48 KiB at 64 nodes.
//
// Not thread-safe, const members included: a route query fills the table.
// One thread owns a Topology, as the single-threaded simulator does.
#pragma once

#include <cstdint>
#include <vector>

#include "ariadne/transport_types.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"

namespace sariadne::net {

struct Position {
    double x = 0;
    double y = 0;
};

class Topology {
public:
    /// Connected random geometric graph: `count` nodes uniform in the unit
    /// square, linked when within `radio_range`. Re-samples (bounded
    /// retries) until the graph is connected; grows the range slightly if
    /// connectivity cannot be reached at the requested one.
    static Topology random_geometric(std::size_t count, double radio_range,
                                     Rng& rng);

    /// width x height grid with unit spacing scaled into the unit square;
    /// 4-neighbour links.
    static Topology grid(std::size_t width, std::size_t height);

    /// Hybrid ad-hoc + infrastructure network (the paper's setting):
    /// `wireless_count` mobile nodes as a random geometric graph, plus
    /// `ap_count` mains-powered access points on a regular grid, wired to
    /// each other in a full mesh with `wired_weight`-cheap links (< 1 radio
    /// hop each) and reachable over radio from nearby mobiles. Access
    /// points occupy the first `ap_count` node ids and are flagged
    /// infrastructure.
    static Topology hybrid(std::size_t wireless_count, std::size_t ap_count,
                           double radio_range, Rng& rng,
                           double wired_weight = 0.2);

    /// True for mains-powered infrastructure nodes (access points).
    bool is_infrastructure(NodeId node) const {
        SARIADNE_EXPECTS(node < infrastructure_.size());
        return infrastructure_[node] != 0;
    }

    /// Latency-weighted distance between up-nodes (radio hop = 1.0, wired
    /// link = its weight); -1 when unreachable. This is what the
    /// simulator charges for unicasts.
    double path_cost(NodeId from, NodeId to) const;

    /// Weighted costs from `from` to every node (-1 when unreachable).
    std::vector<double> path_costs(NodeId from) const;

    std::size_t node_count() const noexcept { return adjacency_.size(); }

    const std::vector<NodeId>& neighbors(NodeId node) const {
        SARIADNE_EXPECTS(node < adjacency_.size());
        return adjacency_[node];
    }

    Position position(NodeId node) const {
        SARIADNE_EXPECTS(node < positions_.size());
        return positions_[node];
    }

    bool is_up(NodeId node) const {
        SARIADNE_EXPECTS(node < up_.size());
        return up_[node];
    }

    void set_up(NodeId node, bool up) {
        SARIADNE_EXPECTS(node < up_.size());
        up_[node] = up;
        routes_.clear();
    }

    /// Hop distance between two up-nodes through up-nodes only;
    /// -1 when unreachable.
    int hop_distance(NodeId from, NodeId to) const;

    /// Hop distances from `from` to every node (-1 when unreachable).
    std::vector<int> hop_distances(NodeId from) const;

    /// True if all up-nodes form one connected component.
    bool connected() const;

    void add_link(NodeId a, NodeId b, double weight = 1.0);

    /// Moves a node (mobility models drive this through the simulator).
    /// Links, and so routes, change only at the next rebuild_radio_links.
    void set_position(NodeId node, Position pos) {
        SARIADNE_EXPECTS(node < positions_.size());
        positions_[node] = pos;
    }

    /// Drops all radio links and re-derives them from current positions
    /// (nodes within `radio_range` link). Wired infrastructure links
    /// (weight != 1.0 between infrastructure nodes) survive — mobility
    /// never rewires the mains-powered backbone.
    void rebuild_radio_links(double radio_range);

private:
    /// One source's routes: hop counts and weighted costs to every node,
    /// -1 where unreachable. Both are empty until the row is computed.
    struct Routes {
        std::vector<int> hops;
        std::vector<double> costs;
    };

    /// The routes from `from`, computed on the first query after a change.
    const Routes& routes_from(NodeId from) const;

    std::vector<Position> positions_;
    std::vector<std::vector<NodeId>> adjacency_;
    std::vector<std::vector<double>> weights_;  // parallel to adjacency_
    std::vector<char> up_;
    std::vector<char> infrastructure_;
    mutable std::vector<Routes> routes_;  // by source; empty after a change
};

}  // namespace sariadne::net
