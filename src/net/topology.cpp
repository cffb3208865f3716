#include "net/topology.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

namespace sariadne::net {

Topology Topology::random_geometric(std::size_t count, double radio_range,
                                    Rng& rng) {
    SARIADNE_EXPECTS(count >= 1);
    SARIADNE_EXPECTS(radio_range > 0);

    double range = radio_range;
    for (int attempt = 0;; ++attempt) {
        Topology topo;
        topo.positions_.resize(count);
        topo.adjacency_.assign(count, {});
        topo.weights_.assign(count, {});
        topo.up_.assign(count, 1);
        topo.infrastructure_.assign(count, 0);
        for (auto& pos : topo.positions_) {
            pos.x = rng.uniform();
            pos.y = rng.uniform();
        }
        for (NodeId a = 0; a < count; ++a) {
            for (NodeId b = a + 1; b < count; ++b) {
                const double dx = topo.positions_[a].x - topo.positions_[b].x;
                const double dy = topo.positions_[a].y - topo.positions_[b].y;
                if (std::sqrt(dx * dx + dy * dy) <= range) {
                    topo.add_link(a, b);
                }
            }
        }
        if (topo.connected()) return topo;
        // Every 8 failed samples, widen the range 25 % — guarantees
        // termination (range √2 always connects the unit square).
        if (attempt % 8 == 7) range *= 1.25;
    }
}

Topology Topology::grid(std::size_t width, std::size_t height) {
    SARIADNE_EXPECTS(width >= 1 && height >= 1);
    Topology topo;
    const std::size_t count = width * height;
    topo.positions_.resize(count);
    topo.adjacency_.assign(count, {});
    topo.weights_.assign(count, {});
    topo.up_.assign(count, 1);
    topo.infrastructure_.assign(count, 0);
    const auto id = [width](std::size_t x, std::size_t y) {
        return static_cast<NodeId>(y * width + x);
    };
    for (std::size_t y = 0; y < height; ++y) {
        for (std::size_t x = 0; x < width; ++x) {
            topo.positions_[id(x, y)] =
                Position{static_cast<double>(x) / static_cast<double>(width),
                         static_cast<double>(y) / static_cast<double>(height)};
            if (x + 1 < width) topo.add_link(id(x, y), id(x + 1, y));
            if (y + 1 < height) topo.add_link(id(x, y), id(x, y + 1));
        }
    }
    return topo;
}

void Topology::add_link(NodeId a, NodeId b, double weight) {
    SARIADNE_EXPECTS(a < adjacency_.size() && b < adjacency_.size() && a != b);
    SARIADNE_EXPECTS(weight > 0);
    routes_.clear();
    adjacency_[a].push_back(b);
    weights_[a].push_back(weight);
    adjacency_[b].push_back(a);
    weights_[b].push_back(weight);
}

Topology Topology::hybrid(std::size_t wireless_count, std::size_t ap_count,
                          double radio_range, Rng& rng, double wired_weight) {
    SARIADNE_EXPECTS(ap_count >= 1);
    SARIADNE_EXPECTS(wired_weight > 0);
    const std::size_t count = ap_count + wireless_count;

    double range = radio_range;
    for (int attempt = 0;; ++attempt) {
        Topology topo;
        topo.positions_.resize(count);
        topo.adjacency_.assign(count, {});
        topo.weights_.assign(count, {});
        topo.up_.assign(count, 1);
        topo.infrastructure_.assign(count, 0);

        // Access points on a regular sub-grid of the unit square.
        const auto side = static_cast<std::size_t>(
            std::ceil(std::sqrt(static_cast<double>(ap_count))));
        for (NodeId ap = 0; ap < ap_count; ++ap) {
            topo.infrastructure_[ap] = 1;
            topo.positions_[ap] =
                Position{(0.5 + static_cast<double>(ap % side)) /
                             static_cast<double>(side),
                         (0.5 + static_cast<double>(ap / side)) /
                             static_cast<double>(side)};
        }
        // Wired backbone: full mesh between access points.
        for (NodeId a = 0; a < ap_count; ++a) {
            for (NodeId b = a + 1; b < ap_count; ++b) {
                topo.add_link(a, b, wired_weight);
            }
        }
        // Mobiles scattered uniformly; radio links among all nodes in range
        // (mobile-mobile and mobile-AP alike).
        for (NodeId m = static_cast<NodeId>(ap_count); m < count; ++m) {
            topo.positions_[m] = Position{rng.uniform(), rng.uniform()};
        }
        for (NodeId a = 0; a < count; ++a) {
            for (NodeId b = std::max<NodeId>(a + 1,
                                             static_cast<NodeId>(ap_count));
                 b < count; ++b) {
                const double dx = topo.positions_[a].x - topo.positions_[b].x;
                const double dy = topo.positions_[a].y - topo.positions_[b].y;
                if (std::sqrt(dx * dx + dy * dy) <= range) {
                    topo.add_link(a, b);
                }
            }
        }
        if (topo.connected()) return topo;
        if (attempt % 8 == 7) range *= 1.25;
    }
}

void Topology::rebuild_radio_links(double radio_range) {
    SARIADNE_EXPECTS(radio_range > 0);
    const std::size_t n = adjacency_.size();
    // Preserve wired links (non-unit weight between infrastructure nodes).
    std::vector<std::vector<NodeId>> kept_adj(n);
    std::vector<std::vector<double>> kept_w(n);
    for (NodeId a = 0; a < n; ++a) {
        for (std::size_t i = 0; i < adjacency_[a].size(); ++i) {
            const NodeId b = adjacency_[a][i];
            if (weights_[a][i] != 1.0 && infrastructure_[a] &&
                infrastructure_[b]) {
                kept_adj[a].push_back(b);
                kept_w[a].push_back(weights_[a][i]);
            }
        }
    }
    adjacency_ = std::move(kept_adj);
    weights_ = std::move(kept_w);
    routes_.clear();
    for (NodeId a = 0; a < n; ++a) {
        for (NodeId b = a + 1; b < n; ++b) {
            const double dx = positions_[a].x - positions_[b].x;
            const double dy = positions_[a].y - positions_[b].y;
            if (std::sqrt(dx * dx + dy * dy) <= radio_range) {
                add_link(a, b);
            }
        }
    }
}

const Topology::Routes& Topology::routes_from(NodeId from) const {
    SARIADNE_EXPECTS(from < adjacency_.size());
    const std::size_t n = adjacency_.size();
    if (routes_.empty()) routes_.resize(n);
    Routes& row = routes_[from];
    if (!row.hops.empty()) return row;
    row.hops.assign(n, -1);
    row.costs.assign(n, -1.0);
    if (!up_[from]) return row;

    // Hop counts: BFS through up-nodes.
    std::queue<NodeId> queue;
    row.hops[from] = 0;
    queue.push(from);
    while (!queue.empty()) {
        const NodeId node = queue.front();
        queue.pop();
        for (const NodeId next : adjacency_[node]) {
            if (!up_[next] || row.hops[next] != -1) continue;
            row.hops[next] = row.hops[node] + 1;
            queue.push(next);
        }
    }

    // Latency-weighted costs: Dijkstra through up-nodes.
    using Item = std::pair<double, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> frontier;
    row.costs[from] = 0.0;
    frontier.emplace(0.0, from);
    while (!frontier.empty()) {
        const auto [d, node] = frontier.top();
        frontier.pop();
        if (d > row.costs[node]) continue;  // stale entry
        for (std::size_t i = 0; i < adjacency_[node].size(); ++i) {
            const NodeId next = adjacency_[node][i];
            if (!up_[next]) continue;
            const double candidate = d + weights_[node][i];
            if (row.costs[next] < 0 || candidate < row.costs[next]) {
                row.costs[next] = candidate;
                frontier.emplace(candidate, next);
            }
        }
    }
    return row;
}

std::vector<double> Topology::path_costs(NodeId from) const {
    return routes_from(from).costs;
}

double Topology::path_cost(NodeId from, NodeId to) const {
    SARIADNE_EXPECTS(to < adjacency_.size());
    return routes_from(from).costs[to];
}

std::vector<int> Topology::hop_distances(NodeId from) const {
    return routes_from(from).hops;
}

int Topology::hop_distance(NodeId from, NodeId to) const {
    SARIADNE_EXPECTS(to < adjacency_.size());
    return routes_from(from).hops[to];
}

bool Topology::connected() const {
    NodeId start = kNoNode;
    std::size_t up_count = 0;
    for (NodeId n = 0; n < adjacency_.size(); ++n) {
        if (up_[n]) {
            ++up_count;
            if (start == kNoNode) start = n;
        }
    }
    if (up_count <= 1) return true;
    const auto dist = hop_distances(start);
    std::size_t reached = 0;
    for (NodeId n = 0; n < adjacency_.size(); ++n) {
        if (up_[n] && dist[n] >= 0) ++reached;
    }
    return reached == up_count;
}

}  // namespace sariadne::net
