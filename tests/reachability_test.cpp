// Differential tests for the CapabilityDag reachability bitsets
// (DESIGN.md §12): bitset is_reachable pinned against BFS over the edge
// lists, splice-edge suppression pinned against a freshly rebuilt DAG
// (the transitive reduction of a fixed Match relation is unique, so a
// churned graph and a from-scratch rebuild must have identical edge
// sets), across crafted diamonds and randomized insert/remove sequences
// that exercise free-list slot reuse.
#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "directory/dag.hpp"
#include "directory/dag_index.hpp"
#include "matching/oracles.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "test_helpers.hpp"
#include "workload/ontology_gen.hpp"
#include "workload/service_gen.hpp"

namespace sariadne::directory {
namespace {

namespace th = sariadne::testing;
using desc::ResolvedCapability;

/// Live vertex ids of a DAG via the public API: every vertex is reachable
/// from some root (a parentless vertex is itself a root).
std::vector<VertexId> live_vertices(const CapabilityDag& dag) {
    std::vector<VertexId> order = dag.root_ids();
    std::set<VertexId> seen(order.begin(), order.end());
    for (std::size_t i = 0; i < order.size(); ++i) {
        for (const VertexId child : dag.children(order[i])) {
            if (seen.insert(child).second) order.push_back(child);
        }
    }
    return order;
}

/// Ground-truth reachability from `from` by BFS over the children lists.
std::set<VertexId> bfs_reach(const CapabilityDag& dag, VertexId from) {
    std::vector<VertexId> frontier{from};
    std::set<VertexId> reach{from};
    while (!frontier.empty()) {
        const VertexId v = frontier.back();
        frontier.pop_back();
        for (const VertexId child : dag.children(v)) {
            if (reach.insert(child).second) frontier.push_back(child);
        }
    }
    return reach;
}

/// Asserts is_reachable agrees with BFS for every live ordered pair.
void expect_bitsets_match_bfs(const CapabilityDag& dag) {
    const std::vector<VertexId> live = live_vertices(dag);
    for (const VertexId u : live) {
        const std::set<VertexId> reach = bfs_reach(dag, u);
        for (const VertexId v : live) {
            EXPECT_EQ(dag.is_reachable(u, v), reach.count(v) != 0)
                << "is_reachable(" << u << ", " << v << ") disagrees with BFS";
        }
    }
}

/// Canonical vertex label: the sorted (service, capability-name) entries.
/// Unique per vertex, stable across insert orders and slot assignments.
std::string vertex_label(const CapabilityDag& dag, VertexId v) {
    std::vector<std::string> parts;
    for (const DagEntry& entry : dag.entries(v)) {
        parts.push_back(std::to_string(entry.service) + "#" +
                        entry.capability.name);
    }
    std::sort(parts.begin(), parts.end());
    std::string label;
    for (const std::string& part : parts) {
        label += part;
        label += ",";
    }
    return label;
}

/// Canonical edge set of every DAG in an index, as "u-label>v-label"
/// strings. Two indexes over the same live content must produce the same
/// set: the DAG edge set is the unique transitive reduction of Match.
std::set<std::string> canonical_edges(const DagIndex& index) {
    std::set<std::string> edges;
    index.for_each_dag([&](const CapabilityDag& dag) {
        for (const VertexId u : live_vertices(dag)) {
            for (const VertexId v : dag.children(u)) {
                edges.insert(vertex_label(dag, u) + ">" + vertex_label(dag, v));
            }
        }
    });
    return edges;
}

class ReachabilityFixture : public ::testing::Test {
protected:
    ReachabilityFixture() : oracle_(kb_) {
        kb_.register_ontology(th::media_ontology());
        kb_.register_ontology(th::server_ontology());
    }

    ResolvedCapability resolve(const desc::Capability& cap) {
        return desc::resolve_capability(cap, kb_.registry(), "svc");
    }

    /// A capability between th::send_digital_stream() (category
    /// DigitalServer, input DigitalResource) and the fully specific
    /// (VideoServer, VideoResource) corner, narrowed along one axis.
    desc::Capability narrowed(const char* name, const char* category,
                              const char* input) {
        desc::Capability cap = th::send_digital_stream();
        cap.name = name;
        cap.category_qname = th::server(category);
        cap.inputs[0].concept_qname = th::media(input);
        return cap;
    }

    encoding::KnowledgeBase kb_;
    matching::EncodedOracle oracle_;
    MatchStats stats_;
};

TEST_F(ReachabilityFixture, RemoveSuppressesRedundantSpliceEdges) {
    // Diamond: generic covers two incomparable middles (one narrows the
    // category, one the input), both cover the specific corner.
    CapabilityDag dag(FlatSet<onto::OntologyIndex>{0, 1});
    dag.insert(DagEntry{resolve(narrowed("generic", "DigitalServer",
                                         "DigitalResource")),
                        1},
               oracle_, stats_);
    dag.insert(DagEntry{resolve(narrowed("m1", "MediaServer",
                                         "DigitalResource")),
                        2},
               oracle_, stats_);
    dag.insert(DagEntry{resolve(narrowed("m2", "DigitalServer",
                                         "VideoResource")),
                        3},
               oracle_, stats_);
    dag.insert(DagEntry{resolve(narrowed("specific", "VideoServer",
                                         "VideoResource")),
                        4},
               oracle_, stats_);
    ASSERT_EQ(dag.vertex_count(), 4u);
    ASSERT_TRUE(dag.validate(oracle_));
    const auto roots = dag.root_ids();
    ASSERT_EQ(roots.size(), 1u);
    ASSERT_EQ(dag.children(roots[0]).size(), 2u);

    // Removing m1 splices generic → specific — but generic still reaches
    // specific through m2, so the splice edge must be suppressed.
    EXPECT_EQ(dag.remove_service(2), 1u);
    EXPECT_EQ(dag.vertex_count(), 3u);
    EXPECT_TRUE(dag.validate(oracle_));
    ASSERT_EQ(dag.children(roots[0]).size(), 1u);
    const VertexId m2 = dag.children(roots[0])[0];
    EXPECT_EQ(dag.entries(m2).front().capability.name, "m2");
    ASSERT_EQ(dag.children(m2).size(), 1u);
    EXPECT_TRUE(dag.is_reachable(roots[0], dag.children(m2)[0]));
    expect_bitsets_match_bfs(dag);

    // With the alternate path gone too, the splice edge IS needed.
    EXPECT_EQ(dag.remove_service(3), 1u);
    EXPECT_TRUE(dag.validate(oracle_));
    ASSERT_EQ(dag.children(roots[0]).size(), 1u);
    EXPECT_EQ(dag.entries(dag.children(roots[0])[0]).front().capability.name,
              "specific");
    expect_bitsets_match_bfs(dag);
}

TEST_F(ReachabilityFixture, FreeSlotReuseKeepsClosureExact) {
    CapabilityDag dag(FlatSet<onto::OntologyIndex>{0, 1});
    dag.insert(DagEntry{resolve(narrowed("generic", "DigitalServer",
                                         "DigitalResource")),
                        1},
               oracle_, stats_);
    dag.insert(DagEntry{resolve(narrowed("middle", "MediaServer",
                                         "DigitalResource")),
                        2},
               oracle_, stats_);
    dag.insert(DagEntry{resolve(narrowed("specific", "VideoServer",
                                         "VideoResource")),
                        3},
               oracle_, stats_);
    ASSERT_EQ(dag.vertex_count(), 3u);
    ASSERT_EQ(dag.entry_count(), 3u);

    // Kill the interior vertex, then refill its slot with a capability
    // that wires in at a different position.
    EXPECT_EQ(dag.remove_service(2), 1u);
    EXPECT_EQ(dag.vertex_count(), 2u);
    EXPECT_TRUE(dag.validate(oracle_));
    dag.insert(DagEntry{resolve(narrowed("refill", "DigitalServer",
                                         "VideoResource")),
                        4},
               oracle_, stats_);
    EXPECT_EQ(dag.vertex_count(), 3u);
    EXPECT_EQ(dag.entry_count(), 3u);
    EXPECT_FALSE(dag.empty());
    EXPECT_TRUE(dag.validate(oracle_));
    expect_bitsets_match_bfs(dag);

    // Drain completely: the counters must hit zero without scanning.
    EXPECT_EQ(dag.remove_service(1), 1u);
    EXPECT_EQ(dag.remove_service(3), 1u);
    EXPECT_EQ(dag.remove_service(4), 1u);
    EXPECT_TRUE(dag.empty());
    EXPECT_EQ(dag.vertex_count(), 0u);
    EXPECT_EQ(dag.entry_count(), 0u);
    EXPECT_TRUE(dag.validate(oracle_));
}

TEST(ReachabilityChurn, RandomizedChurnMatchesBfsAndFreshRebuild) {
    // Generated workload over a richer ontology universe: interleave
    // publishes and removals (heavy slot reuse), checking after every
    // wave that the bitsets agree with BFS and every structural
    // invariant (incl. no transitively redundant edges) holds; at the
    // end the churned index's edge sets must equal those of an index
    // built from scratch over the survivors.
    workload::OntologyGenConfig config;
    config.class_count = 20;
    workload::ServiceWorkload workload(
        workload::generate_universe(10, config, 97));
    encoding::KnowledgeBase kb;
    for (const auto& o : workload.ontologies()) kb.register_ontology(o);
    matching::EncodedOracle oracle(kb);
    MatchStats stats;
    SplitMix64 rng(4242);

    obs::Counter contention;
    DagIndex index(contention);
    std::vector<std::pair<ServiceId, std::size_t>> live;  // id, stream index
    std::size_t next_stream = 0;
    ServiceId next_id = 1;
    for (int wave = 0; wave < 8; ++wave) {
        for (int k = 0; k < 30; ++k) {
            const desc::ServiceDescription service =
                workload.service(next_stream);
            const ServiceId id = next_id++;
            for (auto& cap : desc::resolve_provided(service, kb)) {
                index.insert(DagEntry{std::move(cap), id}, oracle, stats);
            }
            live.emplace_back(id, next_stream);
            ++next_stream;
        }
        for (int k = 0; k < 12 && !live.empty(); ++k) {
            const std::size_t pick = rng.next() % live.size();
            index.remove_service(live[pick].first);
            live[pick] = live.back();
            live.pop_back();
        }
        index.for_each_dag([&](const CapabilityDag& dag) {
            EXPECT_TRUE(dag.validate(oracle)) << "wave " << wave;
            expect_bitsets_match_bfs(dag);
        });
    }

    DagIndex fresh(contention);
    for (const auto& [id, stream_index] : live) {
        const desc::ServiceDescription service =
            workload.service(stream_index);
        for (auto& cap : desc::resolve_provided(service, kb)) {
            fresh.insert(DagEntry{std::move(cap), id}, oracle, stats);
        }
    }
    EXPECT_EQ(canonical_edges(index), canonical_edges(fresh));
    EXPECT_EQ(index.entry_count(), fresh.entry_count());
}

TEST(ReachabilityChurn, BatchInsertMatchesSequentialInsert) {
    // insert_batch (shard-sorted, generality-first) must converge to the
    // same unique transitive reduction as one-at-a-time inserts.
    workload::OntologyGenConfig config;
    config.class_count = 16;
    workload::ServiceWorkload workload(
        workload::generate_universe(8, config, 55));
    encoding::KnowledgeBase kb;
    for (const auto& o : workload.ontologies()) kb.register_ontology(o);
    matching::EncodedOracle oracle(kb);
    MatchStats stats;

    obs::Counter contention;
    DagIndex sequential(contention);
    DagIndex batched(contention);
    std::vector<DagEntry> entries;
    for (std::size_t i = 0; i < 80; ++i) {
        const desc::ServiceDescription service = workload.service(i);
        const ServiceId id = static_cast<ServiceId>(i + 1);
        for (auto& cap : desc::resolve_provided(service, kb)) {
            sequential.insert(DagEntry{cap, id}, oracle, stats);
            entries.push_back(DagEntry{std::move(cap), id});
        }
    }
    batched.insert_batch(std::move(entries), oracle, stats);

    batched.for_each_dag([&](const CapabilityDag& dag) {
        EXPECT_TRUE(dag.validate(oracle));
    });
    EXPECT_EQ(canonical_edges(sequential), canonical_edges(batched));
    EXPECT_EQ(sequential.entry_count(), batched.entry_count());
}

}  // namespace
}  // namespace sariadne::directory
