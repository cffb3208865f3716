// Cross-cutting corner cases that the per-module suites do not reach:
// every-hit DAG queries, taxonomy equivalence classes, sparse-handle state
// export, non-default encoding parameters end-to-end, simulator guards,
// and environment-tag algebra.
#include <gtest/gtest.h>

#include "core/discovery_engine.hpp"
#include "description/amigos_io.hpp"
#include "directory/dag.hpp"
#include "directory/state_transfer.hpp"
#include "matching/oracles.hpp"
#include "net/simulator.hpp"
#include "obs/metrics.hpp"
#include "reasoner/reasoner.hpp"
#include "test_helpers.hpp"

namespace sariadne {
namespace {

namespace th = sariadne::testing;

class ExtrasFixture : public ::testing::Test {
protected:
    ExtrasFixture() : oracle_(kb_) {
        kb_.register_ontology(th::media_ontology());
        kb_.register_ontology(th::server_ontology());
    }

    desc::ResolvedCapability resolve(const desc::Capability& cap) {
        return desc::resolve_capability(cap, kb_.registry(), "svc");
    }

    encoding::KnowledgeBase kb_;
    matching::EncodedOracle oracle_;
};

TEST_F(ExtrasFixture, QueryAllReturnsEveryMatchingVertex) {
    directory::CapabilityDag dag(FlatSet<onto::OntologyIndex>{0, 1});
    directory::MatchStats stats;
    desc::Capability generic = th::send_digital_stream();
    desc::Capability specific = th::send_digital_stream();
    specific.name = "SendVideo";
    specific.category_qname = th::server("VideoServer");
    dag.insert(directory::DagEntry{resolve(generic), 1}, oracle_, stats);
    dag.insert(directory::DagEntry{resolve(specific), 2}, oracle_, stats);

    const auto all =
        th::dag_hits(dag, resolve(th::get_video_stream()), oracle_, stats);
    EXPECT_EQ(all.size(), 2u);  // both generic (d=3) and specific (d=1)
    const auto best = th::dag_hits(dag, resolve(th::get_video_stream()),
                                   oracle_, stats, /*best_tier=*/true);
    ASSERT_EQ(best.size(), 1u);
    EXPECT_EQ(best[0].capability_name, "SendVideo");
}

TEST(TaxonomyExtras, EquivalenceClassMembers) {
    onto::Ontology o("u");
    const auto a = o.add_class("A");
    const auto b = o.add_class("B");
    const auto c = o.add_class("C");
    o.add_equivalent(a, b);
    o.add_subclass_of(c, a);
    reasoner::RuleReasoner engine;
    const auto tax = engine.classify(o);

    const auto members = tax.equivalence_class(b);
    EXPECT_EQ(members.size(), 2u);
    EXPECT_TRUE(tax.is_representative(a));
    EXPECT_FALSE(tax.is_representative(b));
    // Non-representatives mirror their representative's structure.
    EXPECT_EQ(tax.direct_children(b), tax.direct_children(a));
    EXPECT_EQ(tax.depth(b), tax.depth(a));
}

TEST_F(ExtrasFixture, StateExportSurvivesSparseHandles) {
    directory::SemanticDirectory source(kb_);
    directory::SemanticDirectory target(kb_);
    const auto id1 = source.publish(th::workstation_service()).id;
    desc::ServiceDescription second = th::workstation_service();
    second.profile.service_name = "W2";
    source.publish(second);
    desc::ServiceDescription third = th::workstation_service();
    third.profile.service_name = "W3";
    source.publish(third);
    source.remove(id1);  // hole in the handle space

    EXPECT_EQ(directory::import_state(target, directory::export_state(source)),
              2u);
    EXPECT_EQ(target.service_count(), 2u);
}

TEST(EncodingParamsEndToEnd, NonDefaultParametersWorkThroughTheEngine) {
    DiscoveryEngine engine(encoding::EncodingParams{3, 4});
    engine.register_ontology(th::media_ontology());
    engine.register_ontology(th::server_ontology());
    engine.publish(th::workstation_service());

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const auto results = engine.discover(request);
    ASSERT_FALSE(results[0].empty());
    EXPECT_EQ(results[0][0].semantic_distance, 3);
}

TEST(EnvironmentTag, OrderIndependentAndVersionSensitive) {
    encoding::KnowledgeBase kb;
    kb.register_ontology(th::media_ontology());
    kb.register_ontology(th::server_ontology());
    const auto tag_ab = kb.environment_tag(FlatSet<onto::OntologyIndex>{0, 1});
    const auto tag_ba = kb.environment_tag(FlatSet<onto::OntologyIndex>{1, 0});
    EXPECT_EQ(tag_ab, tag_ba);  // FlatSet normalizes; tags combine unordered
    const auto tag_a = kb.environment_tag(FlatSet<onto::OntologyIndex>{0});
    EXPECT_NE(tag_ab, tag_a);

    onto::Ontology v2 = th::media_ontology();
    v2.set_version(9);
    kb.register_ontology(std::move(v2));
    EXPECT_NE(kb.environment_tag(FlatSet<onto::OntologyIndex>{0}), tag_a);
}

TEST(SimulatorGuards, NegativeDelayAndBadNodesRejected) {
    net::Simulator sim(net::Topology::grid(2, 1));
    EXPECT_THROW(sim.schedule(-1.0, [] {}), ContractViolation);
    EXPECT_THROW(sim.unicast(0, 99, net::Message{}), ContractViolation);
}

TEST(SimulatorGuards, BroadcastFromDownNodeReachesNobody) {
    net::Topology topo = net::Topology::grid(3, 1);
    topo.set_up(0, false);
    net::Simulator sim(std::move(topo));
    sim.broadcast(0, 2, net::Message{});
    sim.run();
    EXPECT_EQ(sim.stats().deliveries, 0u);
}

TEST_F(ExtrasFixture, LifetimeStatsAccumulateAcrossOperations) {
    directory::SemanticDirectory directory(kb_);
    directory.publish(th::workstation_service());
    const auto after_publish = directory.lifetime_stats().capability_matches;
    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    (void)directory.query(request);
    EXPECT_GT(directory.lifetime_stats().capability_matches, after_publish);
}

TEST_F(ExtrasFixture, DagIndexQueryAllSpansMultipleDags) {
    obs::Counter contention;
    directory::DagIndex index(contention);
    directory::MatchStats stats;
    // Capability in the media+server signature DAG.
    index.insert(directory::DagEntry{resolve(th::send_digital_stream()), 1},
                 oracle_, stats);
    // Capability in a media-only DAG that also matches the request when
    // the request's category clause is dropped.
    desc::Capability media_only = th::send_digital_stream();
    media_only.name = "MediaOnly";
    media_only.category_qname.clear();
    index.insert(directory::DagEntry{resolve(media_only), 2}, oracle_, stats);

    desc::Capability wanted = th::get_video_stream();
    wanted.category_qname.clear();  // categoryless request matches both
    const auto all = th::dag_hits(index, resolve(wanted), oracle_, stats);
    EXPECT_EQ(all.size(), 2u);
}

}  // namespace
}  // namespace sariadne
