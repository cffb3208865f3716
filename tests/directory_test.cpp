#include <algorithm>

#include <gtest/gtest.h>

#include "directory/dag.hpp"
#include "directory/dag_index.hpp"
#include "directory/flat_directory.hpp"
#include "directory/semantic_directory.hpp"
#include "directory/syntactic_directory.hpp"
#include "directory/taxonomy_directory.hpp"
#include "matching/oracles.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"
#include "workload/ontology_gen.hpp"
#include "workload/service_gen.hpp"

namespace sariadne::directory {
namespace {

namespace th = sariadne::testing;
using desc::ResolvedCapability;

class DagFixture : public ::testing::Test {
protected:
    DagFixture() : oracle_(kb_) {
        kb_.register_ontology(th::media_ontology());
        kb_.register_ontology(th::server_ontology());
    }

    ResolvedCapability resolve(const desc::Capability& cap,
                               std::string service = "svc") {
        return desc::resolve_capability(cap, kb_.registry(), std::move(service));
    }

    /// A provided capability at the given specialization level:
    /// level 0 = SendDigitalStream; deeper levels narrow the category.
    desc::Capability leveled(int level, const std::string& name) {
        desc::Capability cap = th::send_digital_stream();
        cap.name = name;
        static const char* kCategories[] = {"DigitalServer", "MediaServer",
                                            "VideoServer"};
        cap.category_qname = th::server(kCategories[level]);
        return cap;
    }

    encoding::KnowledgeBase kb_;
    matching::EncodedOracle oracle_;
    MatchStats stats_;
    obs::Counter contention_;
};

TEST_F(DagFixture, InsertBuildsHierarchyFromGenericToSpecific) {
    CapabilityDag dag(FlatSet<onto::OntologyIndex>{0, 1});
    dag.insert(DagEntry{resolve(leveled(0, "generic")), 1}, oracle_, stats_);
    dag.insert(DagEntry{resolve(leveled(2, "specific")), 2}, oracle_, stats_);
    dag.insert(DagEntry{resolve(leveled(1, "middle")), 3}, oracle_, stats_);

    EXPECT_EQ(dag.vertex_count(), 3u);
    EXPECT_TRUE(dag.validate(oracle_));
    const auto roots = dag.root_ids();
    ASSERT_EQ(roots.size(), 1u);
    EXPECT_EQ(dag.entries(roots[0]).front().capability.name, "generic");
    const auto leaves = dag.leaf_ids();
    ASSERT_EQ(leaves.size(), 1u);
    EXPECT_EQ(dag.entries(leaves[0]).front().capability.name, "specific");
    // The middle vertex must sit between them (edge rewiring happened).
    const auto mid_children = dag.children(dag.children(roots[0])[0]);
    ASSERT_EQ(mid_children.size(), 1u);
    EXPECT_EQ(mid_children[0], leaves[0]);
}

TEST_F(DagFixture, EquivalentCapabilitiesShareAVertex) {
    CapabilityDag dag(FlatSet<onto::OntologyIndex>{0, 1});
    dag.insert(DagEntry{resolve(leveled(0, "a")), 1}, oracle_, stats_);
    dag.insert(DagEntry{resolve(leveled(0, "b")), 2}, oracle_, stats_);
    EXPECT_EQ(dag.vertex_count(), 1u);
    EXPECT_EQ(dag.entry_count(), 2u);
    EXPECT_TRUE(dag.validate(oracle_));
}

TEST_F(DagFixture, SendDigitalStreamIncludesProvideGame) {
    // The paper's Figure 1: "SendDigitalStream includes ProvideGame" —
    // the generic capability must become the specific one's DAG parent.
    CapabilityDag dag(FlatSet<onto::OntologyIndex>{0, 1});
    dag.insert(DagEntry{resolve(th::send_digital_stream()), 1}, oracle_, stats_);
    dag.insert(DagEntry{resolve(th::provide_game()), 2}, oracle_, stats_);
    EXPECT_EQ(dag.vertex_count(), 2u);
    const auto roots = dag.root_ids();
    ASSERT_EQ(roots.size(), 1u);
    EXPECT_EQ(dag.entries(roots[0]).front().capability.name,
              "SendDigitalStream");
    const auto leaves = dag.leaf_ids();
    ASSERT_EQ(leaves.size(), 1u);
    EXPECT_EQ(dag.entries(leaves[0]).front().capability.name, "ProvideGame");
    EXPECT_TRUE(dag.validate(oracle_));
}

TEST_F(DagFixture, UnrelatedCapabilitiesStayDisconnected) {
    CapabilityDag dag(FlatSet<onto::OntologyIndex>{0, 1});
    dag.insert(DagEntry{resolve(th::send_digital_stream()), 1}, oracle_, stats_);
    // TitleLookup exchanges Titles — no subsumption link to streaming.
    desc::Capability lookup;
    lookup.name = "TitleLookup";
    lookup.kind = desc::CapabilityKind::kProvided;
    lookup.category_qname = th::server("GameServer");
    lookup.inputs.push_back(desc::Parameter{"t", th::media("Title")});
    lookup.outputs.push_back(desc::Parameter{"t", th::media("Title")});
    dag.insert(DagEntry{resolve(lookup), 2}, oracle_, stats_);

    EXPECT_EQ(dag.vertex_count(), 2u);
    EXPECT_EQ(dag.root_ids().size(), 2u);
    EXPECT_EQ(dag.leaf_ids().size(), 2u);
    EXPECT_TRUE(dag.validate(oracle_));
}

TEST_F(DagFixture, QueryReturnsMinimumDistanceVertex) {
    CapabilityDag dag(FlatSet<onto::OntologyIndex>{0, 1});
    dag.insert(DagEntry{resolve(leveled(0, "generic")), 1}, oracle_, stats_);
    dag.insert(DagEntry{resolve(leveled(2, "specific")), 2}, oracle_, stats_);

    // GetVideoStream's category is VideoServer: the specific capability
    // matches at distance 2 less than the generic one.
    const auto hits = th::dag_hits(dag, resolve(th::get_video_stream()),
                                   oracle_, stats_, /*best_tier=*/true);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].capability_name, "specific");
    EXPECT_EQ(hits[0].semantic_distance, 1);  // input distance only
}

TEST_F(DagFixture, QueryPrunesNonMatchingSubtrees) {
    CapabilityDag dag(FlatSet<onto::OntologyIndex>{0, 1});
    dag.insert(DagEntry{resolve(th::provide_game()), 1}, oracle_, stats_);
    MatchStats query_stats;
    const auto hits = th::dag_hits(dag, resolve(th::get_video_stream()),
                                   oracle_, query_stats, /*best_tier=*/true);
    EXPECT_TRUE(hits.empty());
    // Only the root was probed.
    EXPECT_EQ(query_stats.capability_matches, 1u);
}

TEST_F(DagFixture, RemoveServiceSplicesEdges) {
    CapabilityDag dag(FlatSet<onto::OntologyIndex>{0, 1});
    dag.insert(DagEntry{resolve(leveled(0, "generic")), 1}, oracle_, stats_);
    dag.insert(DagEntry{resolve(leveled(1, "middle")), 2}, oracle_, stats_);
    dag.insert(DagEntry{resolve(leveled(2, "specific")), 3}, oracle_, stats_);

    EXPECT_EQ(dag.remove_service(2), 1u);  // middle vertex dies
    EXPECT_EQ(dag.vertex_count(), 2u);
    EXPECT_TRUE(dag.validate(oracle_));
    // Root must now reach the leaf directly.
    const auto roots = dag.root_ids();
    ASSERT_EQ(roots.size(), 1u);
    ASSERT_EQ(dag.children(roots[0]).size(), 1u);
    EXPECT_EQ(dag.entries(dag.children(roots[0])[0]).front().capability.name,
              "specific");
}

TEST_F(DagFixture, DagIndexGroupsBySignatureAndPrunes) {
    DagIndex index(contention_);
    index.insert(DagEntry{resolve(th::send_digital_stream()), 1}, oracle_,
                 stats_);

    // A capability using only the media ontology lands in a different DAG.
    desc::Capability media_only = th::send_digital_stream();
    media_only.name = "MediaOnly";
    media_only.category_qname.clear();
    index.insert(DagEntry{resolve(media_only), 2}, oracle_, stats_);
    EXPECT_EQ(index.dag_count(), 2u);

    MatchStats query_stats;
    const auto hits = th::dag_hits(index, resolve(th::get_video_stream()),
                                   oracle_, query_stats, /*best_tier=*/true);
    ASSERT_FALSE(hits.empty());
    EXPECT_GT(query_stats.dags_visited, 0u);
}

TEST_F(DagFixture, DagIndexRemovalDropsEmptyDags) {
    DagIndex index(contention_);
    index.insert(DagEntry{resolve(th::send_digital_stream()), 7}, oracle_,
                 stats_);
    EXPECT_EQ(index.dag_count(), 1u);
    EXPECT_EQ(index.remove_service(7), 1u);
    EXPECT_EQ(index.dag_count(), 0u);
}

// --- SemanticDirectory ------------------------------------------------------

class DirectoryFixture : public ::testing::Test {
protected:
    DirectoryFixture() : directory_(kb_) {
        kb_.register_ontology(th::media_ontology());
        kb_.register_ontology(th::server_ontology());
    }

    encoding::KnowledgeBase kb_;
    SemanticDirectory directory_;
};

TEST_F(DirectoryFixture, PublishAndQueryFig1Scenario) {
    directory_.publish(th::workstation_service());
    EXPECT_EQ(directory_.service_count(), 1u);
    EXPECT_EQ(directory_.capability_count(), 2u);

    desc::ServiceRequest request;
    request.requester = "pda";
    request.capabilities.push_back(th::get_video_stream());
    const QueryResult result = directory_.query(request);
    ASSERT_EQ(result.per_capability.size(), 1u);
    ASSERT_EQ(result.per_capability[0].size(), 1u);
    EXPECT_EQ(result.per_capability[0][0].capability_name, "SendDigitalStream");
    EXPECT_EQ(result.per_capability[0][0].semantic_distance, 3);
    EXPECT_TRUE(result.fully_satisfied());
}

TEST_F(DirectoryFixture, PublishXmlReportsTimingBreakdown) {
    const auto [id, timing] =
        directory_.publish_xml(desc::serialize_service(th::workstation_service()));
    EXPECT_GT(id, 0u);
    EXPECT_GT(timing.parse_ms, 0.0);
    EXPECT_GE(timing.insert_ms, 0.0);
    EXPECT_GT(timing.total_ms(), 0.0);
}

TEST_F(DirectoryFixture, QueryDoesNoReasoning) {
    directory_.publish(th::workstation_service());
    // Force code tables to exist.
    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    (void)directory_.query(request);
    const auto runs = kb_.classification_runs();
    for (int i = 0; i < 10; ++i) (void)directory_.query(request);
    EXPECT_EQ(kb_.classification_runs(), runs);  // encoded path only
}

TEST_F(DirectoryFixture, RemoveWithdrawsService) {
    const ServiceId id = directory_.publish(th::workstation_service()).id;
    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    EXPECT_TRUE(directory_.query(request).fully_satisfied());

    EXPECT_TRUE(directory_.remove(id));
    EXPECT_FALSE(directory_.remove(id));
    EXPECT_EQ(directory_.service_count(), 0u);
    EXPECT_FALSE(directory_.query(request).fully_satisfied());
}

TEST_F(DirectoryFixture, SummaryTracksContent) {
    EXPECT_EQ(directory_.summary().bloom()->set_bit_count(), 0u);
    const ServiceId id = directory_.publish(th::workstation_service()).id;
    EXPECT_GT(directory_.summary().bloom()->set_bit_count(), 0u);
    const std::vector<std::string> uris{th::kMediaUri, th::kServerUri};
    EXPECT_TRUE(directory_.summary().bloom()->possibly_covers(uris));
    directory_.remove(id);
    EXPECT_EQ(directory_.summary().bloom()->set_bit_count(), 0u);
}

TEST_F(DirectoryFixture, PublishBatchMatchesSequentialPublishes) {
    // publish_batch must converge to the same directory a sequence of
    // publishes would: same table, same summary, same query answers.
    std::vector<desc::ServiceDescription> batch;
    for (int i = 0; i < 4; ++i) {
        desc::ServiceDescription service = th::workstation_service();
        service.profile.service_name = "ws-" + std::to_string(i);
        batch.push_back(service);
    }

    SemanticDirectory sequential(kb_);
    for (const auto& service : batch) sequential.publish(service);
    const auto receipts = directory_.publish_batch(batch);

    ASSERT_EQ(receipts.size(), batch.size());
    EXPECT_EQ(directory_.service_count(), sequential.service_count());
    EXPECT_EQ(directory_.capability_count(), sequential.capability_count());
    EXPECT_TRUE(directory_.summary().bloom() == sequential.summary().bloom());

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const QueryResult batched = directory_.query(request);
    const QueryResult one_by_one = sequential.query(request);
    ASSERT_EQ(batched.per_capability.size(), 1u);
    EXPECT_EQ(batched.per_capability[0].size(),
              one_by_one.per_capability[0].size());
}

TEST_F(DirectoryFixture, PublishBatchReplacesDuplicateNamesLikeSequential) {
    // A duplicate name inside one batch (and against the cached table)
    // must leave exactly the newest description live, as sequential
    // re-advertisements would.
    const ServiceId original = directory_.publish(th::workstation_service()).id;

    std::vector<desc::ServiceDescription> batch;
    desc::ServiceDescription replacement = th::workstation_service();
    replacement.grounding.address = "http://workstation.local/v2";
    batch.push_back(replacement);
    replacement.grounding.address = "http://workstation.local/v3";
    batch.push_back(replacement);
    const auto receipts = directory_.publish_batch(std::move(batch));

    ASSERT_EQ(receipts.size(), 2u);
    EXPECT_EQ(directory_.service_count(), 1u);
    EXPECT_EQ(directory_.service(original), nullptr);
    EXPECT_EQ(directory_.service(receipts[0].id), nullptr);
    ASSERT_NE(directory_.service(receipts[1].id), nullptr);
    EXPECT_EQ(directory_.service(receipts[1].id)->grounding.address,
              "http://workstation.local/v3");

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    ASSERT_EQ(directory_.query(request).per_capability.size(), 1u);
    EXPECT_EQ(directory_.query(request).per_capability[0].size(), 1u);
}

TEST_F(DirectoryFixture, PublishBatchRejectsWholeBatchOnBadMember) {
    // All-or-nothing: a version-mismatched member leaves the directory
    // untouched.
    desc::ServiceDescription good = th::workstation_service();
    desc::ServiceDescription bad = th::workstation_service();
    bad.profile.service_name = "Stale";
    bad.profile.capabilities[0].code_version = 0xDEADBEEF;  // never current
    std::vector<desc::ServiceDescription> batch{good, bad};
    EXPECT_THROW(directory_.publish_batch(std::move(batch)),
                 VersionMismatchError);
    EXPECT_EQ(directory_.service_count(), 0u);
    EXPECT_EQ(directory_.summary().bloom()->set_bit_count(), 0u);
}

TEST_F(DirectoryFixture, RemovalSkipsSummaryRebuildWhileSetsStillHeld) {
    // Two services feed identical URI sets into the summary; removing one
    // must keep the filter exactly equal to a directory that only ever
    // saw the survivor (refcounted sets — no rebuild, no stale bits).
    const ServiceId first = directory_.publish(th::workstation_service()).id;
    desc::ServiceDescription twin = th::workstation_service();
    twin.profile.service_name = "Workstation-b";
    directory_.publish(twin);

    SemanticDirectory survivor_only(kb_);
    survivor_only.publish(twin);

    EXPECT_TRUE(directory_.remove(first));
    EXPECT_TRUE(directory_.summary().bloom() ==
                survivor_only.summary().bloom());
}

TEST_F(DirectoryFixture, UnsatisfiableRequestReturnsEmpty) {
    directory_.publish(th::workstation_service());
    desc::ServiceRequest request;
    desc::Capability impossible = th::get_video_stream();
    impossible.outputs[0].concept_qname = th::media("Title");
    request.capabilities.push_back(impossible);
    const QueryResult result = directory_.query(request);
    EXPECT_FALSE(result.fully_satisfied());
    EXPECT_TRUE(result.per_capability[0].empty());
}

TEST_F(DirectoryFixture, ServiceAccessor) {
    const ServiceId id = directory_.publish(th::workstation_service()).id;
    ASSERT_NE(directory_.service(id), nullptr);
    EXPECT_EQ(directory_.service(id)->profile.service_name, "Workstation");
    EXPECT_EQ(directory_.service(id + 100), nullptr);
}

TEST_F(DirectoryFixture, StaleCodeVersionRejectedAtPublish) {
    // §3.2: advertisements embed the code version they were computed
    // against; a directory must reject stale codes after ontology evolution.
    desc::ServiceDescription service = th::workstation_service();
    FlatSet<onto::OntologyIndex> used{0, 1};
    service.profile.capabilities[0].code_version = kb_.environment_tag(used);
    service.profile.capabilities[1].code_version = kb_.environment_tag(used);
    EXPECT_NO_THROW(directory_.publish(service));

    // The server ontology evolves; the embedded tags are now stale.
    onto::Ontology v2 = th::server_ontology();
    v2.set_version(2);
    kb_.register_ontology(std::move(v2));
    EXPECT_THROW(directory_.publish(service), VersionMismatchError);

    // Refreshing the codes (re-stamping against the new environment) heals.
    service.profile.capabilities[0].code_version = kb_.environment_tag(used);
    service.profile.capabilities[1].code_version = kb_.environment_tag(used);
    EXPECT_NO_THROW(directory_.publish(service));
}

TEST_F(DirectoryFixture, UnstampedDescriptionsAlwaysAccepted) {
    desc::ServiceDescription service = th::workstation_service();  // tags = 0
    EXPECT_NO_THROW(directory_.publish(service));
    onto::Ontology v2 = th::server_ontology();
    v2.set_version(7);
    kb_.register_ontology(std::move(v2));
    service.profile.service_name = "Workstation2";
    EXPECT_NO_THROW(directory_.publish(service));
}

// --- agreement between classified and flat directories ----------------------

class DirectoryAgreement : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, DirectoryAgreement, ::testing::Range(0, 5));

TEST_P(DirectoryAgreement, SemanticAndFlatReturnSameBestDistance) {
    workload::OntologyGenConfig onto_config;
    onto_config.class_count = 25;
    auto universe =
        workload::generate_universe(4, onto_config, 500 + GetParam());

    encoding::KnowledgeBase kb;
    for (const auto& o : universe) kb.register_ontology(o);

    workload::ServiceGenConfig svc_config;
    svc_config.seed = 900 + GetParam();
    workload::ServiceWorkload workload(std::move(universe), svc_config);

    SemanticDirectory semantic(kb);
    FlatDirectory flat(kb);
    constexpr std::size_t kServices = 30;
    for (std::size_t i = 0; i < kServices; ++i) {
        const auto service = workload.service(i);
        semantic.publish(service);
        flat.publish(service);
    }

    for (std::size_t i = 0; i < kServices; ++i) {
        const auto request = workload.matching_request(i);
        const auto resolved = desc::resolve_request(request, kb.registry());

        const QueryResult from_dag = semantic.query(request);
        MatchStats flat_stats;
        QueryTiming flat_timing;
        const auto from_flat = flat.query(resolved, flat_stats, flat_timing);

        ASSERT_EQ(from_dag.per_capability.size(), from_flat.size());
        for (std::size_t c = 0; c < from_flat.size(); ++c) {
            ASSERT_FALSE(from_dag.per_capability[c].empty())
                << "request " << i << " unmatched in DAG directory";
            ASSERT_FALSE(from_flat[c].empty())
                << "request " << i << " unmatched in flat directory";
            EXPECT_EQ(from_dag.per_capability[c][0].semantic_distance,
                      from_flat[c][0].semantic_distance)
                << "request " << i << " best distance differs";
        }
    }
}

TEST_P(DirectoryAgreement, DagQueryDoesFewerMatchesThanFlat) {
    workload::OntologyGenConfig onto_config;
    onto_config.class_count = 25;
    auto universe =
        workload::generate_universe(4, onto_config, 500 + GetParam());
    encoding::KnowledgeBase kb;
    for (const auto& o : universe) kb.register_ontology(o);
    workload::ServiceGenConfig svc_config;
    svc_config.seed = 900 + GetParam();
    workload::ServiceWorkload workload(std::move(universe), svc_config);

    SemanticDirectory semantic(kb);
    FlatDirectory flat(kb);
    constexpr std::size_t kServices = 40;
    for (std::size_t i = 0; i < kServices; ++i) {
        semantic.publish(workload.service(i));
        flat.publish(workload.service(i));
    }

    std::uint64_t dag_matches = 0;
    std::uint64_t flat_matches = 0;
    for (std::size_t i = 0; i < kServices; i += 4) {
        const auto resolved =
            desc::resolve_request(workload.matching_request(i), kb.registry());
        const auto result = semantic.query_resolved(resolved);
        dag_matches += result.stats.capability_matches;
        MatchStats stats;
        QueryTiming timing;
        (void)flat.query(resolved, stats, timing);
        flat_matches += stats.capability_matches;
    }
    EXPECT_LT(dag_matches, flat_matches);
}

// --- TaxonomyDirectory baseline ----------------------------------------------

TEST_F(DirectoryFixture, TaxonomyDirectoryAgreesOnFig1) {
    TaxonomyDirectory annotated(kb_);
    annotated.publish(th::workstation_service());
    MatchStats stats;
    const auto hits = annotated.query(
        desc::resolve_capability(th::get_video_stream(), kb_.registry()), stats);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].capability_name, "SendDigitalStream");
    EXPECT_EQ(hits[0].semantic_distance, 3);
}

TEST_P(DirectoryAgreement, TaxonomyDirectoryMatchesSemanticDirectory) {
    workload::OntologyGenConfig onto_config;
    onto_config.class_count = 25;
    auto universe =
        workload::generate_universe(3, onto_config, 321 + GetParam());
    encoding::KnowledgeBase kb;
    for (const auto& o : universe) kb.register_ontology(o);
    workload::ServiceGenConfig svc_config;
    svc_config.seed = 77 + GetParam();
    workload::ServiceWorkload workload(std::move(universe), svc_config);

    SemanticDirectory semantic(kb);
    TaxonomyDirectory annotated(kb);
    for (std::size_t i = 0; i < 20; ++i) {
        semantic.publish(workload.service(i));
        annotated.publish(workload.service(i));
    }
    for (std::size_t i = 0; i < 20; ++i) {
        const auto resolved =
            desc::resolve_request(workload.matching_request(i), kb.registry());
        const auto from_semantic = semantic.query_resolved(resolved);
        MatchStats stats;
        const auto from_annotated = annotated.query(resolved[0], stats);
        ASSERT_FALSE(from_semantic.per_capability[0].empty());
        ASSERT_FALSE(from_annotated.empty()) << "request " << i;
        EXPECT_EQ(from_semantic.per_capability[0][0].semantic_distance,
                  from_annotated[0].semantic_distance);
    }
}

// --- SyntacticDirectory baseline -----------------------------------------------

TEST(SyntacticDirectory, ExactConformanceOnly) {
    workload::OntologyGenConfig onto_config;
    onto_config.class_count = 20;
    workload::ServiceWorkload workload(
        workload::generate_universe(2, onto_config, 42));

    SyntacticDirectory directory;
    for (std::size_t i = 0; i < 10; ++i) {
        directory.publish_xml(workload.wsdl_xml(i));
    }
    EXPECT_EQ(directory.service_count(), 10u);

    QueryTiming timing;
    const auto hits = directory.query(workload.wsdl_request(3), timing);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].service_name, "Service3");
    EXPECT_GT(timing.match_ms, 0.0);

    // A renamed operation gets nothing — syntactic brittleness.
    auto renamed = workload.wsdl_request(3);
    renamed.operations[0].name = "renamedOp";
    EXPECT_TRUE(directory.query(renamed, timing).empty());
}

TEST(SyntacticDirectory, RejectsMalformedPublish) {
    SyntacticDirectory directory;
    EXPECT_THROW(directory.publish_xml("<broken"), ParseError);
    EXPECT_EQ(directory.service_count(), 0u);
}

}  // namespace
}  // namespace sariadne::directory
