// Failure injection: directory death, node churn, re-election, content
// recovery through periodic re-publication, and client retry — the
// pervasive-network dynamics the paper's election scheme targets.
#include <gtest/gtest.h>

#include <memory>

#include "ariadne/protocol.hpp"
#include "net/sim_transport.hpp"
#include "description/amigos_io.hpp"
#include "test_helpers.hpp"

namespace sariadne::ariadne {
namespace {

namespace th = sariadne::testing;
using net::NodeId;
using net::Topology;

encoding::KnowledgeBase make_kb() {
    encoding::KnowledgeBase kb;
    kb.register_ontology(th::media_ontology());
    kb.register_ontology(th::server_ontology());
    return kb;
}

ProtocolConfig churn_config() {
    ProtocolConfig config;
    config.protocol = Protocol::kSAriadne;
    config.adv_period_ms = 500;
    config.adv_timeout_ms = 1200;
    config.election_wait_ms = 30;
    config.republish_period_ms = 2000;
    config.request_timeout_ms = 3000;
    config.max_request_retries = 3;
    return config;
}

TEST(Churn, DirectoryDeathTriggersReElection) {
    auto kb = make_kb();
    DiscoveryNetwork network(Topology::grid(3, 3), churn_config(), kb);
    network.appoint_directory(4);
    network.start();
    network.run_for(3000);
    ASSERT_EQ(network.directories().size(), 1u);

    // The directory dies.
    sim(network).topology().set_up(4, false);
    network.run_for(10000);

    // A new directory must have been elected among the survivors.
    std::size_t live_directories = 0;
    for (const NodeId dir : network.directories()) {
        if (sim(network).topology().is_up(dir)) ++live_directories;
    }
    EXPECT_GE(live_directories, 1u);
}

TEST(Churn, ContentRecoversViaRepublication) {
    auto kb = make_kb();
    DiscoveryNetwork network(Topology::grid(3, 3), churn_config(), kb);
    network.appoint_directory(4);
    network.start();
    network.run_for(500);

    network.publish_service(0,
                            desc::serialize_service(th::workstation_service()));
    network.run_for(1000);

    // Kill the directory holding the only copy of the advertisement.
    sim(network).topology().set_up(4, false);
    network.run_for(15000);  // re-election + periodic re-publish

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(8, desc::serialize_request(request));
    network.run_for(15000);

    const DiscoveryOutcome& outcome = network.outcome(id);
    ASSERT_TRUE(outcome.answered);
    EXPECT_TRUE(outcome.satisfied)
        << "advertisement should have been re-published to the new directory";
}

TEST(Churn, ClientRetriesUnansweredRequest) {
    auto kb = make_kb();
    DiscoveryNetwork network(Topology::grid(3, 3), churn_config(), kb);
    network.appoint_directory(4);
    network.start();
    network.run_for(500);
    network.publish_service(0,
                            desc::serialize_service(th::workstation_service()));
    network.run_for(1000);

    // Issue the request, then immediately kill the directory so the first
    // attempt dies in flight; the retry must land on the re-elected one.
    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(8, desc::serialize_request(request));
    sim(network).topology().set_up(4, false);
    network.run_for(30000);

    const DiscoveryOutcome& outcome = network.outcome(id);
    EXPECT_TRUE(outcome.answered) << "retry should reach the new directory";
    if (outcome.answered) {
        EXPECT_TRUE(outcome.satisfied);
    }
}

TEST(Churn, RecoveredDirectoryResumesAdvertising) {
    auto kb = make_kb();
    DiscoveryNetwork network(Topology::grid(3, 3), churn_config(), kb);
    network.appoint_directory(4);
    network.start();
    network.run_for(1000);

    sim(network).topology().set_up(4, false);
    network.run_for(3000);
    sim(network).topology().set_up(4, true);
    network.run_for(3000);

    // Node 4 is a directory again (never stopped being one) and must be
    // advertising; at least one directory is reachable from every node.
    EXPECT_TRUE(network.is_directory(4));
    for (NodeId n = 0; n < 9; ++n) {
        EXPECT_NE(network.directory_for(n), net::kNoNode) << "node " << n;
    }
}

TEST(Churn, ProviderChurnDoesNotCrashRepublication) {
    auto kb = make_kb();
    DiscoveryNetwork network(Topology::grid(3, 3), churn_config(), kb);
    network.appoint_directory(4);
    network.start();
    network.run_for(500);
    network.publish_service(0,
                            desc::serialize_service(th::workstation_service()));
    // Provider flaps repeatedly while its republish timer runs.
    for (int i = 0; i < 4; ++i) {
        sim(network).topology().set_up(0, false);
        network.run_for(2500);
        sim(network).topology().set_up(0, true);
        network.run_for(2500);
    }
    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(8, desc::serialize_request(request));
    network.run_for(10000);
    EXPECT_TRUE(network.outcome(id).answered);
    EXPECT_TRUE(network.outcome(id).satisfied);
}

TEST(Churn, LastDirectoryHandoverLossIsHealedByRepublication) {
    // resign_directory's last-directory path: the resigning node parks its
    // exported state in pending_handover, triggers an election, and ships
    // the handover when the successor's dir-adv arrives. If that single
    // handover message is lost, the successor starts empty — the periodic
    // provider republish is the safety net that must repopulate it.
    auto kb = make_kb();
    DiscoveryNetwork network(Topology::grid(3, 3), churn_config(), kb);
    network.appoint_directory(4);
    network.start();
    network.run_for(500);
    network.publish_service(0,
                            desc::serialize_service(th::workstation_service()));
    network.run_for(1000);

    // Every handover dies in flight (there is exactly one per resignation).
    auto dropped = std::make_shared<int>(0);
    net::FaultPlan plan;
    plan.drop = [dropped](net::NodeId, net::NodeId, const net::Message& msg) {
        if (msg.body.type != wire::MsgType::kHandover) return false;
        ++*dropped;
        return true;
    };
    sim(network).set_faults(std::move(plan));

    network.resign_directory(4);  // last directory: election + handover
    network.run_for(15000);       // re-election + periodic republish

    EXPECT_GE(*dropped, 1) << "the handover path was never exercised";
    ASSERT_FALSE(network.directories().empty());
    EXPECT_FALSE(network.is_directory(4));

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(8, desc::serialize_request(request));
    network.run_for(15000);
    const DiscoveryOutcome& outcome = network.outcome(id);
    ASSERT_TRUE(outcome.answered);
    EXPECT_TRUE(outcome.satisfied)
        << "republication should have repopulated the successor directory";
}

TEST(Churn, RepublicationDeduplicatesInDirectory) {
    auto kb = make_kb();
    ProtocolConfig config = churn_config();
    config.republish_period_ms = 500;  // aggressive re-advertisement
    DiscoveryNetwork network(Topology::grid(3, 3), config, kb);
    network.appoint_directory(4);
    network.start();
    network.run_for(200);
    network.publish_service(0,
                            desc::serialize_service(th::workstation_service()));
    network.run_for(5000);  // ~10 republications

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(8, desc::serialize_request(request));
    network.run_for(3000);
    const DiscoveryOutcome& outcome = network.outcome(id);
    ASSERT_TRUE(outcome.answered);
    ASSERT_TRUE(outcome.satisfied);
    // Exactly one hit: the directory replaced, not duplicated, the entry.
    EXPECT_EQ(outcome.hits.size(), 1u);
}

}  // namespace
}  // namespace sariadne::ariadne
