// Chaos soak: the whole self-healing stack — acknowledged publish with
// retransmit/backoff, wire-level dedup, pub-nack re-routing, deferred
// request retry, periodic republish — under a hostile radio (30% loss,
// 10% duplication, latency jitter, two crash/recover windows). The run
// must stay *coherent*: every request lands in exactly one terminal bin,
// retry and publish backlogs drain to zero, no service is permanently
// lost while its provider is up, and the same seed replays byte-identical
// traffic and counters. The soak runs over both summary backends.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ariadne/protocol.hpp"
#include "net/sim_transport.hpp"
#include "description/amigos_io.hpp"
#include "obs/metrics.hpp"
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

ProtocolConfig chaos_config(summary::SummaryBackend backend) {
    ProtocolConfig config;
    config.protocol = Protocol::kSAriadne;
    config.summary_backend = backend;
    config.adv_period_ms = 500;
    config.adv_timeout_ms = 1500;
    config.election_wait_ms = 30;
    config.republish_period_ms = 2000;
    config.request_timeout_ms = 600;
    config.max_request_retries = 4;
    config.publish_ack_timeout_ms = 500;  // acked publish path ON
    config.publish_max_retries = 6;
    return config;
}

net::FaultPlan chaos_plan(std::uint64_t seed) {
    net::FaultPlan plan;
    plan.seed = seed;
    plan.loss_probability = 0.30;
    plan.duplication_probability = 0.10;
    plan.latency_jitter_ms = 20.0;
    // Two crash windows: the appointed directory dies mid-run (forcing
    // re-election, handover loss, republish recovery) and a relay flaps.
    // Node 0 (the provider) never crashes: its content must survive.
    plan.crashes.push_back({5, 6000.0, 12000.0});
    plan.crashes.push_back({10, 15000.0, 18000.0});
    return plan;
}

struct ChaosRun {
    net::TrafficStats traffic;
    std::map<std::string, std::string> counts;  ///< th::replay_counts
    std::uint64_t issued = 0;
    std::uint64_t satisfied = 0;
    std::uint64_t unsatisfied = 0;
    std::uint64_t expired = 0;
    std::int64_t in_flight = 0;
    std::size_t retry_backlog = 0;
    std::size_t publish_backlog = 0;
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t publishes_acked = 0;
    bool final_probe_satisfied = false;
};

ChaosRun run_chaos(std::uint64_t seed, summary::SummaryBackend backend =
                                           summary::SummaryBackend::kBloom) {
    auto kb = make_kb();
    obs::MetricsRegistry registry;
    DiscoveryNetwork network(Topology::grid(4, 4), chaos_config(backend), kb,
                             &registry);
    sim(network).set_faults(chaos_plan(seed));
    network.appoint_directory(5);
    network.start();
    network.run_for(300);

    network.publish_service(0,
                            desc::serialize_service(th::workstation_service()));
    network.run_for(700);

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const std::string request_xml = desc::serialize_request(request);

    ChaosRun out;
    for (int tick = 0; tick < 20; ++tick) {
        // Clients spread over the grid, including ones inside crash
        // windows; requests issued from a crashed node defer until it
        // recovers instead of burning their retry budget.
        network.discover(static_cast<NodeId>((tick * 7 + 1) % 16),
                         request_xml);
        ++out.issued;
        network.run_for(1000);
    }
    network.run_for(20000);  // soak: retries, acks, crashes, recoveries

    // Quiesce: faults off, then drain every outstanding timer so the
    // terminal accounting below is exact, not a race with the clock.
    sim(network).set_faults(net::FaultPlan{});
    network.run_for(30000);

    out.traffic = network.traffic();
    out.counts = th::replay_counts(registry);
    out.satisfied = registry.counter_value("protocol.requests_satisfied");
    out.unsatisfied = registry.counter_value("protocol.requests_unsatisfied");
    out.expired = registry.counter_value("protocol.requests_expired");
    out.in_flight = registry.gauge_value("protocol.requests_in_flight");
    out.retry_backlog = network.retry_backlog();
    out.publish_backlog = network.publish_backlog();
    out.duplicates_dropped =
        registry.counter_value("protocol.duplicates_dropped");
    out.publishes_acked = registry.counter_value("protocol.publishes_acked");
    EXPECT_EQ(registry.counter_value("protocol.requests_issued"), out.issued);

    // Final probe on the clean network: the provider never crashed, so
    // its service must still be discoverable — nothing permanently lost.
    const auto probe = network.discover(15, request_xml);
    network.run_for(10000);
    out.final_probe_satisfied = network.outcome(probe).satisfied;
    return out;
}

class ChaosSoak : public ::testing::TestWithParam<summary::SummaryBackend> {};

INSTANTIATE_TEST_SUITE_P(
    Backends, ChaosSoak,
    ::testing::Values(summary::SummaryBackend::kBloom,
                      summary::SummaryBackend::kInterval),
    [](const auto& param_info) {
        return th::backend_name(param_info.param);
    });

TEST_P(ChaosSoak, KeepsAccountingCoherentAndHeals) {
    const ChaosRun run = run_chaos(0xC4A05, GetParam());

    // The radio really was hostile.
    EXPECT_GT(run.traffic.faults_dropped, 0u);
    EXPECT_GT(run.traffic.faults_duplicated, 0u);
    EXPECT_EQ(run.traffic.faults_crashes, 2u);
    EXPECT_EQ(run.traffic.faults_recoveries, 2u);
    // Dedup and the ack machinery both saw action.
    EXPECT_GT(run.duplicates_dropped, 0u);
    EXPECT_GT(run.publishes_acked, 0u);

    // Coherence invariant, exact: every issued request is in one bin.
    EXPECT_EQ(run.satisfied + run.unsatisfied + run.expired +
                  static_cast<std::uint64_t>(run.in_flight),
              run.issued);
    EXPECT_EQ(run.in_flight, 0);
    EXPECT_GT(run.satisfied, 0u);

    // Backlogs drain completely once the network quiesces.
    EXPECT_EQ(run.retry_backlog, 0u);
    EXPECT_EQ(run.publish_backlog, 0u);

    // Self-healing: the surviving provider's service is discoverable.
    EXPECT_TRUE(run.final_probe_satisfied);
}

TEST(Chaos, SameSeedIsByteIdenticalDifferentSeedIsNot) {
    const ChaosRun a = run_chaos(0xC4A05);
    const ChaosRun b = run_chaos(0xC4A05);
    const ChaosRun c = run_chaos(0xBEEF);
    EXPECT_EQ(a.traffic, b.traffic);
    EXPECT_EQ(a.satisfied, b.satisfied);
    EXPECT_EQ(a.expired, b.expired);
    // Replay identity covers the whole registry, not only the traffic.
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_GT(a.counts.count("protocol.requests_issued"), 0u);
    EXPECT_GT(a.counts.count("sim.now_ms"), 0u);  // gauges follow counters
    EXPECT_FALSE(a.traffic == c.traffic);
}

}  // namespace
}  // namespace sariadne::ariadne
