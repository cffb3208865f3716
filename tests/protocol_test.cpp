#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "ariadne/protocol.hpp"
#include "ariadne/wire.hpp"
#include "net/sim_transport.hpp"
#include "bloom/bloom_filter.hpp"
#include "description/amigos_io.hpp"
#include "summary/summary_wire.hpp"
#include "test_helpers.hpp"
#include "workload/ontology_gen.hpp"
#include "workload/service_gen.hpp"

namespace sariadne::ariadne {
namespace {

namespace th = sariadne::testing;
using net::NodeId;
using net::SimTime;
using net::Topology;

encoding::KnowledgeBase make_kb() {
    encoding::KnowledgeBase kb;
    kb.register_ontology(th::media_ontology());
    kb.register_ontology(th::server_ontology());
    return kb;
}

ProtocolConfig fast_config(Protocol protocol) {
    ProtocolConfig config;
    config.protocol = protocol;
    config.adv_period_ms = 500;
    config.adv_timeout_ms = 1000;
    config.election_wait_ms = 30;
    return config;
}

TEST(Election, TimeoutDrivenElectionProducesDirectories) {
    auto kb = make_kb();
    DiscoveryNetwork network(Topology::grid(4, 4),
                             fast_config(Protocol::kSAriadne), kb);
    network.start();
    network.run_for(10000);
    const auto dirs = network.directories();
    ASSERT_FALSE(dirs.empty());
    // Advertisements must suppress further elections: directory count
    // stabilizes well below the node count.
    EXPECT_LT(dirs.size(), 16u);
    for (const NodeId dir : dirs) EXPECT_TRUE(network.is_directory(dir));
}

TEST(Election, ElectionPrefersFitterNodes) {
    auto kb = make_kb();
    DiscoveryNetwork network(Topology::grid(3, 3),
                             fast_config(Protocol::kSAriadne), kb);
    network.start();
    network.run_for(8000);
    const auto dirs = network.directories();
    ASSERT_FALSE(dirs.empty());
    // The elected directory's fitness should not be the network minimum.
    double min_fitness = 1e18;
    for (NodeId n = 0; n < 9; ++n) {
        min_fitness = std::min(min_fitness, network.fitness(n));
    }
    for (const NodeId dir : dirs) {
        EXPECT_GT(network.fitness(dir), min_fitness);
    }
}

TEST(Election, StaticAppointmentSuppressesElections) {
    auto kb = make_kb();
    DiscoveryNetwork network(Topology::grid(3, 3),
                             fast_config(Protocol::kSAriadne), kb);
    network.appoint_directory(4);  // grid center covers all within 2 hops
    network.start();
    network.run_for(10000);
    EXPECT_EQ(network.directories().size(), 1u);
}

TEST(SAriadne, PublishDiscoverRoundTrip) {
    auto kb = make_kb();
    DiscoveryNetwork network(Topology::grid(3, 3),
                             fast_config(Protocol::kSAriadne), kb);
    network.appoint_directory(4);
    network.start();
    network.run_for(100);

    network.publish_service(
        0, desc::serialize_service(th::workstation_service()));
    network.run_for(500);

    desc::ServiceRequest request;
    request.requester = "pda";
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(8, desc::serialize_request(request));
    network.run_for(2000);

    const DiscoveryOutcome& outcome = network.outcome(id);
    ASSERT_TRUE(outcome.answered);
    EXPECT_TRUE(outcome.satisfied);
    ASSERT_FALSE(outcome.hits.empty());
    EXPECT_EQ(outcome.hits[0].capability_name, "SendDigitalStream");
    EXPECT_EQ(outcome.hits[0].semantic_distance, 3);
    EXPECT_GT(outcome.response_time_ms(), 0.0);
}

TEST(SAriadne, BloomFilterPrunesIrrelevantDirectories) {
    workload::OntologyGenConfig onto_config;
    onto_config.class_count = 20;
    auto universe = workload::generate_universe(6, onto_config, 99);
    encoding::KnowledgeBase kb;
    for (const auto& o : universe) kb.register_ontology(o);
    workload::ServiceWorkload workload(std::move(universe));

    DiscoveryNetwork network(Topology::grid(13, 1),
                             fast_config(Protocol::kSAriadne), kb);
    network.appoint_directory(0);
    network.appoint_directory(6);
    network.appoint_directory(12);
    network.start();
    network.run_for(100);

    // Directory 6 gets ontology-0 services, directory 12 ontology-1 ones
    // (indices 0 and 6 use ontology 0, indices 1 and 7 use ontology 1).
    network.publish_service(5, workload.service_xml(0));
    network.publish_service(5, workload.service_xml(6));
    network.publish_service(11, workload.service_xml(1));
    network.publish_service(11, workload.service_xml(7));
    network.run_for(5000);

    // A request over ontology 0 issued near directory 0: the Bloom filter
    // must route it to directory 6 (and possibly 12 on a false positive,
    // but never require flooding).
    const auto before = network.traffic().per_type.count("fwd")
                            ? network.traffic().per_type.at("fwd")
                            : 0;
    const auto id =
        network.discover(1, workload.matching_request_xml(0));
    network.run_for(4000);
    const auto after = network.traffic().per_type.at("fwd");

    const DiscoveryOutcome& outcome = network.outcome(id);
    ASSERT_TRUE(outcome.answered);
    EXPECT_TRUE(outcome.satisfied);
    EXPECT_GE(after - before, 1u);
    EXPECT_LE(after - before, 2u);  // selective, not a flood beyond peers
}

TEST(Ariadne, SyntacticProtocolRoundTrip) {
    workload::OntologyGenConfig onto_config;
    onto_config.class_count = 20;
    encoding::KnowledgeBase kb;  // unused by syntactic directories
    workload::ServiceWorkload workload(
        workload::generate_universe(2, onto_config, 7));

    DiscoveryNetwork network(Topology::grid(3, 3),
                             fast_config(Protocol::kAriadne), kb);
    network.appoint_directory(4);
    network.start();
    network.run_for(100);

    network.publish_service(0, workload.wsdl_xml(2));
    network.run_for(500);

    const auto id = network.discover(8, workload.wsdl_request_xml(2));
    network.run_for(2000);
    const DiscoveryOutcome& outcome = network.outcome(id);
    ASSERT_TRUE(outcome.answered);
    EXPECT_TRUE(outcome.satisfied);
    ASSERT_EQ(outcome.hits.size(), 1u);
    EXPECT_EQ(outcome.hits[0].service_name, "Service2");
}

TEST(Ariadne, UnmatchedRequestAnsweredUnsatisfied) {
    workload::OntologyGenConfig onto_config;
    onto_config.class_count = 20;
    encoding::KnowledgeBase kb;
    workload::ServiceWorkload workload(
        workload::generate_universe(2, onto_config, 7));

    DiscoveryNetwork network(Topology::grid(3, 3),
                             fast_config(Protocol::kAriadne), kb);
    network.appoint_directory(4);
    network.start();
    network.run_for(100);
    network.publish_service(0, workload.wsdl_xml(2));
    network.run_for(500);

    const auto id = network.discover(8, workload.wsdl_request_xml(3));
    network.run_for(2000);
    const DiscoveryOutcome& outcome = network.outcome(id);
    ASSERT_TRUE(outcome.answered);
    EXPECT_FALSE(outcome.satisfied);
    EXPECT_TRUE(outcome.hits.empty());
}

TEST(Protocol, DeferredPublishFlushesAfterElection) {
    auto kb = make_kb();
    DiscoveryNetwork network(Topology::grid(3, 3),
                             fast_config(Protocol::kSAriadne), kb);
    network.start();
    // Publish before any directory exists: must be deferred, then flushed
    // once the first advertisement arrives.
    network.publish_service(0,
                            desc::serialize_service(th::workstation_service()));
    network.run_for(12000);

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(8, desc::serialize_request(request));
    network.run_for(4000);
    const DiscoveryOutcome& outcome = network.outcome(id);
    ASSERT_TRUE(outcome.answered);
    EXPECT_TRUE(outcome.satisfied);
}

TEST(SAriadne, EmptyForwardRepliesTriggerReactiveSummaryPull) {
    // Ontology-level coverage is necessary but not sufficient: directory 8
    // caches ProvideGame (media+server ontologies), so its summary covers
    // any media/server request — yet GetVideoStream never matches there.
    // Repeated empty forwarded answers must trip the reactive pull (§4:
    // summaries are re-requested "when the percentage of false positives
    // reaches a given threshold").
    auto kb = make_kb();
    ProtocolConfig config = fast_config(Protocol::kSAriadne);
    config.false_positive_pull_threshold = 2;

    DiscoveryNetwork network(Topology::grid(9, 1), config, kb);
    network.appoint_directory(0);
    network.appoint_directory(8);
    network.start();
    network.run_for(100);

    desc::ServiceDescription games_only;
    games_only.profile.service_name = "GamesOnly";
    games_only.profile.capabilities.push_back(th::provide_game());
    network.publish_service(7, desc::serialize_service(games_only));
    network.run_for(2000);

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    for (int i = 0; i < 3; ++i) {
        (void)network.discover(1, desc::serialize_request(request));
        network.run_for(2000);
    }
    const auto& per_type = network.traffic().per_type;
    ASSERT_TRUE(per_type.count("fwd"));
    EXPECT_GE(per_type.at("fwd"), 2u);
    ASSERT_TRUE(per_type.count("summary-pull"));
    // At least one pull beyond the election-time exchange.
    EXPECT_GE(per_type.at("summary-pull"), 2u);
}

TEST(SAriadne, ForwardedComputeAccumulatesInOutcome) {
    auto kb = make_kb();
    DiscoveryNetwork network(Topology::grid(9, 1),
                             fast_config(Protocol::kSAriadne), kb);
    network.appoint_directory(0);
    network.appoint_directory(8);
    network.start();
    network.run_for(100);
    network.publish_service(7,
                            desc::serialize_service(th::workstation_service()));
    network.run_for(3000);

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(1, desc::serialize_request(request));
    network.run_for(5000);
    const auto& outcome = network.outcome(id);
    ASSERT_TRUE(outcome.answered);
    ASSERT_TRUE(outcome.satisfied);
    // Compute charged by both the local and the remote directory.
    EXPECT_GT(outcome.directory_compute_ms, 0.0);
    EXPECT_GE(outcome.directories_asked, 1u);
}

TEST(Protocol, ResponseTimeIncludesDirectoryCompute) {
    auto kb = make_kb();
    DiscoveryNetwork network(Topology::grid(3, 3),
                             fast_config(Protocol::kSAriadne), kb);
    network.appoint_directory(4);
    network.start();
    network.run_for(100);
    network.publish_service(0,
                            desc::serialize_service(th::workstation_service()));
    network.run_for(500);

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(0, desc::serialize_request(request));
    network.run_for(2000);
    const DiscoveryOutcome& outcome = network.outcome(id);
    ASSERT_TRUE(outcome.answered);
    EXPECT_GT(outcome.directory_compute_ms, 0.0);
    EXPECT_GE(outcome.response_time_ms(), outcome.directory_compute_ms);
    // Virtual time stands still inside a handler, so the reply is charged
    // the whole compute on top of the round trip (2 hops each way at the
    // simulator's default 2 ms per hop).
    const double round_trip_ms =
        2 * sim(network).topology().path_cost(0, 4) * 2.0;
    EXPECT_NEAR(outcome.response_time_ms(),
                round_trip_ms + outcome.directory_compute_ms, 1e-9);
}

// --- reply delay on a moving clock -----------------------------------------

/// Two-node transport whose clock advances `step_ms` on every now() call,
/// so a handler sees time pass the way it does on a real clock. schedule()
/// and unicast() are recorded, not run; tests deliver messages and fire
/// timers by hand.
class SteppingClockTransport final : public Transport {
public:
    struct Scheduled {
        SimTime delay_ms;
        std::function<void()> action;
    };

    explicit SteppingClockTransport(SimTime step_ms) : step_ms_(step_ms) {}

    std::vector<Scheduled> scheduled;
    std::vector<net::Message> sent;

    void deliver(NodeId to, net::Message msg) {
        msg.wire_seq = ++wire_seq_;
        handler_(to, msg);
    }

    void set_delivery_handler(DeliveryHandler handler) override {
        handler_ = std::move(handler);
    }
    void set_metrics(obs::MetricsRegistry&) override {}
    void unicast(NodeId from, NodeId, net::Message msg) override {
        msg.source = from;
        sent.push_back(std::move(msg));
    }
    void broadcast(NodeId, std::uint32_t, net::Message) override {}
    SimTime now() const override { return clock_ms_ += step_ms_; }
    void schedule(SimTime delay_ms, std::function<void()> action) override {
        scheduled.push_back(Scheduled{delay_ms, std::move(action)});
    }
    void run_for(SimTime) override {}
    bool idle() const override { return scheduled.empty(); }
    std::size_t node_count() const override { return 2; }
    bool is_up(NodeId) const override { return true; }
    std::vector<int> hop_distances(NodeId from) const override {
        return from == 0 ? std::vector<int>{0, 1} : std::vector<int>{1, 0};
    }
    bool is_infrastructure(NodeId) const override { return false; }
    std::size_t degree(NodeId) const override { return 1; }

private:
    SimTime step_ms_;
    mutable SimTime clock_ms_ = 0;
    std::uint64_t wire_seq_ = 0;
    DeliveryHandler handler_;
};

/// Directory 0 holding the workstation service, over a fake clock that
/// advances `step_ms` per reading; the set-up's timers and sends are
/// cleared.
struct SteppedDirectory {
    explicit SteppedDirectory(SimTime step_ms)
        : kb(make_kb()),
          network(std::make_unique<SteppingClockTransport>(step_ms),
                  fast_config(Protocol::kSAriadne), kb),
          transport(static_cast<SteppingClockTransport&>(network.transport())) {
        network.appoint_directory(0);
        net::Message pub = net::make_message(wire::PublishDoc{
            desc::serialize_service(th::workstation_service()), 0});
        pub.source = 1;
        transport.deliver(0, std::move(pub));
        transport.scheduled.clear();
        transport.sent.clear();
    }

    static std::string video_request() {
        desc::ServiceRequest request;
        request.capabilities.push_back(th::get_video_stream());
        return desc::serialize_request(request);
    }

    encoding::KnowledgeBase kb;
    DiscoveryNetwork network;
    SteppingClockTransport& transport;
};

/// One second per clock reading: far more than the microseconds a match
/// takes, so the elapsed time always covers the compute.
constexpr SimTime kSlowTickMs = 1000;

/// A message from node 1, the stepped directory's only peer.
net::Message from_peer(wire::Payload payload) {
    net::Message msg = net::make_message(std::move(payload));
    msg.source = 1;
    return msg;
}

TEST(ReplyDelay, LocalReplyIsDueAtOnceWhenComputeHasElapsed) {
    SteppedDirectory dir(kSlowTickMs);
    dir.transport.deliver(
        0, from_peer(wire::Request{7, 1, SteppedDirectory::video_request()}));

    ASSERT_EQ(dir.transport.scheduled.size(), 1u);
    EXPECT_EQ(dir.transport.scheduled[0].delay_ms, 0.0);
    dir.transport.scheduled[0].action();
    ASSERT_EQ(dir.transport.sent.size(), 1u);
    ASSERT_EQ(dir.transport.sent[0].body.type, wire::MsgType::kResponse);
    const auto& response =
        std::get<wire::Response>(dir.transport.sent[0].body.payload);
    EXPECT_TRUE(response.satisfied);
    EXPECT_GT(response.compute_ms, 0.0);
    EXPECT_LT(response.compute_ms, kSlowTickMs);
}

TEST(ReplyDelay, ForwardReplyIsDueAtOnceWhenComputeHasElapsed) {
    SteppedDirectory dir(kSlowTickMs);
    dir.transport.deliver(
        0, from_peer(wire::Forward{9, 1, SteppedDirectory::video_request()}));

    ASSERT_EQ(dir.transport.scheduled.size(), 1u);
    EXPECT_EQ(dir.transport.scheduled[0].delay_ms, 0.0);
    dir.transport.scheduled[0].action();
    ASSERT_EQ(dir.transport.sent.size(), 1u);
    ASSERT_EQ(dir.transport.sent[0].body.type,
              wire::MsgType::kForwardResponse);
    const auto& hits =
        std::get<wire::ForwardResponse>(dir.transport.sent[0].body.payload);
    EXPECT_GT(hits.compute_ms, 0.0);
    EXPECT_LT(hits.compute_ms, kSlowTickMs);
}

TEST(ReplyDelay, StoppedClockChargesTheWholeCompute) {
    // A clock that never moves inside a handler (the simulator's) leaves
    // the delay bit-for-bit equal to the measured compute.
    SteppedDirectory dir(0);
    dir.transport.deliver(
        0, from_peer(wire::Request{7, 1, SteppedDirectory::video_request()}));
    dir.transport.deliver(
        0, from_peer(wire::Forward{9, 1, SteppedDirectory::video_request()}));

    ASSERT_EQ(dir.transport.scheduled.size(), 2u);
    for (auto& timer : dir.transport.scheduled) timer.action();
    ASSERT_EQ(dir.transport.sent.size(), 2u);
    const auto& response =
        std::get<wire::Response>(dir.transport.sent[0].body.payload);
    const auto& hits =
        std::get<wire::ForwardResponse>(dir.transport.sent[1].body.payload);
    EXPECT_GT(response.compute_ms, 0.0);
    EXPECT_EQ(dir.transport.scheduled[0].delay_ms, response.compute_ms);
    EXPECT_EQ(dir.transport.scheduled[1].delay_ms, hits.compute_ms);
}

TEST(Retry, ExhaustedRetriesAreConcludedNotLeaked) {
    auto kb = make_kb();
    ProtocolConfig config = fast_config(Protocol::kSAriadne);
    config.adv_timeout_ms = 1e9;  // no election rescue during the test
    config.request_timeout_ms = 400;
    config.max_request_retries = 2;

    obs::MetricsRegistry registry;
    DiscoveryNetwork network(Topology::grid(3, 1), config, kb, &registry);
    network.appoint_directory(0);
    network.start();
    network.run_for(100);
    network.publish_service(0,
                            desc::serialize_service(th::workstation_service()));
    network.run_for(500);

    // The directory stays reachable (so every retry really transmits) but
    // all request/response traffic is lost in flight: the budget must burn
    // down and the request must be concluded, not leaked.
    net::FaultPlan lossy;
    lossy.drop = [](net::NodeId, net::NodeId, const net::Message& msg) {
        return msg.body.type == wire::MsgType::kRequest ||
               msg.body.type == wire::MsgType::kResponse;
    };
    sim(network).set_faults(std::move(lossy));
    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(2, desc::serialize_request(request));
    EXPECT_EQ(network.retry_backlog(), 1u);
    network.run_for(10000);

    const DiscoveryOutcome& outcome = network.outcome(id);
    EXPECT_TRUE(outcome.terminal);
    EXPECT_TRUE(outcome.expired);
    EXPECT_FALSE(outcome.satisfied);
    // The leak this guards against: retry state must not outlive the
    // retry budget, and the abandoned request must be counted exactly once.
    EXPECT_EQ(network.retry_backlog(), 0u);
    EXPECT_EQ(registry.counter_value("protocol.requests_retried"), 2u);
    EXPECT_EQ(registry.counter_value("protocol.requests_expired"), 1u);
    EXPECT_EQ(registry.gauge_value("protocol.requests_in_flight"), 0);
    EXPECT_EQ(registry.gauge_value("protocol.deferred_requests"), 0);
}

TEST(Retry, FullPartitionDefersInsteadOfBurningRetries) {
    // Regression: check_request_timeout used to decrement retries_left and
    // count requests_retried even when directory_for(client) returned
    // kNoNode — burning the whole budget with no transmission, so a
    // partition outlasting retries * timeout expired the request even
    // though it healed. A partitioned client must defer, keep its budget,
    // and succeed once the partition heals.
    auto kb = make_kb();
    ProtocolConfig config = fast_config(Protocol::kSAriadne);
    config.adv_timeout_ms = 1e9;  // no election rescue during the test
    config.request_timeout_ms = 400;
    config.max_request_retries = 2;

    obs::MetricsRegistry registry;
    DiscoveryNetwork network(Topology::grid(3, 1), config, kb, &registry);
    network.appoint_directory(0);
    network.start();
    network.run_for(100);
    network.publish_service(0,
                            desc::serialize_service(th::workstation_service()));
    network.run_for(500);

    // Full partition: the only directory is down for far longer than the
    // whole retry budget (2 * 400 ms).
    sim(network).topology().set_up(0, false);
    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(2, desc::serialize_request(request));
    network.run_for(8000);
    EXPECT_FALSE(network.outcome(id).terminal);
    EXPECT_EQ(network.retry_backlog(), 1u);
    EXPECT_EQ(registry.counter_value("protocol.requests_expired"), 0u);

    // Heal: the deferred request must go out with its budget intact.
    sim(network).topology().set_up(0, true);
    network.run_for(8000);

    const DiscoveryOutcome& outcome = network.outcome(id);
    EXPECT_TRUE(outcome.answered);
    EXPECT_TRUE(outcome.satisfied);
    EXPECT_FALSE(outcome.expired);
    EXPECT_EQ(network.retry_backlog(), 0u);
    // At most one real retransmission (the one that succeeded after the
    // heal); the deferral polls during the partition consumed nothing.
    EXPECT_LE(registry.counter_value("protocol.requests_retried"), 1u);
}

TEST(Retry, SatisfiedAnswerReleasesRetryStateImmediately) {
    auto kb = make_kb();
    ProtocolConfig config = fast_config(Protocol::kSAriadne);
    config.request_timeout_ms = 400;
    config.max_request_retries = 2;

    obs::MetricsRegistry registry;
    DiscoveryNetwork network(Topology::grid(3, 3), config, kb, &registry);
    network.appoint_directory(4);
    network.start();
    network.run_for(100);
    network.publish_service(0,
                            desc::serialize_service(th::workstation_service()));
    network.run_for(500);

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(8, desc::serialize_request(request));
    network.run_for(2000);

    const DiscoveryOutcome& outcome = network.outcome(id);
    EXPECT_TRUE(outcome.satisfied);
    EXPECT_TRUE(outcome.terminal);
    EXPECT_FALSE(outcome.expired);
    EXPECT_EQ(network.retry_backlog(), 0u);
    EXPECT_EQ(registry.counter_value("protocol.requests_satisfied"), 1u);
    EXPECT_EQ(registry.counter_value("protocol.requests_expired"), 0u);
    EXPECT_EQ(registry.gauge_value("protocol.requests_in_flight"), 0);
}

TEST(Protocol, WindowedRunsMatchOneLongRun) {
    // run_for windows must tile virtual time exactly: the same protocol
    // over the same topology must elect the same directories and move the
    // same traffic whether driven in one 9 s run or nine 1 s windows.
    // Regression for the clock staying at the last event instead of the
    // window edge, which skewed every now()-relative deadline.
    auto kb = make_kb();
    DiscoveryNetwork windowed(Topology::grid(4, 4),
                              fast_config(Protocol::kSAriadne), kb);
    DiscoveryNetwork single(Topology::grid(4, 4),
                            fast_config(Protocol::kSAriadne), kb);
    windowed.start();
    single.start();
    for (int i = 0; i < 9; ++i) windowed.run_for(1000);
    single.run_for(9000);

    EXPECT_DOUBLE_EQ(sim(windowed).now(), sim(single).now());
    EXPECT_EQ(windowed.directories(), single.directories());
    EXPECT_EQ(windowed.traffic().per_type, single.traffic().per_type);
    EXPECT_EQ(windowed.traffic().deliveries, single.traffic().deliveries);
}

TEST(SAriadne, MalformedHandoverIsContainedAndCounted) {
    // Regression: the handover handler fed peer bytes to import_state
    // unguarded, so a malformed state document threw out of the event loop
    // (on a daemon, out of the reactor: the process terminated). It must be
    // dropped and counted, and push no summary since nothing was imported.
    auto kb = make_kb();
    obs::MetricsRegistry registry;
    DiscoveryNetwork network(Topology::grid(3, 1),
                             fast_config(Protocol::kSAriadne), kb, &registry);
    network.appoint_directory(0);
    network.appoint_directory(2);
    network.start();
    network.run_for(200);
    network.publish_service(0,
                            desc::serialize_service(th::workstation_service()));
    network.run_for(500);

    const auto pushes_before =
        registry.counter_value("protocol.summary_pushes");
    network.transport().unicast(
        2, 0, net::make_message(wire::Handover{"<not-xml"}));
    network.run_for(500);
    EXPECT_EQ(registry.counter_value("protocol.malformed_publishes"), 1u);
    EXPECT_EQ(registry.counter_value("protocol.summary_pushes"),
              pushes_before);

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(1, desc::serialize_request(request));
    network.run_for(5000);
    EXPECT_TRUE(network.outcome(id).answered);
    EXPECT_TRUE(network.outcome(id).satisfied);
}

// ---------------------------------------------------------------------------
// The summary-exchange contract, over both summary backends
// ---------------------------------------------------------------------------

class SummaryExchange
    : public ::testing::TestWithParam<summary::SummaryBackend> {
protected:
    ProtocolConfig config() const {
        ProtocolConfig config = fast_config(Protocol::kSAriadne);
        config.summary_backend = GetParam();
        return config;
    }
};

INSTANTIATE_TEST_SUITE_P(
    Backends, SummaryExchange,
    ::testing::Values(summary::SummaryBackend::kBloom,
                      summary::SummaryBackend::kInterval),
    [](const auto& param_info) {
        return th::backend_name(param_info.param);
    });

TEST_P(SummaryExchange, RemoteDirectoryReachedViaForwarding) {
    auto kb = make_kb();
    // Line topology: directories at both ends, vicinity 2 keeps them from
    // hearing each other's advertisements directly.
    DiscoveryNetwork network(Topology::grid(9, 1), config(), kb);
    network.appoint_directory(0);
    network.appoint_directory(8);
    network.start();
    network.run_for(100);

    // Service lives near directory 8; client asks near directory 0.
    network.publish_service(7,
                            desc::serialize_service(th::workstation_service()));
    network.run_for(3000);  // let summaries propagate

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(1, desc::serialize_request(request));
    network.run_for(4000);

    const DiscoveryOutcome& outcome = network.outcome(id);
    ASSERT_TRUE(outcome.answered);
    EXPECT_TRUE(outcome.satisfied);
    EXPECT_GE(outcome.directories_asked, 1u);
    ASSERT_FALSE(outcome.hits.empty());
    EXPECT_EQ(outcome.hits[0].capability_name, "SendDigitalStream");
    EXPECT_EQ(outcome.hits[0].semantic_distance, 3);
}

TEST_P(SummaryExchange, ReAdvertisementThatSwapsOntologiesIsPushed) {
    // Regression: the Bloom backend pushed only when the filter's set-bit
    // count grew. Re-advertising "Box" with an output from a third
    // ontology rebuilds the filter with as many new bits as it drops, so
    // nothing was pushed and directory 0 never forwarded to directory 8.
    constexpr const char* kSensorUri = "http://amigo.example/onto/sensor";
    onto::Ontology sensor(kSensorUri);
    sensor.add_class("Reading");
    auto kb = make_kb();
    kb.register_ontology(std::move(sensor));
    const std::string reading = std::string(kSensorUri) + "#Reading";

    obs::MetricsRegistry registry;
    DiscoveryNetwork network(Topology::grid(9, 1), config(), kb, &registry);
    network.appoint_directory(0);
    network.appoint_directory(8);
    network.start();
    network.run_for(100);
    network.publish_service(7, desc::serialize_service(th::one_output_service(
                                   "Box", th::media("Stream"))));
    network.run_for(1000);
    const auto pushes = registry.counter_value("protocol.summary_pushes");
    network.publish_service(
        7, desc::serialize_service(th::one_output_service("Box", reading)));
    network.run_for(10);  // one hop to directory 8, which pushes at once
    EXPECT_GT(registry.counter_value("protocol.summary_pushes"), pushes);
    network.run_for(1000);

    desc::Capability wanted;
    wanted.name = "WantReading";
    wanted.kind = desc::CapabilityKind::kRequired;
    wanted.category_qname = th::server("DigitalServer");
    wanted.outputs.push_back(desc::Parameter{"out", reading});
    desc::ServiceRequest request;
    request.capabilities.push_back(std::move(wanted));
    const auto id = network.discover(1, desc::serialize_request(request));
    network.run_for(4000);

    const DiscoveryOutcome& outcome = network.outcome(id);
    ASSERT_TRUE(outcome.answered);
    EXPECT_TRUE(outcome.satisfied);
    EXPECT_EQ(registry.counter_value("protocol.forwards"), 1u);
}

TEST_P(SummaryExchange, CorruptAndForeignImagesAreContainedAndCounted) {
    // Summary images are peer-controlled bytes. A corrupt one (which once
    // threw out of the event loop and killed the run), or a well-formed
    // one of the backend this network does not run, is dropped and
    // counted; it pulls nothing and does not disturb discovery.
    auto kb = make_kb();
    obs::MetricsRegistry registry;
    DiscoveryNetwork network(Topology::grid(3, 1), config(), kb, &registry);
    network.appoint_directory(0);
    network.appoint_directory(2);
    network.start();
    network.run_for(200);
    network.publish_service(0,
                            desc::serialize_service(th::workstation_service()));
    network.run_for(500);

    bloom::BloomFilter filter({256, 4});
    filter.insert_ontology_set(std::vector<std::string>{"urn:svc"});
    std::vector<std::uint64_t> filter_words = filter.serialize();
    summary::IntervalSummary exact;
    exact.retain("urn:x", 5, summary::Role::kOutputs, 3);
    std::vector<std::uint8_t> exact_image = summary::encode_summary(exact);
    summary::SummaryDelta delta;
    delta.base_version = 1;
    delta.new_version = 2;

    std::vector<wire::Payload> corrupt;
    // Header claims 1024 bits (16 body words) but carries none.
    corrupt.push_back(wire::SummaryPush{2, {(std::uint64_t{1024} << 32) | 4u}});
    corrupt.push_back(wire::SummaryPush{2, filter_words});
    std::get<wire::SummaryPush>(corrupt.back()).summary_wire.pop_back();
    corrupt.push_back(wire::SummaryBitmap{2, {0xDE, 0xAD, 0xBE}});
    corrupt.push_back(wire::SummaryBitmap{2, exact_image});
    std::get<wire::SummaryBitmap>(corrupt.back()).image.pop_back();
    corrupt.push_back(wire::SummaryDelta{2, {0x00}});
    std::vector<wire::Payload> foreign;
    if (GetParam() == summary::SummaryBackend::kBloom) {
        foreign.push_back(wire::SummaryBitmap{2, exact_image});
        foreign.push_back(wire::SummaryDelta{2, summary::encode_delta(delta)});
    } else {
        foreign.push_back(wire::SummaryPush{2, filter_words});
    }

    const auto pulls = registry.counter_value("protocol.summary_pulls");
    for (auto* images : {&corrupt, &foreign}) {
        for (wire::Payload& payload : *images) {
            network.transport().unicast(2, 0,
                                        net::make_message(std::move(payload)));
        }
    }
    network.run_for(500);
    EXPECT_EQ(registry.counter_value("protocol.bloom_wire_rejected"),
              corrupt.size() + foreign.size());
    EXPECT_EQ(registry.counter_value("protocol.summary_pulls"), pulls);

    // The receiving directory is still alive and answering.
    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(1, desc::serialize_request(request));
    network.run_for(5000);
    EXPECT_TRUE(network.outcome(id).answered);
    EXPECT_TRUE(network.outcome(id).satisfied);
}

}  // namespace
}  // namespace sariadne::ariadne
