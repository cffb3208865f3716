#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ariadne/protocol.hpp"
#include "net/sim_transport.hpp"
#include "description/amigos_io.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace sariadne::obs {
namespace {

TEST(Metrics, CounterAndGaugeBasics) {
    MetricsRegistry registry;
    registry.counter("layer.events").inc();
    registry.counter("layer.events").inc(4);
    EXPECT_EQ(registry.counter_value("layer.events"), 5u);
    EXPECT_EQ(registry.counter_value("layer.absent"), 0u);

    Gauge& depth = registry.gauge("layer.depth");
    depth.add(7);
    depth.sub(2);
    EXPECT_EQ(registry.gauge_value("layer.depth"), 5);
    depth.set(-3);
    EXPECT_EQ(registry.gauge_value("layer.depth"), -3);
}

TEST(Metrics, HandlesAreStableAcrossLookups) {
    MetricsRegistry registry;
    Counter& first = registry.counter("c");
    Counter& again = registry.counter("c");
    EXPECT_EQ(&first, &again);
    Histogram& created = registry.histogram("h", {1.0, 2.0});
    Histogram& reused = registry.histogram("h", {5.0});  // bounds fixed at birth
    EXPECT_EQ(&created, &reused);
    EXPECT_EQ(reused.bounds().size(), 2u);
}

TEST(Metrics, ConcurrentIncrementsAreExact) {
    MetricsRegistry registry;
    Counter& counter = registry.counter("t.hits");
    Gauge& gauge = registry.gauge("t.level");
    Histogram& histogram = registry.histogram("t.lat_ms", {1.0, 10.0});
    constexpr int kThreads = 8;
    constexpr int kRounds = 10000;
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&] {
            for (int i = 0; i < kRounds; ++i) {
                counter.inc();
                gauge.add(1);
                histogram.observe(0.5);
            }
        });
    }
    for (auto& worker : pool) worker.join();
    constexpr auto kTotal = std::uint64_t{kThreads} * kRounds;
    EXPECT_EQ(counter.value(), kTotal);
    EXPECT_EQ(gauge.value(), static_cast<std::int64_t>(kTotal));
    EXPECT_EQ(histogram.count(), kTotal);
    EXPECT_EQ(histogram.bucket(0), kTotal);
    EXPECT_DOUBLE_EQ(histogram.sum(), 0.5 * static_cast<double>(kTotal));
}

TEST(Metrics, HistogramBucketsAreUpperBoundInclusive) {
    Histogram histogram({1.0, 10.0});
    histogram.observe(0.5);
    histogram.observe(1.0);    // boundary value belongs to its own bucket
    histogram.observe(5.0);
    histogram.observe(100.0);  // above the last bound -> +Inf bucket
    EXPECT_EQ(histogram.bucket(0), 2u);
    EXPECT_EQ(histogram.bucket(1), 1u);
    EXPECT_EQ(histogram.bucket(2), 1u);
    EXPECT_EQ(histogram.count(), 4u);
    EXPECT_DOUBLE_EQ(histogram.mean(), 106.5 / 4.0);
}

TEST(Metrics, PrometheusExposition) {
    MetricsRegistry registry;
    registry.counter("proto.count{type=\"fwd\"}").inc(3);
    registry.gauge("proto.depth").set(-2);
    Histogram& latency = registry.histogram("proto.lat_ms", {1.0, 10.0});
    latency.observe(0.5);
    latency.observe(100.0);
    const std::string text = registry.to_prometheus();
    EXPECT_NE(text.find("sariadne_proto_count_total{type=\"fwd\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("sariadne_proto_depth -2\n"), std::string::npos);
    EXPECT_NE(text.find("sariadne_proto_lat_ms_bucket{le=\"1\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("sariadne_proto_lat_ms_bucket{le=\"+Inf\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("sariadne_proto_lat_ms_count 2\n"), std::string::npos);
}

TEST(Metrics, JsonExposition) {
    MetricsRegistry registry;
    registry.counter("a.count").inc(2);
    registry.histogram("a.lat_ms", {1.0}).observe(0.25);
    const std::string json = registry.to_json();
    EXPECT_NE(json.find("\"a.count\":2"), std::string::npos);
    EXPECT_NE(json.find("\"count\":1"), std::string::npos);
    EXPECT_NE(json.find("\"buckets\":[[\"1\",1],[\"+Inf\",0]]"),
              std::string::npos);
}

// Regression: the summary-pull reply handler used to count its reactive
// push under protocol.summary_pushes, conflating the proactive push flow
// with pull replies. With two directories — the second appointed after the
// first — exactly one proactive push (new directory announcing its empty
// summary to the established peer), one pull, and one reactive reply
// happen, and each must land in its own counter.
TEST(MetricsIntegration, SummaryPullRepliesAreNotCountedAsPushes) {
    namespace th = sariadne::testing;

    encoding::KnowledgeBase kb;
    kb.register_ontology(th::media_ontology());
    kb.register_ontology(th::server_ontology());

    ariadne::ProtocolConfig config;
    config.protocol = ariadne::Protocol::kSAriadne;
    config.adv_timeout_ms = 1e9;  // no spontaneous elections

    MetricsRegistry registry;
    ariadne::DiscoveryNetwork network(net::Topology::grid(3, 1), config, kb,
                                      &registry);
    network.appoint_directory(0);
    network.start();
    network.run_for(200);
    EXPECT_EQ(registry.counter_value("protocol.summary_pushes"), 0u);
    EXPECT_EQ(registry.counter_value("protocol.summary_pulls"), 0u);
    EXPECT_EQ(registry.counter_value("protocol.summary_pull_replies"), 0u);

    network.appoint_directory(2);
    network.run_for(200);
    EXPECT_EQ(registry.counter_value("protocol.summary_pushes"), 1u);
    EXPECT_EQ(registry.counter_value("protocol.summary_pulls"), 1u);
    EXPECT_EQ(registry.counter_value("protocol.summary_pull_replies"), 1u);
}

// Components built without a registry count into one they own; built
// with one, they report into it. Either way metrics() is where the counts
// are.
TEST(MetricsIntegration, ComponentsWithoutARegistryCountIntoTheirOwn) {
    namespace th = sariadne::testing;

    encoding::KnowledgeBase kb;
    kb.register_ontology(th::media_ontology());
    kb.register_ontology(th::server_ontology());
    ariadne::ProtocolConfig config;
    config.adv_timeout_ms = 1e9;  // no spontaneous elections
    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());

    directory::SemanticDirectory directory(kb);
    directory.publish(th::workstation_service());
    EXPECT_EQ(directory.metrics().counter_value(names::kDirectoryPublishes),
              1u);

    ariadne::DiscoveryNetwork network(net::Topology::grid(3, 1), config, kb);
    network.appoint_directory(0);
    network.publish_service(
        1, desc::serialize_service(th::workstation_service()));
    network.run_for(100);
    const auto id = network.discover(2, desc::serialize_request(request));
    network.run_for(100);
    EXPECT_TRUE(network.outcome(id).satisfied);
    const MetricsRegistry& own = network.metrics();
    EXPECT_EQ(own.counter_value(names::kDirectoryPublishes), 1u);
    EXPECT_EQ(own.counter_value(names::kProtocolRequestsIssued), 1u);
    EXPECT_EQ(own.counter_value(names::kProtocolRequestsSatisfied), 1u);
    EXPECT_EQ(&sim(network).metrics(), &own);
    EXPECT_GT(network.traffic().unicasts, 0u);
    EXPECT_EQ(network.traffic().unicasts,
              own.counter_value(names::kSimUnicasts));

    net::Simulator simulator(net::Topology::grid(2, 1));
    simulator.unicast(0, 1, net::make_message(ariadne::wire::SummaryPull{}));
    EXPECT_EQ(simulator.metrics().counter_value(names::kSimUnicasts), 1u);

    MetricsRegistry registry;
    directory::SemanticDirectory attached_directory(kb, {}, &registry);
    EXPECT_EQ(&attached_directory.metrics(), &registry);
    ariadne::DiscoveryNetwork attached_network(net::Topology::grid(3, 1),
                                               config, kb, &registry);
    EXPECT_EQ(&attached_network.metrics(), &registry);
    EXPECT_EQ(&sim(attached_network).metrics(), &registry);
    simulator.set_metrics(registry);
    EXPECT_EQ(&simulator.metrics(), &registry);
}

// End-to-end accounting coherence over a churn run: every issued request
// lands in exactly one terminal bin (satisfied / unsatisfied / expired)
// or is still in flight, and draining the retry budget leaves no backlog.
TEST(MetricsIntegration, ChurnRunKeepsRequestAccountingCoherent) {
    namespace th = sariadne::testing;

    encoding::KnowledgeBase kb;
    kb.register_ontology(th::media_ontology());
    kb.register_ontology(th::server_ontology());

    ariadne::ProtocolConfig config;
    config.adv_period_ms = 500;
    config.adv_timeout_ms = 1500;
    config.election_wait_ms = 30;
    config.republish_period_ms = 1000;
    config.request_timeout_ms = 400;
    config.max_request_retries = 2;

    MetricsRegistry registry;
    ariadne::DiscoveryNetwork network(net::Topology::grid(4, 4), config, kb,
                                      &registry);
    network.appoint_directory(5);
    network.start();
    network.run_for(200);

    network.publish_service(
        0, desc::serialize_service(th::workstation_service()));
    network.run_for(800);

    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const std::string request_xml = desc::serialize_request(request);
    std::uint64_t issued = 0;
    for (int tick = 0; tick < 10; ++tick) {
        if (tick == 5) sim(network).topology().set_up(5, false);
        network.discover(static_cast<net::NodeId>((tick * 3 + 1) % 16),
                         request_xml);
        ++issued;
        network.run_for(400);
    }
    network.run_for(20000);  // drain retries, expiries and re-election

    EXPECT_EQ(registry.counter_value("protocol.requests_issued"), issued);
    const auto satisfied = registry.counter_value("protocol.requests_satisfied");
    const auto unsatisfied =
        registry.counter_value("protocol.requests_unsatisfied");
    const auto expired = registry.counter_value("protocol.requests_expired");
    const auto in_flight = registry.gauge_value("protocol.requests_in_flight");
    EXPECT_EQ(satisfied + unsatisfied + expired +
                  static_cast<std::uint64_t>(in_flight),
              issued);
    // Every request carried a retry budget, so all of them terminated.
    EXPECT_EQ(in_flight, 0);
    EXPECT_GT(satisfied, 0u);
    EXPECT_EQ(network.retry_backlog(), 0u);
    EXPECT_EQ(registry.gauge_value("protocol.retry_backlog"), 0);
    EXPECT_EQ(registry.gauge_value("protocol.deferred_requests"), 0);
}

}  // namespace
}  // namespace sariadne::obs
