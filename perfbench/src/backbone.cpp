#include "backbone.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>

#include <unistd.h>

#include "ariadne/protocol.hpp"
#include "daemon_load.hpp"
#include "description/amigos_io.hpp"
#include "description/resolved.hpp"
#include "matching/match.hpp"
#include "matching/oracles.hpp"
#include "net/sim_transport.hpp"
#include "net/topology.hpp"
#include "obs/metric_names.hpp"
#include "support/hash.hpp"

namespace perfbench {

namespace {

using namespace sariadne;

// A random-geometric MANET sized so the 2-hop vicinity election yields at
// least kMinDirectories directories (topologies that elect fewer are
// redrawn from the same generator). The topology is one fixed draw for
// every seed: the number of directories sets the forwarding fan-out, and
// letting it vary with the seed would swamp every other effect. The seed
// places the providers and draws the discoveries.
constexpr std::size_t kNodes = 64;
constexpr double kRadioRange = 0.2;
constexpr std::size_t kMinDirectories = 6;
constexpr std::uint64_t kTopologySeed = 0xBAC0B0E5ULL;
constexpr std::size_t kMidConcurrency = 8;
constexpr std::size_t kCapacityConcurrency = 64;
/// Virtual time after which an unanswered discovery counts as failed.
constexpr double kGiveUpMs = 30000;

using MatchSet = std::vector<std::pair<std::string, int>>;

/// Every (service, distance) that matches each request, by brute force
/// over every provided capability: no DAG, summary or routing involved.
std::vector<MatchSet> all_matches(Inputs& inputs) {
    std::vector<desc::ResolvedCapability> provided;
    for (const std::string& doc : inputs.services) {
        for (auto& cap : desc::resolve_provided(desc::parse_service(doc), inputs.kb)) {
            provided.push_back(std::move(cap));
        }
    }
    matching::EncodedOracle oracle(inputs.kb);
    std::vector<MatchSet> sets;
    sets.reserve(inputs.requests.size());
    for (const std::string& doc : inputs.requests) {
        MatchSet set;
        for (const auto& wanted :
             desc::resolve_request(desc::parse_request(doc), inputs.kb)) {
            for (const auto& cap : provided) {
                const auto outcome = matching::match_capability(cap, wanted, oracle);
                if (outcome.matched) {
                    set.emplace_back(cap.service_name, outcome.semantic_distance);
                }
            }
        }
        std::sort(set.begin(), set.end());
        sets.push_back(std::move(set));
    }
    return sets;
}

/// Declared in destruction order: the network refers to both others.
struct Backbone {
    std::unique_ptr<encoding::KnowledgeBase> kb;
    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<ariadne::DiscoveryNetwork> network;
    std::vector<net::NodeId> directory_of;  ///< nearest directory per node
};

net::NodeId provider_of(const Inputs& inputs, std::size_t service) {
    return static_cast<net::NodeId>(
        mix64(inputs.seed ^ ((service + 1) * 0x9E3779B97F4A7C15ULL)) % kNodes);
}

/// Knowledge base, topology, election and the publish warm-up.
void set_up(const Inputs& inputs, Backbone& b) {
    b.network.reset();
    b.kb = std::make_unique<encoding::KnowledgeBase>();
    for (const auto& ontology : inputs.generator->ontologies()) {
        b.kb->register_ontology(ontology);
    }
    ariadne::ProtocolConfig config;
    config.adv_period_ms = 1000;
    config.adv_timeout_ms = 3000;
    config.vicinity_hops = 2;
    Rng rng(kTopologySeed);
    for (int attempt = 0;; ++attempt) {
        b.network.reset();
        b.registry = std::make_unique<obs::MetricsRegistry>();
        b.network = std::make_unique<ariadne::DiscoveryNetwork>(
            net::Topology::random_geometric(kNodes, kRadioRange, rng), config,
            *b.kb, b.registry.get());
        b.network->start();
        b.network->run_for(15000);
        if (b.network->directories().size() >= kMinDirectories) break;
        if (attempt == 16) {
            throw std::runtime_error("no topology elected enough directories");
        }
    }
    for (std::size_t i = 0; i < inputs.services.size(); ++i) {
        b.network->publish_service(provider_of(inputs, i), inputs.services[i]);
    }
    b.network->run_for(5000);
    b.directory_of.assign(kNodes, net::kNoNode);
    for (net::NodeId node = 0; node < kNodes; ++node) {
        b.directory_of[node] = b.network->directory_for(node);
    }
}

/// The client of stream operation g: for a request generated to match a
/// service, a node whose nearest directory is not that service's (so
/// the answer needs the backbone); for a random request, any node.
net::NodeId client_for(const Inputs& inputs, const Backbone& b, std::uint64_t g,
                       std::uint32_t doc) {
    const auto start = static_cast<net::NodeId>(
        mix64(inputs.seed ^ ((g + 1) * 0x94D049BB133111EBULL)) % kNodes);
    const std::int64_t target = inputs.target[doc];
    if (target < 0) return start;
    const net::NodeId home =
        b.directory_of[provider_of(inputs, static_cast<std::size_t>(target))];
    for (net::NodeId k = 0; k < kNodes; ++k) {
        const net::NodeId node = (start + k) % kNodes;
        if (b.directory_of[node] != home) return node;
    }
    return start;
}

/// A discovery fails when it ends unanswered or expired, ends unsatisfied
/// while some service matches, or returns a hit the brute force does not
/// list at that distance.
bool correct(const ariadne::DiscoveryOutcome& outcome, const MatchSet& matches) {
    if (!outcome.answered || outcome.expired) return false;
    if (!outcome.satisfied) return matches.empty();
    for (const auto& hit : outcome.hits) {
        if (!std::binary_search(matches.begin(), matches.end(),
                                std::make_pair(hit.service_name, hit.semantic_distance))) {
            return false;
        }
    }
    return true;
}

struct Flight {
    std::uint64_t id = 0;
    std::uint32_t doc = 0;
    Clock::time_point started;
    double issued_ms = 0;
};

/// The phases run round-robin — low, mid, capacity, low, ... — in this
/// many rounds, so host contention that drifts over seconds lands on every
/// phase alike. Each phase reports its best slot (lowest p50, highest
/// rate): interference only slows a slot down, never speeds it up.
constexpr std::size_t kRounds = 10;


struct SlotOutcome {
    std::vector<double> latency_us;
    std::uint64_t completed_in_slot = 0;
    std::uint64_t issued = 0;
    std::uint64_t wrong = 0;
};

/// Keeps up to `concurrency` discoveries in flight, taking each next one
/// from `next(g, doc)` until it returns false, and advances the simulator
/// `batch` events between completion checks until the last one finished.
/// Latency is wall time from discover() to the check that saw the answer;
/// completions before `end` count toward the slot's rate.
template <typename Next>
SlotOutcome drive(const Inputs& inputs, Backbone& b,
                  const std::vector<MatchSet>& matches, std::size_t concurrency,
                  std::size_t batch, Clock::time_point end, Next&& next) {
    SlotOutcome out;
    ariadne::DiscoveryNetwork& network = *b.network;
    net::Simulator& sim = ariadne::sim(network);
    std::vector<Flight> flights;
    const auto issue = [&] {
        std::uint64_t g = 0;
        std::uint32_t doc = 0;
        if (!next(g, doc)) return;
        Flight flight;
        flight.doc = doc;
        flight.started = Clock::now();
        flight.issued_ms = network.now();
        flight.id = network.discover(client_for(inputs, b, g, doc), inputs.requests[doc]);
        flights.push_back(flight);
        ++out.issued;
    };
    for (std::size_t i = 0; i < concurrency; ++i) issue();
    while (!flights.empty()) {
        const bool idle = sim.step(batch) == 0;
        const auto now = Clock::now();
        for (std::size_t i = 0; i < flights.size();) {
            const Flight& flight = flights[i];
            const ariadne::DiscoveryOutcome& outcome = network.outcome(flight.id);
            if (!outcome.answered && !idle &&
                network.now() - flight.issued_ms <= kGiveUpMs) {
                ++i;
                continue;
            }
            out.latency_us.push_back(us_between(flight.started, now));
            if (now <= end) ++out.completed_in_slot;
            if (!correct(outcome, matches[flight.doc])) ++out.wrong;
            flights[i] = flights.back();
            flights.pop_back();
            issue();
        }
    }
    return out;
}

/// One timed slot: `seconds` of wall time drawing the operation stream.
SlotOutcome run_slot(const Inputs& inputs, Backbone& b,
                     const std::vector<MatchSet>& matches, std::uint64_t& next_op,
                     std::size_t concurrency, std::size_t batch, double seconds) {
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
    return drive(inputs, b, matches, concurrency, batch, end,
                 [&](std::uint64_t& g, std::uint32_t& doc) {
                     if (Clock::now() >= end) return false;
                     g = next_op++;
                     doc = inputs.op(g).doc;
                     return true;
                 });
}

/// Discovers every distinct request once, kCapacityConcurrency in flight
/// and every answer checked, so the backbone holds its per-document state
/// before the process's memory is read.
SlotOutcome prime(const Inputs& inputs, Backbone& b, const std::vector<MatchSet>& matches) {
    std::uint32_t next_doc = 0;
    const auto n = static_cast<std::uint32_t>(inputs.requests.size());
    return drive(inputs, b, matches, kCapacityConcurrency, 64, Clock::time_point{},
                 [&](std::uint64_t& g, std::uint32_t& doc) {
                     if (next_doc == n) return false;
                     doc = next_doc++;
                     g = doc;
                     return true;
                 });
}

}  // namespace

void run_backbone_workload(Inputs& inputs, double seconds, bool traced,
                           Report& report) {
    const std::vector<MatchSet> matches = all_matches(inputs);

    Backbone b;
    std::vector<double> setup_s;
    while (want_another_setup(setup_s, traced)) {
        const auto start = Clock::now();
        set_up(inputs, b);
        setup_s.push_back(seconds_between(start, Clock::now()));
    }
    std::string setup_list;
    for (const double s : setup_s) setup_list += format("%.4f s ", s);
    report.note("setup.samples", setup_list);
    report.note("backbone", std::to_string(kNodes) + " nodes, " +
                                std::to_string(b.network->directories().size()) +
                                " directories");
    // Discovery outcomes stay in the network, so memory is read at a fixed
    // point, not after however many discoveries the host's speed allowed.
    const SlotOutcome primed = prime(inputs, b, matches);
    report.attempted += primed.issued;
    report.failed += primed.wrong;
    const double rss_mb = vm_hwm_mb(static_cast<int>(::getpid()));

    const net::TrafficStats before = b.network->traffic();
    const double forwards_before = static_cast<double>(
        b.registry->counter_value(obs::names::kProtocolForwards));
    const double false_pos_before = static_cast<double>(
        b.registry->counter_value(obs::names::kProtocolBloomFalsePositives));

    struct Phase {
        const char* name;
        std::size_t concurrency;
        std::size_t batch;
        double share;  ///< of the measured seconds
        std::vector<double> slot_p50;
        std::vector<double> slot_rate;
        std::vector<double> latency_us;
    };
    Phase phases[] = {{"low", 1, 1, 0.25, {}, {}, {}},
                      {"mid", kMidConcurrency, 1, 0.25, {}, {}, {}},
                      {"capacity", kCapacityConcurrency, 64, 0.5, {}, {}, {}}};
    std::uint64_t next_op = 0;
    std::uint64_t discoveries = 0;
    for (std::size_t round = 0; round < kRounds; ++round) {
        for (Phase& phase : phases) {
            const double slot_s = phase.share * seconds / kRounds;
            SlotOutcome out = run_slot(inputs, b, matches, next_op, phase.concurrency,
                                       phase.batch, slot_s);
            discoveries += out.issued;
            report.attempted += out.issued;
            report.failed += out.wrong;
            phase.slot_rate.push_back(static_cast<double>(out.completed_in_slot) / slot_s);
            phase.slot_p50.push_back(median(out.latency_us));
            phase.latency_us.insert(phase.latency_us.end(), out.latency_us.begin(),
                                    out.latency_us.end());
        }
    }
    for (Phase& phase : phases) {
        const LatencySummary latency = summarize(phase.latency_us);
        const double best_p50 =
            *std::min_element(phase.slot_p50.begin(), phase.slot_p50.end());
        const double best_rate =
            *std::max_element(phase.slot_rate.begin(), phase.slot_rate.end());
        report.note(std::string("phase.") + phase.name,
                    std::to_string(phase.concurrency) + " in flight, " +
                        std::to_string(kRounds) + " slots, " +
                        std::to_string(latency.samples) + " discoveries: p50 " +
                        format("%.1f", latency.p50) + " us, p99 " +
                        format("%.1f", latency.p99) + " us, p99.9 " +
                        format("%.1f", latency.p999) + " us; best slot p50 " +
                        format("%.1f", best_p50) + " us, rate " +
                        format("%.0f", best_rate) + " ops/s");
        if (phase.concurrency == kCapacityConcurrency) {
            report.add(MetricKind::kEndToEnd, "capacity_ops_s", best_rate, "ops/s");
        } else {
            report.add(MetricKind::kEndToEnd, std::string("p50_us_") + phase.name,
                       best_p50, "us");
            report.add(MetricKind::kInfo, std::string("p99_us_") + phase.name,
                       latency.p99, "us");
        }
    }

    report.add(MetricKind::kEndToEnd, "setup_s", median(setup_s), "s");
    report.add(MetricKind::kEndToEnd, "rss_mb", rss_mb, "MiB");

    const net::TrafficStats& after = b.network->traffic();
    const double n = discoveries > 0 ? static_cast<double>(discoveries) : 1;
    report.add(MetricKind::kLayer, "transport.frames_received_per_op",
               static_cast<double>(after.deliveries - before.deliveries) / n, "count");
    report.add(MetricKind::kLayer, "transport.frames_sent_per_op",
               static_cast<double>(after.unicasts - before.unicasts) / n, "count");
    report.add(MetricKind::kLayer, "transport.bytes_sent_per_op",
               static_cast<double>(after.bytes_transmitted - before.bytes_transmitted) / n,
               "bytes");
    report.add(MetricKind::kLayer, "protocol.forwards_per_request",
               (static_cast<double>(
                    b.registry->counter_value(obs::names::kProtocolForwards)) -
                forwards_before) /
                   n,
               "count");
    report.add(MetricKind::kLayer, "protocol.bloom_false_positives_per_request",
               (static_cast<double>(b.registry->counter_value(
                    obs::names::kProtocolBloomFalsePositives)) -
                false_pos_before) /
                   n,
               "count");
}

}  // namespace perfbench
