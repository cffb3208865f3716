// The S-Ariadne discovery protocol (§4) and its syntactic ancestor Ariadne,
// implemented over the Transport seam (ariadne/transport.hpp): the same
// protocol logic runs on the discrete-event simulator (SimTransport) and
// on real sockets (net::EventLoopTransport, hosting sariadne_daemon).
//
// Roles and flows:
//   * Directory backbone — nodes elected on the fly: a node that has not
//     heard a directory advertisement within `adv_timeout_ms` broadcasts an
//     election call (TTL `election_ttl`); candidates answer with a fitness
//     score (coverage/resources model); the best candidate is appointed,
//     becomes a directory, and advertises periodically within
//     `vicinity_hops`.
//   * Publish — each provider registers its description with the nearest
//     directory, which parses and classifies it into its capability DAGs
//     (semantic mode) or stores the WSDL document (syntactic mode), and
//     summarizes content (summary::RoutingSummary: a Bloom filter over
//     ontology URIs, or the exact concept-code summary).
//   * Discover — the client queries its vicinity directory. The directory
//     answers locally; if the request is not fully satisfied it forwards it
//     — in S-Ariadne only to peer directories whose summaries admit the
//     request; in Ariadne to every directory — then aggregates replies and
//     responds.
//
// Local directory compute (parse/classify/match) is measured in real
// milliseconds and charged as virtual service time, so end-to-end response
// times combine protocol latency with the very matching costs Figures 9/10
// measure. Directory membership is bootstrapped through a shared context
// (the paper's "virtual network" of directories); all data still moves in
// messages, so traffic accounting is faithful.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ariadne/transport.hpp"
#include "ariadne/wire.hpp"
#include "bloom/bloom_filter.hpp"
#include "directory/semantic_directory.hpp"
#include "directory/syntactic_directory.hpp"
#include "reasoner/knowledge_base.hpp"
#include "obs/metrics.hpp"
#include "summary/routing_summary.hpp"
#include "support/rng.hpp"

// Fwd decl only: the Topology-taking convenience constructor is
// declared here but defined in net/sim_transport.cpp, so this header
// never includes the higher net layer.
namespace sariadne::net {
class Topology;
}  // namespace sariadne::net

namespace sariadne::ariadne {

enum class Protocol : std::uint8_t {
    kAriadne,   ///< syntactic WSDL directories, flood forwarding
    kSAriadne,  ///< semantic DAG directories, Bloom-selective forwarding
};

struct ProtocolConfig {
    Protocol protocol = Protocol::kSAriadne;
    double adv_period_ms = 2000;    ///< directory advertisement period
    double adv_timeout_ms = 5000;   ///< silence before a node calls an election
    double election_wait_ms = 60;   ///< time to collect candidacies
    std::uint32_t vicinity_hops = 2;
    std::uint32_t election_ttl = 2;
    bloom::BloomParams bloom{};     ///< summary parameters (semantic mode)
    /// Which directory-summary backend semantic directories maintain and
    /// exchange: Bloom filters over ontology URIs (default, byte-identical
    /// to the pre-exact protocol) or exact interval bitmaps over concept
    /// codes ("summary-bitmap"/"summary-delta" pushes, zero routing false
    /// positives at concept granularity).
    summary::SummaryBackend summary_backend = summary::SummaryBackend::kBloom;
    std::size_t summary_push_every = 8;  ///< publishes between summary pushes
    /// Forwarded requests answered empty before a fresh summary is pulled
    /// (the paper's reactive exchange on false-positive threshold).
    std::size_t false_positive_pull_threshold = 3;
    /// Providers re-advertise their services this often (0 = never). The
    /// paper's directories "cache the descriptions of the services
    /// available in their vicinity"; periodic re-publication is what
    /// repopulates a freshly elected directory after churn.
    double republish_period_ms = 0;
    /// Clients re-send unanswered requests after this long (0 = never).
    double request_timeout_ms = 0;
    int max_request_retries = 2;
    /// Acknowledged publish: when > 0, every publish carries an id the
    /// serving directory acks (`pub-ack`); unacked publishes are
    /// retransmitted with exponential backoff plus deterministic jitter,
    /// re-routed per attempt, up to `publish_max_retries` before the
    /// attempt is abandoned (the periodic republish remains the long-term
    /// safety net). 0 = legacy fire-and-forget publish: no ack traffic, no
    /// retransmit state — byte-identical to the pre-ack protocol.
    double publish_ack_timeout_ms = 0;
    int publish_max_retries = 4;
    double publish_backoff_factor = 2.0;
    double publish_backoff_max_ms = 8000;
    /// Seed for protocol-side randomness (retransmit jitter). Jitter is
    /// only drawn on the acknowledged-publish path, so runs with acks off
    /// never consult the generator.
    std::uint64_t jitter_seed = 0x0A11ACEDULL;
};

/// Result of one discovery request, as observed by the client.
struct DiscoveryOutcome {
    bool answered = false;
    bool satisfied = false;
    /// Terminal: no further updates will arrive — the request was
    /// satisfied, ran without a retry budget, or exhausted its retries.
    bool terminal = false;
    /// The retry budget ran out without a satisfying answer; the request
    /// was abandoned (counted in `protocol.requests_expired`).
    bool expired = false;
    std::vector<directory::MatchHit> hits;
    net::SimTime issued_at = 0;
    net::SimTime answered_at = 0;
    double directory_compute_ms = 0;  ///< summed real matching time
    std::uint32_t directories_asked = 0;

    net::SimTime response_time_ms() const noexcept {
        return answered_at - issued_at;
    }
};

class DiscoveryNetwork {
public:
    /// Primary constructor: the protocol speaks exclusively through
    /// `transport` (owned). `kb` must outlive the network and contain
    /// every ontology the workload references (semantic mode). The
    /// protocol, its directories and the transport report into `metrics`
    /// (`protocol.*`, `directory.*`, `sim.*` / `transport.*`), or into a
    /// registry the network owns when `metrics` is null; a caller's
    /// registry must outlive the network.
    DiscoveryNetwork(std::unique_ptr<Transport> transport,
                     ProtocolConfig config, encoding::KnowledgeBase& kb,
                     obs::MetricsRegistry* metrics = nullptr);

    /// Simulator-testbed convenience: builds a SimTransport over
    /// `topology`. Defined in net/sim_transport.cpp so neither this header nor
    /// protocol.cpp depends on net/simulator.hpp; reach the simulator via
    /// ariadne::sim(network) (net/sim_transport.hpp) when a test needs faults
    /// or topology control.
    DiscoveryNetwork(net::Topology topology, ProtocolConfig config,
                     encoding::KnowledgeBase& kb,
                     obs::MetricsRegistry* metrics = nullptr);
    ~DiscoveryNetwork();

    DiscoveryNetwork(const DiscoveryNetwork&) = delete;
    DiscoveryNetwork& operator=(const DiscoveryNetwork&) = delete;

    Transport& transport() noexcept { return *transport_; }
    const Transport& transport() const noexcept { return *transport_; }

    /// Current time on the transport's clock (virtual or real ms).
    net::SimTime now() const { return transport_->now(); }

    /// True when the transport has nothing queued (see Transport::idle).
    bool idle() const { return transport_->idle(); }

    std::size_t node_count() const { return transport_->node_count(); }

    /// Starts node timers; call once before run().
    void start();

    /// Statically appoints a directory (tests / controlled benches); the
    /// normal path is timeout-driven election.
    void appoint_directory(net::NodeId node);

    /// Graceful directory resignation (low battery, planned departure):
    /// the directory exports its cached descriptions and hands them to the
    /// nearest peer directory — or, if it was the last one, calls an
    /// election and hands over to the winner once it advertises. This is
    /// the paper's Figure 7 scenario ("a directory leaves ... another one
    /// is elected and has to host the set of service descriptions").
    void resign_directory(net::NodeId node);

    /// Provider-side publish: ships the description document to the
    /// nearest directory. Returns the publish id when acknowledged
    /// publishing is configured, 0 on fire-and-forget.
    std::uint64_t publish_service(net::NodeId provider,
                                  std::string document_xml);

    /// Provider-side bulk publish: ships every document in one
    /// "pub-batch" datagram so the directory takes the batched ingest
    /// path (SemanticDirectory::publish_batch). Fire-and-forget only —
    /// with acknowledged publishing configured each document needs its
    /// own retransmit state, so this falls back to per-document
    /// publish_service and returns the last publish id.
    std::uint64_t publish_batch(net::NodeId provider,
                                std::vector<std::string> documents);

    /// Client-side discovery; returns the request id whose outcome can be
    /// read after the simulation ran.
    std::uint64_t discover(net::NodeId client, std::string request_xml);

    /// A request document prepared for matching: parsed once and resolved
    /// against the knowledge base, so repeat documents (periodic
    /// rediscovery, retries, forwarded copies) skip both the XML parse and
    /// the per-capability signature resolution on the query hot path.
    struct PreparedRequest {
        desc::ServiceRequest request;
        std::vector<desc::ResolvedCapability> resolved;
        /// KnowledgeBase::environment_tag at resolution time; a mismatch
        /// (ontology registered/upgraded since) forces a re-resolve.
        std::uint64_t env_tag = 0;
    };

    /// Parse+resolve-memoized request document. desc::parse_request is
    /// pure — the parse depends only on the document bytes — so the parsed
    /// request is cached verbatim; the resolution additionally depends on
    /// the knowledge base and is stamped with its environment tag and
    /// refreshed when that tag moves. Reactor-thread only, like every
    /// handler (see the Transport threading contract).
    const PreparedRequest& prepared_request(const std::string& document);

    /// Drives the transport for `duration_ms` (virtual or real ms).
    void run_for(net::SimTime duration_ms);

    const DiscoveryOutcome& outcome(std::uint64_t request_id) const;

    std::vector<net::NodeId> directories() const;
    bool is_directory(net::NodeId node) const;

    /// Directory serving a node (nearest by hops), kNoNode when none.
    net::NodeId directory_for(net::NodeId node) const;

    /// The simulated traffic so far, read from the `sim.*` counters of
    /// metrics() (all zero on a socket transport, which counts under
    /// `transport.*`).
    net::TrafficStats traffic() const { return net::read_traffic(metrics()); }

    /// Live retry-state entries (requests still holding a retry budget);
    /// drains to zero once every request is satisfied or expired —
    /// regression surface for the retry-state leak.
    std::size_t retry_backlog() const noexcept { return retry_state_.size(); }

    /// Outstanding acknowledged publishes across all providers; drains to
    /// zero once every publish was acked or exhausted its retransmit
    /// budget (always zero with acks disabled).
    std::size_t publish_backlog() const noexcept;

    /// The registry the network reports into: the caller's, or its own.
    obs::MetricsRegistry& metrics() const noexcept {
        return *metrics_.registry;
    }

    /// Node fitness used by elections (deterministic pseudo-battery ×
    /// degree); exposed for tests.
    double fitness(net::NodeId node) const;

private:
    struct NodeState;

    /// A request a directory is answering, keyed in NodeState::pending by
    /// an id the directory assigns (and sends in its forwards).
    struct PendingRequest {
        std::uint64_t request_id = 0;  ///< the client's id, for the Response
        net::NodeId client = net::kNoNode;
        std::string request_xml;  ///< filled only when the request is forwarded
        std::vector<directory::MatchHit> hits;
        bool local_satisfied = false;
        std::size_t outstanding = 0;
        double compute_ms = 0;
        std::uint32_t directories_asked = 0;
    };

    struct RetryState {
        net::NodeId client = net::kNoNode;
        std::string document;
        int retries_left = 0;
    };

    void node_check_advertisement(net::NodeId node);
    /// The directory a node publishes and discovers through: the one it
    /// last heard advertise while that node is still an up directory,
    /// else directory_for(node).
    net::NodeId serving_directory(net::NodeId node) const;
    /// Records a document the provider owns and arms its re-advertisement
    /// timer on the first one.
    void own_service(net::NodeId provider, const std::string& document_xml);
    void republish(net::NodeId provider);
    void check_request_timeout(std::uint64_t request_id);
    /// Routes an outstanding acknowledged publish to the current nearest
    /// directory (or arms a deferral poll when none is reachable) and
    /// schedules its ack-timeout check.
    void send_publish(net::NodeId provider, std::uint64_t pub_id);
    void check_publish_timeout(net::NodeId provider, std::uint64_t pub_id,
                               std::uint64_t expected_attempt);
    /// Marks an outcome terminal exactly once: releases its retry state,
    /// reaps abandoned directory-side pending entries and settles the
    /// in-flight/expired accounting.
    void conclude_request(std::uint64_t request_id, DiscoveryOutcome& outcome,
                          bool expired);
    void node_start_election(net::NodeId node);
    void close_election(net::NodeId initiator);
    void become_directory(net::NodeId node);
    void directory_advertise(net::NodeId node);
    /// Sends peers what RoutingSummary::push says they need, if anything.
    void push_summary(net::NodeId directory);
    /// Pushes after publishes that moved the summary version (peers would
    /// otherwise route on stale coverage) and every summary_push_every
    /// publishes.
    void after_publishes(net::NodeId directory, std::uint64_t version_before,
                         std::size_t published);
    void pull_summary(net::NodeId self, net::NodeId peer);
    /// Unicasts a summary image in the message its kind travels as.
    void send_summary(net::NodeId from, net::NodeId to, summary::Image image);
    void receive_summary(net::NodeId self, net::NodeId from,
                         const summary::ImageView& image);
    void handle_message(net::NodeId self, const net::Message& msg);
    /// Unicasts `payload` as a message whose type follows from it.
    void send(net::NodeId from, net::NodeId to, wire::Payload payload);
    void handle_publish(net::NodeId self, const net::Message& msg);
    void handle_publish_batch(net::NodeId self, const net::Message& msg);
    void handle_request(net::NodeId self, const net::Message& msg);
    void handle_forward(net::NodeId self, const net::Message& msg);
    void handle_forward_reply(net::NodeId self, const net::Message& msg);
    void finish_request(net::NodeId directory_node, PendingRequest& pending);
    /// Peer directories an unsatisfied request goes to; none while the node
    /// holds no peer summary. S-Ariadne routes on
    /// the prepared_request memo entry local_query just filled for
    /// `document`, so the document is not parsed a second time.
    std::vector<net::NodeId> forward_targets(net::NodeId self,
                                             const std::string& document);
    /// Runs the local query of one directory (semantic or syntactic);
    /// returns per-capability hits and fills `compute_ms` with the real
    /// time spent. The semantic branch replays the memoized parse+resolve
    /// into the reactor's reused QueryResult scratch.
    std::vector<std::vector<directory::MatchHit>> local_query(
        directory::SemanticDirectory* semdir,
        directory::SyntacticDirectory* syndir, const std::string& document,
        double& compute_ms);

    /// Handles into the registry the network reports into, all resolved
    /// by the constructor.
    struct Metrics {
        explicit Metrics(obs::MetricsRegistry& target);

        obs::MetricsRegistry* registry;
        obs::Counter* requests_issued;
        obs::Counter* requests_retried;
        obs::Counter* requests_expired;
        obs::Counter* requests_satisfied;
        obs::Counter* requests_unsatisfied;
        obs::Counter* responses;
        obs::Counter* forwards;
        obs::Counter* elections_started;
        obs::Counter* directories_elected;
        obs::Counter* handovers;
        obs::Counter* summary_pushes;
        obs::Counter* summary_pulls;
        obs::Counter* summary_pull_replies;
        obs::Counter* bloom_false_positives;
        obs::Counter* bloom_wire_rejected;
        obs::Counter* summary_bytes_sent;
        obs::Counter* summary_delta_pushes;
        obs::Counter* forwards_saved_exact;
        obs::Counter* pending_reaped;
        obs::Counter* publishes_acked;
        obs::Counter* publishes_retried;
        obs::Counter* publishes_expired;
        obs::Counter* publish_nacks;
        obs::Counter* duplicates_dropped;
        obs::Counter* malformed_publishes;
        obs::Counter* malformed_requests;
        obs::Gauge* requests_in_flight;
        obs::Gauge* directories;
        obs::Gauge* retry_backlog;
        obs::Gauge* publish_outstanding;
        obs::Gauge* deferred_publishes;
        obs::Gauge* deferred_requests;
        obs::Histogram* response_ms;
        obs::Histogram* directory_compute_ms;
    };

    std::unique_ptr<Transport> transport_;
    ProtocolConfig config_;
    encoding::KnowledgeBase* kb_;
    std::unique_ptr<obs::MetricsRegistry> own_registry_;  ///< when none passed
    Metrics metrics_;
    std::vector<std::unique_ptr<NodeState>> nodes_;
    std::unordered_map<std::uint64_t, DiscoveryOutcome> outcomes_;
    std::unordered_map<std::uint64_t, RetryState> retry_state_;
    /// prepared_request memo; bounded by wholesale reset (distinct request
    /// documents in any deployment are few, so eviction order is moot).
    std::unordered_map<std::string, PreparedRequest> request_parse_cache_;
    /// Reactor-thread query scratch: one QueryResult reused across every
    /// local semantic query, so a pipelined request burst recycles the hit
    /// vectors/strings instead of reallocating them per message.
    directory::QueryResult local_query_scratch_;
    std::uint64_t next_request_id_ = 1;
    std::uint64_t next_pending_id_ = 1;
    std::uint64_t next_pub_id_ = 1;
    /// Retransmit-jitter source; consulted only on acknowledged-publish
    /// paths so ack-off runs replay the pre-ack protocol exactly.
    Rng jitter_rng_;
};

}  // namespace sariadne::ariadne
