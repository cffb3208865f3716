#include "ariadne/protocol.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <unordered_set>
#include <utility>

#include "ariadne/wire.hpp"
#include "description/amigos_io.hpp"
#include "description/resolved.hpp"
#include "directory/state_transfer.hpp"
#include "obs/metric_names.hpp"
#include "support/catching.hpp"
#include "support/contracts.hpp"
#include "support/hash.hpp"
#include "support/stopwatch.hpp"

namespace sariadne::ariadne {

using directory::MatchHit;
using net::kNoNode;
using net::Message;
using net::NodeId;
using net::SimTime;

using wire::DirAdv;
using wire::ElectAppoint;
using wire::ElectCall;
using wire::ElectCandidate;
using wire::Forward;
using wire::ForwardResponse;
using wire::Handover;
using wire::MsgType;
using wire::PubAck;
using wire::PublishBatch;
using wire::PublishDoc;
using wire::PubNack;
using wire::Request;
using wire::Response;
using wire::SummaryBitmap;
using wire::SummaryDelta;
using wire::SummaryPull;
using wire::SummaryPush;

namespace {

/// Receiver-side dedup window: remembered wire sequence ids per node. A
/// few thousand entries cover every in-flight message many times over;
/// older ids cannot reappear (duplicates trail their original by at most
/// the jitter bound).
constexpr std::size_t kDedupWindow = 4096;

}  // namespace

// --- node state ------------------------------------------------------------

struct DiscoveryNetwork::NodeState {
    bool is_directory = false;
    SimTime last_adv = -1e18;
    NodeId known_directory = kNoNode;
    bool election_pending = false;
    SimTime election_started = 0;
    std::vector<ElectCandidate> candidates;

    std::unique_ptr<directory::SemanticDirectory> semdir;
    std::unique_ptr<directory::SyntacticDirectory> syndir;

    /// Summary exchange state, reset as a whole on resignation.
    struct Exchange {
        summary::PeerSummaries peers;  ///< what each peer last told us
        /// Our summary as the backbone last received it (the delta base);
        /// nullopt before the first push.
        std::optional<summary::RoutingSummary> last_pushed;
        std::unordered_map<NodeId, std::size_t> false_positives;
        std::size_t publishes_since_push = 0;
    };
    Exchange exchange;

    /// Requests this directory is answering, by directory-assigned id, and
    /// that id for each (client, client's request id).
    std::unordered_map<std::uint64_t, PendingRequest> pending;
    std::map<std::pair<NodeId, std::uint64_t>, std::uint64_t> pending_ids;

    void forget_pending(
        std::unordered_map<std::uint64_t, PendingRequest>::iterator it) {
        pending_ids.erase({it->second.client, it->second.request_id});
        pending.erase(it);
    }

    std::vector<std::string> deferred_publishes;
    std::vector<std::pair<std::uint64_t, std::string>> deferred_requests;

    /// Provider-side: documents this node owns and re-advertises.
    std::vector<std::string> owned_services;
    bool republish_scheduled = false;

    /// Acknowledged publishes awaiting their `pub-ack`.
    struct OutstandingPublish {
        std::string document;
        int retries_left = 0;
        double timeout_ms = 0;   ///< current backoff deadline
        bool awaiting_ack = false;  ///< false while no directory is reachable
        std::uint64_t attempt = 0;  ///< invalidates superseded timeout checks
    };
    std::unordered_map<std::uint64_t, OutstandingPublish> outstanding_publishes;

    /// Wire-level dedup window (insertion-ordered ring over a hash set).
    std::unordered_set<std::uint64_t> seen_wire;
    std::deque<std::uint64_t> seen_wire_order;

    /// True exactly once per wire id: false for a fault-injected
    /// duplicate delivery of an already-seen send.
    bool first_delivery(std::uint64_t wire_seq) {
        if (!seen_wire.insert(wire_seq).second) return false;
        seen_wire_order.push_back(wire_seq);
        if (seen_wire_order.size() > kDedupWindow) {
            seen_wire.erase(seen_wire_order.front());
            seen_wire_order.pop_front();
        }
        return true;
    }

    /// Resigned-directory state awaiting a successor (empty when none).
    std::string pending_handover;

    /// Set on resignation (e.g. low battery): the node no longer stands
    /// as an election candidate.
    bool declines_role = false;
};

// --- construction ------------------------------------------------------------

DiscoveryNetwork::Metrics::Metrics(obs::MetricsRegistry& target)
    : registry(&target),
      requests_issued(&target.counter(obs::names::kProtocolRequestsIssued)),
      requests_retried(&target.counter(obs::names::kProtocolRequestsRetried)),
      requests_expired(&target.counter(obs::names::kProtocolRequestsExpired)),
      requests_satisfied(
          &target.counter(obs::names::kProtocolRequestsSatisfied)),
      requests_unsatisfied(
          &target.counter(obs::names::kProtocolRequestsUnsatisfied)),
      responses(&target.counter(obs::names::kProtocolResponses)),
      forwards(&target.counter(obs::names::kProtocolForwards)),
      elections_started(&target.counter(obs::names::kProtocolElectionsStarted)),
      directories_elected(
          &target.counter(obs::names::kProtocolDirectoriesElected)),
      handovers(&target.counter(obs::names::kProtocolHandovers)),
      summary_pushes(&target.counter(obs::names::kProtocolSummaryPushes)),
      summary_pulls(&target.counter(obs::names::kProtocolSummaryPulls)),
      summary_pull_replies(
          &target.counter(obs::names::kProtocolSummaryPullReplies)),
      bloom_false_positives(
          &target.counter(obs::names::kProtocolBloomFalsePositives)),
      bloom_wire_rejected(
          &target.counter(obs::names::kProtocolBloomWireRejected)),
      summary_bytes_sent(
          &target.counter(obs::names::kProtocolSummaryBytesSent)),
      summary_delta_pushes(
          &target.counter(obs::names::kProtocolSummaryDeltaPushes)),
      forwards_saved_exact(
          &target.counter(obs::names::kProtocolForwardsSavedExact)),
      pending_reaped(&target.counter(obs::names::kProtocolPendingReaped)),
      publishes_acked(&target.counter(obs::names::kProtocolPublishesAcked)),
      publishes_retried(&target.counter(obs::names::kProtocolPublishesRetried)),
      publishes_expired(&target.counter(obs::names::kProtocolPublishesExpired)),
      publish_nacks(&target.counter(obs::names::kProtocolPublishNacks)),
      duplicates_dropped(
          &target.counter(obs::names::kProtocolDuplicatesDropped)),
      malformed_publishes(
          &target.counter(obs::names::kProtocolMalformedPublishes)),
      malformed_requests(
          &target.counter(obs::names::kProtocolMalformedRequests)),
      requests_in_flight(&target.gauge(obs::names::kProtocolRequestsInFlight)),
      directories(&target.gauge(obs::names::kProtocolDirectories)),
      retry_backlog(&target.gauge(obs::names::kProtocolRetryBacklog)),
      publish_outstanding(
          &target.gauge(obs::names::kProtocolPublishOutstanding)),
      deferred_publishes(&target.gauge(obs::names::kProtocolDeferredPublishes)),
      deferred_requests(&target.gauge(obs::names::kProtocolDeferredRequests)),
      response_ms(&target.histogram(obs::names::kProtocolResponseMs)),
      directory_compute_ms(
          &target.histogram(obs::names::kProtocolDirectoryComputeMs)) {}

DiscoveryNetwork::DiscoveryNetwork(std::unique_ptr<Transport> transport,
                                   ProtocolConfig config,
                                   encoding::KnowledgeBase& kb,
                                   obs::MetricsRegistry* metrics)
    : transport_(std::move(transport)),
      config_(config),
      kb_(&kb),
      own_registry_(metrics == nullptr
                        ? std::make_unique<obs::MetricsRegistry>()
                        : nullptr),
      metrics_(metrics != nullptr ? *metrics : *own_registry_),
      jitter_rng_(config.jitter_seed) {
    SARIADNE_EXPECTS(transport_ != nullptr);
    transport_->set_metrics(*metrics_.registry);
    const std::size_t n = transport_->node_count();
    nodes_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        nodes_.push_back(std::make_unique<NodeState>());
    }
    transport_->set_delivery_handler(
        [this](NodeId self, const Message& msg) { handle_message(self, msg); });
}

DiscoveryNetwork::~DiscoveryNetwork() = default;

double DiscoveryNetwork::fitness(NodeId node) const {
    // Deterministic pseudo-battery in [0.25, 1.0] plus radio coverage: the
    // paper elects on "network coverage, mobility and remaining/available
    // resources". Mains-powered infrastructure nodes (hybrid networks)
    // report full battery and zero mobility, so the backbone naturally
    // gravitates onto access points when they exist.
    const double battery =
        transport_->is_infrastructure(node)
            ? 1.0
            : 0.25 + 0.75 * static_cast<double>(
                                mix64(node * 0x9E3779B97F4A7C15ULL +
                                      0xBA77E21ULL) %
                                1000) /
                         1000.0;
    const double stability = transport_->is_infrastructure(node) ? 2.0 : 1.0;
    const double degree = static_cast<double>(transport_->degree(node));
    return battery * stability * (1.0 + 0.1 * degree);
}

void DiscoveryNetwork::start() {
    for (NodeId node = 0; node < nodes_.size(); ++node) {
        // Stagger the first check so simultaneous elections are rare but
        // still exercised.
        const double jitter =
            1.0 + 0.05 * static_cast<double>(node % 11);
        transport_->schedule(config_.adv_timeout_ms * jitter,
                       [this, node] { node_check_advertisement(node); });
    }
}

void DiscoveryNetwork::node_check_advertisement(NodeId node) {
    NodeState& state = *nodes_[node];
    if (transport_->is_up(node) && !state.is_directory &&
        !state.election_pending &&
        transport_->now() - state.last_adv > config_.adv_timeout_ms) {
        node_start_election(node);
    }
    transport_->schedule(config_.adv_timeout_ms,
                   [this, node] { node_check_advertisement(node); });
}

void DiscoveryNetwork::node_start_election(NodeId node) {
    metrics_.elections_started->inc();
    NodeState& state = *nodes_[node];
    state.election_pending = true;
    state.election_started = transport_->now();
    state.candidates.clear();
    if (!state.declines_role) {
        state.candidates.push_back(ElectCandidate{node, fitness(node)});
    }

    transport_->broadcast(node, config_.election_ttl,
                          net::make_message(ElectCall{node}));

    transport_->schedule(config_.election_wait_ms,
                   [this, node] { close_election(node); });
}

void DiscoveryNetwork::close_election(NodeId initiator) {
    NodeState& state = *nodes_[initiator];
    if (!state.election_pending) return;  // suppressed by an advertisement
    state.election_pending = false;
    // A directory advertisement heard since the call aborts the election.
    if (state.last_adv >= state.election_started) return;

    if (state.candidates.empty()) return;  // everyone declined; retry later
    const auto best = std::max_element(
        state.candidates.begin(), state.candidates.end(),
        [](const ElectCandidate& a, const ElectCandidate& b) {
            return a.fitness != b.fitness ? a.fitness < b.fitness
                                          : a.candidate > b.candidate;
        });
    if (best->candidate == initiator) {
        become_directory(initiator);
    } else {
        send(initiator, best->candidate, ElectAppoint{});
    }
}

void DiscoveryNetwork::appoint_directory(NodeId node) {
    become_directory(node);
}

void DiscoveryNetwork::resign_directory(NodeId node) {
    NodeState& state = *nodes_[node];
    if (!state.is_directory) return;
    std::string exported;
    if (state.semdir != nullptr) {
        exported = directory::export_state(*state.semdir);
    }
    state.is_directory = false;
    state.declines_role = true;  // it resigned for a reason (resources)
    state.semdir.reset();
    state.syndir.reset();
    state.exchange = {};
    state.last_adv = -1e18;  // eligible to detect a directory-less vicinity

    if (exported.empty()) return;  // syntactic mode: providers re-publish

    metrics_.directories->set(
        static_cast<std::int64_t>(directories().size()));

    NodeId successor = directory_for(node);
    if (successor != kNoNode) {
        metrics_.handovers->inc();
        send(node, successor, Handover{std::move(exported)});
        return;
    }
    // Last directory standing: elect a successor, hand over when its
    // advertisement arrives (see the dir-adv handler).
    state.pending_handover = std::move(exported);
    node_start_election(node);
}

void DiscoveryNetwork::become_directory(NodeId node) {
    NodeState& state = *nodes_[node];
    if (state.is_directory) return;
    state.is_directory = true;
    state.election_pending = false;
    if (config_.protocol == Protocol::kSAriadne) {
        state.semdir = std::make_unique<directory::SemanticDirectory>(
            *kb_,
            directory::SummaryConfig{config_.summary_backend, config_.bloom},
            metrics_.registry);
    } else {
        state.syndir = std::make_unique<directory::SyntacticDirectory>();
    }
    metrics_.directories_elected->inc();
    metrics_.directories->set(
        static_cast<std::int64_t>(directories().size()));
    directory_advertise(node);
    if (config_.protocol == Protocol::kSAriadne) {
        // §4: "the exchange of Bloom filters is done when new directories
        // are elected" — both ways: announce our (empty) summary and pull
        // the existing peers' summaries, so a late-elected directory learns
        // where established content lives.
        push_summary(node);
        for (const NodeId peer : directories()) {
            if (peer != node) pull_summary(node, peer);
        }
    }
}

void DiscoveryNetwork::directory_advertise(NodeId node) {
    NodeState& state = *nodes_[node];
    if (!state.is_directory) return;
    if (transport_->is_up(node)) {
        transport_->broadcast(node, config_.vicinity_hops,
                              net::make_message(DirAdv{node}));
        state.last_adv = transport_->now();  // a directory never elects
    }
    transport_->schedule(config_.adv_period_ms,
                   [this, node] { directory_advertise(node); });
}

void DiscoveryNetwork::push_summary(NodeId directory_node) {
    NodeState& state = *nodes_[directory_node];
    if (state.semdir == nullptr) return;
    NodeState::Exchange& exchange = state.exchange;
    exchange.publishes_since_push = 0;
    summary::RoutingSummary current = state.semdir->summary();
    const auto image = current.push(exchange.last_pushed);
    exchange.last_pushed = std::move(current);
    if (!image) return;
    for (const NodeId peer : directories()) {
        if (peer == directory_node) continue;
        metrics_.summary_pushes->inc();
        if (image->kind == summary::Image::Kind::kDelta) {
            metrics_.summary_delta_pushes->inc();
        }
        send_summary(directory_node, peer, *image);
    }
}

void DiscoveryNetwork::after_publishes(NodeId directory_node,
                                       std::uint64_t version_before,
                                       std::size_t published) {
    NodeState& state = *nodes_[directory_node];
    // A peer routing on a summary that lacks new coverage gets false
    // *negatives*, which (unlike false positives) the reactive exchange
    // cannot repair. The batch threshold still forces a periodic refresh.
    state.exchange.publishes_since_push += published;
    if ((published > 0 &&
         state.exchange.publishes_since_push >= config_.summary_push_every) ||
        state.semdir->summary_version() != version_before) {
        push_summary(directory_node);
    }
}

void DiscoveryNetwork::pull_summary(NodeId self, NodeId peer) {
    metrics_.summary_pulls->inc();
    send(self, peer, SummaryPull{});
}

void DiscoveryNetwork::send_summary(NodeId from, NodeId to,
                                    summary::Image image) {
    metrics_.summary_bytes_sent->inc(image.words.size() * 8 +
                                     image.bytes.size());
    switch (image.kind) {
        case summary::Image::Kind::kBloom:
            send(from, to, SummaryPush{from, std::move(image.words)});
            return;
        case summary::Image::Kind::kSnapshot:
            send(from, to, SummaryBitmap{from, std::move(image.bytes)});
            return;
        case summary::Image::Kind::kDelta:
            send(from, to, SummaryDelta{from, std::move(image.bytes)});
            return;
    }
}

void DiscoveryNetwork::receive_summary(NodeId self, NodeId from,
                                       const summary::ImageView& image) {
    switch (summary::RoutingSummary::apply(
        config_.summary_backend, nodes_[self]->exchange.peers, from, image)) {
        case summary::Applied::kApplied:
            return;
        case summary::Applied::kRejected:
            // Peer-controlled bytes: a corrupt image, or one of the backend
            // this network does not run, is counted and dropped here
            // instead of unwinding the event loop.
            metrics_.bloom_wire_rejected->inc();
            return;
        case summary::Applied::kGap:
            // Missed the delta's base version (packet loss, late election,
            // or no copy at all): re-pull a full snapshot.
            pull_summary(self, from);
            return;
    }
}

std::vector<NodeId> DiscoveryNetwork::directories() const {
    std::vector<NodeId> result;
    for (NodeId node = 0; node < nodes_.size(); ++node) {
        if (nodes_[node]->is_directory) result.push_back(node);
    }
    return result;
}

bool DiscoveryNetwork::is_directory(NodeId node) const {
    return nodes_[node]->is_directory;
}

NodeId DiscoveryNetwork::directory_for(NodeId node) const {
    const auto dist = transport_->hop_distances(node);
    NodeId best = kNoNode;
    int best_hops = std::numeric_limits<int>::max();
    for (const NodeId dir : directories()) {
        if (dist[dir] >= 0 && dist[dir] < best_hops) {
            best_hops = dist[dir];
            best = dir;
        }
    }
    return best;
}

NodeId DiscoveryNetwork::serving_directory(NodeId node) const {
    const NodeId known = nodes_[node]->known_directory;
    if (known != kNoNode && nodes_[known]->is_directory &&
        transport_->is_up(known)) {
        return known;
    }
    return directory_for(node);
}

// --- publish -----------------------------------------------------------------

void DiscoveryNetwork::own_service(NodeId provider,
                                   const std::string& document_xml) {
    NodeState& state = *nodes_[provider];
    state.owned_services.push_back(document_xml);
    if (config_.republish_period_ms > 0 && !state.republish_scheduled) {
        state.republish_scheduled = true;
        transport_->schedule(config_.republish_period_ms,
                             [this, provider] { republish(provider); });
    }
}

std::uint64_t DiscoveryNetwork::publish_service(NodeId provider,
                                                std::string document_xml) {
    own_service(provider, document_xml);
    NodeState& state = *nodes_[provider];
    if (config_.publish_ack_timeout_ms > 0) {
        // Acknowledged publish: park the document in the outstanding table
        // and let the send/timeout machinery route, retransmit and back
        // off until the directory acks (or the budget runs out).
        const std::uint64_t pub_id = next_pub_id_++;
        state.outstanding_publishes.emplace(
            pub_id, NodeState::OutstandingPublish{
                        std::move(document_xml), config_.publish_max_retries,
                        config_.publish_ack_timeout_ms, false, 0});
        metrics_.publish_outstanding->add(1);
        send_publish(provider, pub_id);
        return pub_id;
    }
    const NodeId target = serving_directory(provider);
    if (target == kNoNode) {
        state.deferred_publishes.push_back(std::move(document_xml));
        metrics_.deferred_publishes->add(1);
        return 0;
    }
    send(provider, target, PublishDoc{std::move(document_xml), 0});
    return 0;
}

std::uint64_t DiscoveryNetwork::publish_batch(
    NodeId provider, std::vector<std::string> documents) {
    if (documents.empty()) return 0;
    if (config_.publish_ack_timeout_ms > 0) {
        std::uint64_t last = 0;
        for (auto& doc : documents) {
            last = publish_service(provider, std::move(doc));
        }
        return last;
    }
    for (const auto& doc : documents) own_service(provider, doc);
    const NodeId target = serving_directory(provider);
    if (target == kNoNode) {
        NodeState& state = *nodes_[provider];
        for (auto& doc : documents) {
            state.deferred_publishes.push_back(std::move(doc));
            metrics_.deferred_publishes->add(1);
        }
        return 0;
    }
    PublishBatch batch;
    batch.docs.reserve(documents.size());
    for (auto& doc : documents) {
        batch.docs.push_back(PublishDoc{std::move(doc), 0});
    }
    send(provider, target, std::move(batch));
    return 0;
}

void DiscoveryNetwork::send_publish(NodeId provider, std::uint64_t pub_id) {
    NodeState& state = *nodes_[provider];
    const auto it = state.outstanding_publishes.find(pub_id);
    if (it == state.outstanding_publishes.end()) return;  // acked meanwhile
    NodeState::OutstandingPublish& outstanding = it->second;

    const NodeId target = serving_directory(provider);
    outstanding.awaiting_ack = target != kNoNode;
    if (target != kNoNode) {
        send(provider, target, PublishDoc{outstanding.document, pub_id});
    }
    // Arm the timeout either way: with no reachable directory it acts as a
    // deferral poll that retries routing without consuming the budget.
    // Jitter desynchronizes providers that lost the same directory, so
    // their retransmissions do not stampede the successor in lockstep.
    const double jitter =
        jitter_rng_.uniform() * 0.25 * outstanding.timeout_ms;
    const std::uint64_t attempt = ++outstanding.attempt;
    transport_->schedule(outstanding.timeout_ms + jitter,
                   [this, provider, pub_id, attempt] {
                       check_publish_timeout(provider, pub_id, attempt);
                   });
}

void DiscoveryNetwork::check_publish_timeout(NodeId provider,
                                             std::uint64_t pub_id,
                                             std::uint64_t expected_attempt) {
    NodeState& state = *nodes_[provider];
    const auto it = state.outstanding_publishes.find(pub_id);
    if (it == state.outstanding_publishes.end()) return;  // acked
    NodeState::OutstandingPublish& outstanding = it->second;
    if (outstanding.attempt != expected_attempt) return;  // superseded
    if (!transport_->is_up(provider)) {
        // Crashed provider: freeze the budget, poll again after recovery.
        const std::uint64_t attempt = ++outstanding.attempt;
        transport_->schedule(outstanding.timeout_ms,
                       [this, provider, pub_id, attempt] {
                           check_publish_timeout(provider, pub_id, attempt);
                       });
        return;
    }
    if (outstanding.awaiting_ack) {
        // A real transmission went unacked: consume a retry and back off.
        if (outstanding.retries_left <= 0) {
            state.outstanding_publishes.erase(it);
            metrics_.publish_outstanding->sub(1);
            metrics_.publishes_expired->inc();
            return;
        }
        --outstanding.retries_left;
        metrics_.publishes_retried->inc();
        outstanding.timeout_ms =
            std::min(outstanding.timeout_ms * config_.publish_backoff_factor,
                     config_.publish_backoff_max_ms);
    }
    send_publish(provider, pub_id);
}

void DiscoveryNetwork::handle_publish(NodeId self, const Message& msg) {
    NodeState& state = *nodes_[self];
    const auto& doc = std::get<PublishDoc>(msg.body.payload);
    if (!state.is_directory) {
        // Stale routing — this node lost (or never had) the directory
        // role. Bounce the document back so the provider re-routes
        // immediately instead of losing the service until the next
        // republish period.
        metrics_.publish_nacks->inc();
        send(self, msg.source, PubNack{doc.pub_id, doc.document});
        return;
    }
    if (state.semdir != nullptr) {
        const std::uint64_t version_before = state.semdir->summary_version();
        // The document is peer input: a malformed description must be
        // contained here (dropped + counted), not unwind the transport's
        // event loop. No ack is sent, so an acknowledged publish of a bad
        // document exhausts its retransmit budget and expires — the
        // provider-side accounting already handles that.
        const auto published = support::catching<bool>([&] {
            state.semdir->publish_xml(doc.document);
            return true;
        });
        if (!published) {
            metrics_.malformed_publishes->inc();
            return;
        }
        after_publishes(self, version_before, 1);
    } else {
        const auto published = support::catching<bool>([&] {
            state.syndir->publish_xml(doc.document);
            return true;
        });
        if (!published) {
            metrics_.malformed_publishes->inc();
            return;
        }
    }
    if (doc.pub_id != 0) send(self, msg.source, PubAck{doc.pub_id});
}

void DiscoveryNetwork::handle_publish_batch(NodeId self, const Message& msg) {
    NodeState& state = *nodes_[self];
    const auto& batch = std::get<PublishBatch>(msg.body.payload);
    const auto ack_doc = [&](std::uint64_t pub_id) {
        if (pub_id != 0) send(self, msg.source, PubAck{pub_id});
    };
    if (!state.is_directory) {
        // Stale routing: bounce every member back individually so each
        // provider-side retry keeps its own pub_id accounting.
        for (const PublishDoc& doc : batch.docs) {
            metrics_.publish_nacks->inc();
            send(self, msg.source, PubNack{doc.pub_id, doc.document});
        }
        return;
    }
    if (state.semdir == nullptr) {
        // The flat-directory ablation has no batched ingest path; fall
        // back to member-at-a-time publishes with per-doc containment.
        for (const PublishDoc& doc : batch.docs) {
            const auto published = support::catching<bool>([&] {
                state.syndir->publish_xml(doc.document);
                return true;
            });
            if (!published) {
                metrics_.malformed_publishes->inc();
                continue;
            }
            ack_doc(doc.pub_id);
        }
        return;
    }
    const std::uint64_t version_before = state.semdir->summary_version();
    // Parse phase: each document is peer input, contained per member. A
    // malformed member is dropped (counted, never acked — the provider's
    // retransmit budget expires it) without poisoning the rest.
    std::vector<desc::ServiceDescription> parsed;
    std::vector<const PublishDoc*> parsed_docs;
    parsed.reserve(batch.docs.size());
    parsed_docs.reserve(batch.docs.size());
    for (const PublishDoc& doc : batch.docs) {
        auto description = support::catching<desc::ServiceDescription>(
            [&] { return desc::parse_service(doc.document); });
        if (!description) {
            metrics_.malformed_publishes->inc();
            continue;
        }
        parsed.push_back(std::move(description).value());
        parsed_docs.push_back(&doc);
    }
    std::size_t published_count = 0;
    if (!parsed.empty()) {
        // publish_batch is all-or-nothing; a version-mismatch member
        // rejects the whole batch, so fall back to member-at-a-time
        // publishes and let the bad member fail alone.
        const auto batched = support::catching<bool>([&] {
            state.semdir->publish_batch(std::move(parsed));
            return true;
        });
        if (batched) {
            for (const PublishDoc* doc : parsed_docs) ack_doc(doc->pub_id);
            published_count = parsed_docs.size();
        } else {
            for (const PublishDoc* doc : parsed_docs) {
                const auto published = support::catching<bool>([&] {
                    state.semdir->publish_xml(doc->document);
                    return true;
                });
                if (!published) {
                    metrics_.malformed_publishes->inc();
                    continue;
                }
                ack_doc(doc->pub_id);
                ++published_count;
            }
        }
    }
    after_publishes(self, version_before, published_count);
}

// --- discovery ----------------------------------------------------------------

std::uint64_t DiscoveryNetwork::discover(NodeId client, std::string request_xml) {
    const std::uint64_t id = next_request_id_++;
    DiscoveryOutcome outcome;
    outcome.issued_at = transport_->now();
    outcomes_.emplace(id, outcome);
    metrics_.requests_issued->inc();
    metrics_.requests_in_flight->add(1);
    if (config_.request_timeout_ms > 0) {
        retry_state_.emplace(
            id, RetryState{client, request_xml, config_.max_request_retries});
        metrics_.retry_backlog->set(
            static_cast<std::int64_t>(retry_state_.size()));
        transport_->schedule(config_.request_timeout_ms,
                       [this, id] { check_request_timeout(id); });
    }

    const NodeId target = serving_directory(client);
    if (target == kNoNode) {
        nodes_[client]->deferred_requests.emplace_back(
            id, std::move(request_xml));
        metrics_.deferred_requests->add(1);
        return id;
    }
    send(client, target, Request{id, client, std::move(request_xml)});
    return id;
}

std::vector<std::vector<MatchHit>> DiscoveryNetwork::local_query(
    directory::SemanticDirectory* semdir,
    directory::SyntacticDirectory* syndir, const std::string& document,
    double& compute_ms) {
    if (semdir != nullptr) {
        // Skip the XML parse and signature resolution on repeat documents
        // (the dominant per-request costs on a hot directory — rediscovery
        // and retries resend the same bytes); matching always runs fresh
        // against the current directory content, into the reactor's reused
        // result scratch so a pipelined burst allocates no result buffers.
        const PreparedRequest& prepared = prepared_request(document);
        semdir->query_prepared(prepared.request, prepared.resolved, {},
                               local_query_scratch_);
        compute_ms = local_query_scratch_.timing.total_ms();
        std::vector<std::vector<MatchHit>> per_capability;
        per_capability.reserve(local_query_scratch_.per_capability.size());
        for (const auto& hits : local_query_scratch_.per_capability) {
            per_capability.emplace_back(hits.begin(), hits.end());
        }
        return per_capability;
    }
    directory::QueryTiming timing;
    auto hits = syndir->query_xml(document, timing);
    compute_ms = timing.total_ms();
    std::vector<std::vector<MatchHit>> per_capability;
    per_capability.push_back(std::move(hits));
    return per_capability;
}

namespace {

bool all_satisfied(const std::vector<std::vector<MatchHit>>& per_capability) {
    if (per_capability.empty()) return false;
    for (const auto& hits : per_capability) {
        if (hits.empty()) return false;
    }
    return true;
}

/// Delay for a reply whose service time `compute_ms` began at `started`:
/// it is due at started + compute_ms on the transport's clock. Virtual time
/// stands still inside a handler, so the simulator charges exactly
/// compute_ms; on the real clock the compute has already elapsed and the
/// reply is due at once.
SimTime reply_delay(const Transport& transport, SimTime started,
                    double compute_ms) {
    const SimTime elapsed = transport.now() - started;
    return compute_ms > elapsed ? compute_ms - elapsed : 0;
}

}  // namespace

std::vector<NodeId> DiscoveryNetwork::forward_targets(
    NodeId self, const std::string& document) {
    std::vector<NodeId> targets;
    NodeState& state = *nodes_[self];
    if (config_.protocol == Protocol::kAriadne) {
        for (const NodeId dir : directories()) {
            if (dir != self) targets.push_back(dir);
        }
        return targets;
    }
    const summary::PeerSummaries& peers = state.exchange.peers;
    if (peers.empty()) return targets;
    // Build the probe once per request; admit() is a bitmap or filter test
    // per peer.
    summary::RoutingProbe probe;
    try {
        probe = summary::RoutingSummary::probe(
            config_.summary_backend, prepared_request(document).resolved, *kb_);
    } catch (const Error&) {
        return targets;  // unresolvable request: nothing to forward
    }
    for (const auto& [peer, peer_summary] : peers) {
        if (!nodes_[peer]->is_directory) continue;
        switch (peer_summary.admit(probe)) {
            case summary::Admission::kAdmit:
                targets.push_back(peer);
                break;
            case summary::Admission::kRejectByConcept:
                metrics_.forwards_saved_exact->inc();
                break;
            case summary::Admission::kReject:
                break;
        }
    }
    std::sort(targets.begin(), targets.end());
    return targets;
}

const DiscoveryNetwork::PreparedRequest& DiscoveryNetwork::prepared_request(
    const std::string& document) {
    const std::uint64_t env_tag = kb_->environment_tag();
    const auto it = request_parse_cache_.find(document);
    if (it != request_parse_cache_.end()) {
        PreparedRequest& prepared = it->second;
        if (prepared.env_tag != env_tag) {
            // The knowledge base moved under the memo (ontology registered
            // or upgraded): the parse is still valid — it depends only on
            // the document bytes — but the resolution must be redone.
            prepared.resolved = desc::resolve_request(prepared.request, *kb_);
            prepared.env_tag = env_tag;
        }
        return prepared;
    }
    // Wholesale reset keeps the memo bounded without eviction bookkeeping:
    // a hostile peer cycling unique documents degrades to parse-per-request
    // (the uncached behaviour), never to unbounded memory.
    if (request_parse_cache_.size() >= 512) request_parse_cache_.clear();
    PreparedRequest prepared;
    prepared.request = desc::parse_request(document);
    prepared.resolved = desc::resolve_request(prepared.request, *kb_);
    prepared.env_tag = env_tag;
    return request_parse_cache_.emplace(document, std::move(prepared))
        .first->second;
}

void DiscoveryNetwork::handle_request(NodeId self, const Message& msg) {
    NodeState& state = *nodes_[self];
    const auto& request = std::get<Request>(msg.body.payload);
    if (!state.is_directory) {
        // Stale routing: answer unsatisfied so the client is not left hanging.
        send(self, msg.source, Response{request.request_id, {}, false, 0.0, 0});
        return;
    }

    PendingRequest pending;
    pending.request_id = request.request_id;
    pending.client = msg.source;

    const SimTime started = transport_->now();
    double compute_ms = 0;
    // The request document is peer input: a malformed one is answered
    // unsatisfied (and counted) instead of unwinding the event loop, so a
    // hostile client cannot take the directory down.
    auto queried =
        support::catching<std::vector<std::vector<MatchHit>>>([&] {
            return local_query(state.semdir.get(), state.syndir.get(),
                               request.document, compute_ms);
        });
    if (!queried) {
        metrics_.malformed_requests->inc();
        send(self, msg.source, Response{request.request_id, {}, false, 0.0, 0});
        return;
    }
    auto per_capability = std::move(queried).value();
    pending.compute_ms = compute_ms;
    pending.local_satisfied = all_satisfied(per_capability);
    for (auto& hits : per_capability) {
        pending.hits.insert(pending.hits.end(), hits.begin(), hits.end());
    }

    // Keyed by an id this directory assigns: clients pick their request ids
    // independently, so two of them may well send the same one. A
    // retransmission (same client, same id) joins the entry still pending
    // for it, and the emplaces below keep that entry.
    const auto [slot, fresh] = state.pending_ids.try_emplace(
        {msg.source, request.request_id}, next_pending_id_);
    if (fresh) ++next_pending_id_;
    const std::uint64_t id = slot->second;
    if (pending.local_satisfied) {
        // Answer at handler start + the real compute on the transport's
        // clock.
        state.pending.emplace(id, std::move(pending));
        const SimTime delay = reply_delay(*transport_, started, compute_ms);
        transport_->schedule(delay, [this, self, id] {
            NodeState& node = *nodes_[self];
            const auto it = node.pending.find(id);
            if (it == node.pending.end()) return;
            finish_request(self, it->second);
            node.forget_pending(it);
        });
        return;
    }

    const auto targets = forward_targets(self, request.document);
    pending.outstanding = targets.size();
    pending.directories_asked = static_cast<std::uint32_t>(targets.size());
    if (!targets.empty()) pending.request_xml = request.document;
    state.pending.emplace(id, std::move(pending));

    const SimTime delay = reply_delay(*transport_, started, compute_ms);
    transport_->schedule(delay, [this, self, id, targets] {
        NodeState& node = *nodes_[self];
        const auto it = node.pending.find(id);
        if (it == node.pending.end()) return;
        if (targets.empty()) {
            finish_request(self, it->second);
            node.forget_pending(it);
            return;
        }
        for (const NodeId target : targets) {
            metrics_.forwards->inc();
            send(self, target, Forward{id, self, it->second.request_xml});
        }
    });
}

void DiscoveryNetwork::handle_forward(NodeId self, const Message& msg) {
    NodeState& state = *nodes_[self];
    const auto& forward = std::get<Forward>(msg.body.payload);
    ForwardResponse reply;
    reply.request_id = forward.request_id;
    reply.compute_ms = 0;
    const SimTime started = transport_->now();
    if (state.is_directory) {
        // Forwarded documents come from a peer directory but are still
        // client-authored: contain malformed ones as an empty reply so the
        // origin's `outstanding` count always settles.
        const auto queried =
            support::catching<bool>([&] {
                reply.per_capability =
                    local_query(state.semdir.get(), state.syndir.get(),
                                forward.document, reply.compute_ms);
                return true;
            });
        if (!queried) metrics_.malformed_requests->inc();
    }
    const SimTime delay = reply_delay(*transport_, started, reply.compute_ms);
    transport_->schedule(delay, [this, self, origin = msg.source,
                                 reply = std::move(reply)]() mutable {
        send(self, origin, std::move(reply));
    });
}

void DiscoveryNetwork::handle_forward_reply(NodeId self, const Message& msg) {
    NodeState& state = *nodes_[self];
    const auto& reply = std::get<ForwardResponse>(msg.body.payload);
    const auto it = state.pending.find(reply.request_id);

    // False-positive accounting drives the reactive summary exchange.
    bool any_hit = false;
    for (const auto& hits : reply.per_capability) {
        if (!hits.empty()) any_hit = true;
    }
    if (!any_hit && config_.protocol == Protocol::kSAriadne) {
        // The peer's summary admitted the request but its cache had
        // nothing: a false positive or a stale copy. Only the former is
        // counted (the exact summary has none by construction); the
        // pull-threshold repair covers both.
        if (summary::RoutingSummary::over_admits(config_.summary_backend)) {
            metrics_.bloom_false_positives->inc();
        }
        std::size_t& empty_replies = state.exchange.false_positives[msg.source];
        if (++empty_replies >= config_.false_positive_pull_threshold) {
            empty_replies = 0;
            pull_summary(self, msg.source);
        }
    }

    if (it == state.pending.end()) return;  // already answered
    PendingRequest& pending = it->second;
    pending.compute_ms += reply.compute_ms;
    for (const auto& hits : reply.per_capability) {
        pending.hits.insert(pending.hits.end(), hits.begin(), hits.end());
    }
    if (pending.outstanding > 0) --pending.outstanding;
    if (pending.outstanding == 0) {
        finish_request(self, pending);
        state.forget_pending(it);
    }
}

void DiscoveryNetwork::finish_request(NodeId directory_node,
                                      PendingRequest& pending) {
    const bool satisfied = pending.local_satisfied || !pending.hits.empty();
    send(directory_node, pending.client,
         Response{pending.request_id, std::move(pending.hits), satisfied,
                  pending.compute_ms, pending.directories_asked});
}

void DiscoveryNetwork::republish(NodeId provider) {
    NodeState& state = *nodes_[provider];
    if (!transport_->is_up(provider)) {
        // Node is down; keep the timer alive so it resumes on recovery.
        transport_->schedule(config_.republish_period_ms,
                       [this, provider] { republish(provider); });
        return;
    }
    const NodeId target = serving_directory(provider);
    if (target != kNoNode) {
        for (const std::string& doc : state.owned_services) {
            send(provider, target, PublishDoc{doc});
        }
    }
    transport_->schedule(config_.republish_period_ms,
                   [this, provider] { republish(provider); });
}

void DiscoveryNetwork::check_request_timeout(std::uint64_t request_id) {
    const auto it = outcomes_.find(request_id);
    if (it == outcomes_.end()) return;
    DiscoveryOutcome& outcome = it->second;
    if (outcome.terminal) return;  // settled; retry state already released
    // A satisfied answer ends the retry loop. Keep retrying while the
    // request is unanswered OR only answered unsatisfied — under churn an
    // early "nothing found" often comes from a freshly elected directory
    // that has not been repopulated yet.
    if (outcome.answered && outcome.satisfied) {
        conclude_request(request_id, outcome, /*expired=*/false);
        return;
    }
    const auto retry_it = retry_state_.find(request_id);
    if (retry_it == retry_state_.end()) return;
    RetryState& retry = retry_it->second;
    if (retry.retries_left <= 0) {
        // Retry budget exhausted: give up *loudly*. The silent `return`
        // this replaces leaked the RetryState entry, left directory-side
        // PendingRequests waiting on partitioned peers forever, and never
        // told the client its request was abandoned.
        conclude_request(request_id, outcome, /*expired=*/true);
        return;
    }
    const NodeId target = directory_for(retry.client);
    if (target == kNoNode || !transport_->is_up(retry.client)) {
        // Fully partitioned (or the client itself is down): a retransmit
        // cannot reach anything, so consuming a retry here would burn the
        // budget with no transmission. Defer instead — keep the budget
        // intact and poll again; if the partition heals, the next check
        // (or a dir-adv flush) carries a real retransmission.
        transport_->schedule(
            config_.request_timeout_ms,
            [this, request_id] { check_request_timeout(request_id); });
        return;
    }
    --retry.retries_left;
    metrics_.requests_retried->inc();

    send(retry.client, target,
         Request{request_id, retry.client, retry.document});
    transport_->schedule(config_.request_timeout_ms,
                   [this, request_id] { check_request_timeout(request_id); });
}

void DiscoveryNetwork::conclude_request(std::uint64_t request_id,
                                        DiscoveryOutcome& outcome,
                                        bool expired) {
    if (outcome.terminal) return;
    outcome.terminal = true;
    outcome.expired = expired;
    retry_state_.erase(request_id);
    // Reap directory-side bookkeeping the request may have left behind: a
    // forward sent to a peer that partitioned away never gets its reply, so
    // the PendingRequest would otherwise sit in `pending` forever. Entries
    // are keyed by directory-assigned ids, so match the client's id they
    // store. Also purge any still-deferred copy so a late dir-adv does not
    // flush a request nobody is waiting on.
    for (const auto& node : nodes_) {
        std::erase_if(node->pending_ids, [request_id](const auto& entry) {
            return entry.first.second == request_id;
        });
        const auto reaped = std::erase_if(
            node->pending, [request_id](const auto& entry) {
                return entry.second.request_id == request_id;
            });
        metrics_.pending_reaped->inc(static_cast<std::uint64_t>(reaped));
        const auto deferred = std::erase_if(
            node->deferred_requests,
            [request_id](const auto& entry) { return entry.first == request_id; });
        metrics_.deferred_requests->sub(static_cast<std::int64_t>(deferred));
    }
    // Every terminal request lands in exactly one of these three bins, so
    // issued == satisfied + unsatisfied + expired + in_flight always holds.
    if (expired) {
        metrics_.requests_expired->inc();
    } else if (outcome.satisfied) {
        metrics_.requests_satisfied->inc();
    } else {
        metrics_.requests_unsatisfied->inc();
    }
    metrics_.requests_in_flight->sub(1);
    metrics_.retry_backlog->set(
        static_cast<std::int64_t>(retry_state_.size()));
    if (outcome.answered) {
        metrics_.response_ms->observe(outcome.response_time_ms());
        metrics_.directory_compute_ms->observe(outcome.directory_compute_ms);
    }
}

// --- dispatch -----------------------------------------------------------------

void DiscoveryNetwork::handle_message(NodeId self, const Message& msg) {
    NodeState& state = *nodes_[self];

    // Wire-level dedup: a fault-injected duplicate delivery carries the
    // wire_seq of the send it echoes. Dropping it here keeps a doubled
    // pub/req/fwd from double-counting, double-replying or
    // double-decrementing `outstanding` anywhere below.
    if (msg.wire_seq != 0 && !state.first_delivery(msg.wire_seq)) {
        metrics_.duplicates_dropped->inc();
        return;
    }

    // Sender identity is msg.source, stamped by the transport: node ids
    // inside a payload are never read, since a socket peer writes them.
    switch (msg.body.type) {
        case MsgType::kDirAdv: {
            state.last_adv = transport_->now();
            state.election_pending = false;  // suppress a pending election
            state.known_directory = msg.source;
            if (!state.pending_handover.empty()) {
                metrics_.handovers->inc();
                send(self, msg.source,
                     Handover{std::move(state.pending_handover)});
                state.pending_handover.clear();
            }
            // Flush work deferred for lack of a directory.
            auto publishes = std::move(state.deferred_publishes);
            state.deferred_publishes.clear();
            metrics_.deferred_publishes->sub(
                static_cast<std::int64_t>(publishes.size()));
            for (auto& doc : publishes) publish_service(self, std::move(doc));
            auto requests = std::move(state.deferred_requests);
            state.deferred_requests.clear();
            metrics_.deferred_requests->sub(
                static_cast<std::int64_t>(requests.size()));
            for (auto& [id, doc] : requests) {
                send(self, msg.source, Request{id, self, std::move(doc)});
            }
            return;
        }
        case MsgType::kElectCall:
            if (state.is_directory) {
                // A live directory answers an election call with an
                // immediate advertisement, suppressing the election.
                transport_->broadcast(self, config_.vicinity_hops,
                                      net::make_message(DirAdv{self}));
                return;
            }
            if (state.declines_role) return;  // resigned: not a candidate
            send(self, msg.source, ElectCandidate{self, fitness(self)});
            return;
        case MsgType::kElectCandidate:
            if (state.election_pending) {
                state.candidates.push_back(ElectCandidate{
                    msg.source,
                    std::get<ElectCandidate>(msg.body.payload).fitness});
            }
            return;
        case MsgType::kElectAppoint:
            become_directory(self);
            return;
        case MsgType::kPublish:
            handle_publish(self, msg);
            return;
        case MsgType::kPublishBatch:
            handle_publish_batch(self, msg);
            return;
        case MsgType::kRequest:
            handle_request(self, msg);
            return;
        case MsgType::kForward:
            handle_forward(self, msg);
            return;
        case MsgType::kForwardResponse:
            handle_forward_reply(self, msg);
            return;
        case MsgType::kHandover: {
            if (state.semdir == nullptr) return;
            // The state document is peer input, like a published one: a
            // malformed handover is dropped and counted, and since nothing
            // was imported there is no summary to push.
            const auto imported = support::catching<std::size_t>([&] {
                return directory::import_state(
                    *state.semdir,
                    std::get<Handover>(msg.body.payload).state_xml);
            });
            if (!imported) {
                metrics_.malformed_publishes->inc();
                return;
            }
            push_summary(self);
            return;
        }
        case MsgType::kSummaryPull:
            if (state.semdir != nullptr) {
                // A pull *reply* is reactive, not proactive: counting it under
                // summary_pushes would conflate the two flows and break any
                // comparison against the false_positive_pull_threshold policy.
                // It is always the full image: the puller either has no copy
                // yet (fresh election) or missed a delta's base.
                metrics_.summary_pull_replies->inc();
                send_summary(self, msg.source,
                             state.semdir->summary().full_image());
            }
            return;
        case MsgType::kSummaryPush:
            receive_summary(
                self, msg.source,
                {summary::Image::Kind::kBloom,
                 std::get<SummaryPush>(msg.body.payload).summary_wire, {}});
            return;
        case MsgType::kSummaryBitmap:
            receive_summary(
                self, msg.source,
                {summary::Image::Kind::kSnapshot, {},
                 std::get<SummaryBitmap>(msg.body.payload).image});
            return;
        case MsgType::kSummaryDelta:
            receive_summary(
                self, msg.source,
                {summary::Image::Kind::kDelta, {},
                 std::get<SummaryDelta>(msg.body.payload).image});
            return;
        case MsgType::kPubAck: {
            const auto& ack = std::get<PubAck>(msg.body.payload);
            if (state.outstanding_publishes.erase(ack.pub_id) > 0) {
                metrics_.publish_outstanding->sub(1);
                metrics_.publishes_acked->inc();
            }
            return;
        }
        case MsgType::kPubNack: {
            const auto& nack = std::get<PubNack>(msg.body.payload);
            if (nack.pub_id != 0) {
                // Acknowledged publish: re-route immediately without consuming
                // a retry — the nack is routing information, not a loss.
                if (state.outstanding_publishes.count(nack.pub_id) > 0) {
                    send_publish(self, nack.pub_id);
                }
                return;
            }
            // Legacy publish: the nack carries the document; route it again
            // (or defer it for the next dir-adv) without re-adding it to
            // owned_services.
            const NodeId target = directory_for(self);
            if (target == kNoNode) {
                state.deferred_publishes.push_back(nack.document);
                metrics_.deferred_publishes->add(1);
                return;
            }
            send(self, target, PublishDoc{nack.document, 0});
            return;
        }
        case MsgType::kResponse: {
            const auto& response = std::get<Response>(msg.body.payload);
            const auto it = outcomes_.find(response.request_id);
            if (it == outcomes_.end()) return;
            DiscoveryOutcome& outcome = it->second;
            // A satisfied answer is final; an unsatisfied one never downgrades
            // a satisfied outcome obtained from an earlier attempt — and once
            // terminal (expired or already satisfied) a straggler reply from a
            // slow directory is ignored entirely.
            if (outcome.terminal) return;
            if (outcome.answered && outcome.satisfied) return;
            metrics_.responses->inc();
            outcome.answered = true;
            outcome.satisfied = response.satisfied;
            outcome.hits = response.hits;
            outcome.answered_at = transport_->now();
            outcome.directory_compute_ms = response.compute_ms;
            outcome.directories_asked = response.directories_asked;
            // Without a retry budget the first answer is final; with one, only
            // a satisfying answer ends the loop (the timeout handler concludes
            // the rest).
            if (outcome.satisfied || config_.request_timeout_ms <= 0) {
                conclude_request(response.request_id, outcome,
                                 /*expired=*/false);
            }
            return;
        }
    }
}

void DiscoveryNetwork::send(NodeId from, NodeId to, wire::Payload payload) {
    transport_->unicast(from, to, net::make_message(std::move(payload)));
}

std::size_t DiscoveryNetwork::publish_backlog() const noexcept {
    std::size_t total = 0;
    for (const auto& node : nodes_) total += node->outstanding_publishes.size();
    return total;
}

void DiscoveryNetwork::run_for(SimTime duration_ms) {
    transport_->run_for(duration_ms);
}

const DiscoveryOutcome& DiscoveryNetwork::outcome(
    std::uint64_t request_id) const {
    const auto it = outcomes_.find(request_id);
    if (it == outcomes_.end()) {
        throw LookupError("unknown discovery request id " +
                          std::to_string(request_id));
    }
    return it->second;
}

}  // namespace sariadne::ariadne
