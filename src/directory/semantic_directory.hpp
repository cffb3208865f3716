// SemanticDirectory — the S-Ariadne local directory (§3.3, §4): caches
// Amigo-S service descriptions, classifies their provided capabilities
// into ontology-indexed capability DAGs at *publish* time (parse once,
// resolve once, no reasoning on the query path), and answers requests by
// probing DAG roots with interval-code matching. Also maintains the
// routing summary of its content (summary::RoutingSummary, Bloom or exact
// per SummaryConfig) that the distributed protocol exchanges between
// directories.
//
// Thread safety: publish / publish_xml / remove / query* and the
// introspection counters may be called from any number of threads
// concurrently. The capability-DAG index is sharded with per-shard
// reader–writer locks (see DagIndex), so queries — pure reads over
// interval codes — run fully in parallel and only contend with
// publishes touching the same shard; the service table and the
// routing summary carry their own locks. Two operations are excluded from
// the guarantee and require quiescence: registering/upgrading ontologies
// in the shared KnowledgeBase, and retaining the pointer returned by
// service() across a concurrent remove/re-publish of that service.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "description/amigos_io.hpp"
#include "description/resolved.hpp"
#include "directory/dag_index.hpp"
#include "directory/types.hpp"
#include "reasoner/knowledge_base.hpp"
#include "matching/oracles.hpp"
#include "obs/metrics.hpp"
#include "summary/routing_summary.hpp"
#include "support/lock_rank.hpp"

namespace sariadne::directory {

/// Result of a request against one directory.
struct QueryResult {
    /// Hits per requested capability, in request order (closest first;
    /// with default QueryOptions, only the minimal-distance tier). An
    /// empty inner vector means that capability could not be satisfied.
    std::vector<std::vector<MatchHit>> per_capability;
    MatchStats stats;
    QueryTiming timing;

    bool fully_satisfied() const noexcept {
        for (const auto& hits : per_capability) {
            if (hits.empty()) return false;
        }
        return !per_capability.empty();
    }
};

/// Which routing summary the directory maintains — only that one.
/// `bloom` sizes the filter of the Bloom backend.
struct SummaryConfig {
    summary::SummaryBackend backend = summary::SummaryBackend::kBloom;
    bloom::BloomParams bloom{};
};

class SemanticDirectory {
public:
    /// The directory consults (and shares) a knowledge base of ontologies;
    /// the caller keeps ownership (several directories of one simulated
    /// node set typically share one KB). The directory reports
    /// `directory.*` phase latencies and work counters into `metrics`, or
    /// into a registry of its own when `metrics` is null; several
    /// directories may share one registry (their counts aggregate). A
    /// caller's registry must outlive the directory.
    explicit SemanticDirectory(encoding::KnowledgeBase& kb,
                               SummaryConfig summary_config = {},
                               obs::MetricsRegistry* metrics = nullptr,
                               DagTuning tuning = {})
        : kb_(&kb),
          own_registry_(metrics == nullptr
                            ? std::make_unique<obs::MetricsRegistry>()
                            : nullptr),
          metrics_(metrics != nullptr ? *metrics : *own_registry_),
          dags_(*metrics_.shard_contention, DagIndex::kDefaultShardCount,
                tuning),
          summary_(summary_config.backend, summary_config.bloom) {}

    SemanticDirectory(const SemanticDirectory&) = delete;
    SemanticDirectory& operator=(const SemanticDirectory&) = delete;

    // --- publish --------------------------------------------------------
    /// Parses and publishes an Amigo-S service description document.
    /// Returns the service handle and the Figure 7/8 timing breakdown.
    PublishReceipt publish_xml(std::string_view xml_text);

    /// Publishes an already-parsed description (parse_ms stays 0).
    PublishReceipt publish(desc::ServiceDescription service);

    /// Publishes a whole batch in one pass: every description is resolved
    /// and version-checked up front (a rejected one throws before any
    /// shared state changes), the service table is updated in a single
    /// critical section, the capability DAGs take one shard lock per shard
    /// run (DagIndex::insert_batch), and the routing summary is updated
    /// once for the whole batch (at most one rebuild) instead of once per
    /// publish. Receipts come back in batch order; insert_ms is the batch
    /// cost amortized per service. Later duplicates of a name inside the
    /// batch replace earlier ones, exactly as sequential publishes would.
    std::vector<PublishReceipt> publish_batch(
        std::vector<desc::ServiceDescription> batch);

    /// Withdraws a service (departure from the vicinity). Returns false if
    /// the handle is unknown.
    bool remove(ServiceId service);

    // --- query ----------------------------------------------------------
    /// Parses a request document and matches it (timing includes parse).
    QueryResult query_xml(std::string_view xml_text,
                          const QueryOptions& options = {}) const;

    /// Matches a request. When the request carries QoS/context
    /// constraints, hits are additionally filtered by the advertised
    /// service profiles (Amigo-S QoS-/context-awareness), and the best
    /// *admissible* distances win per capability.
    QueryResult query(const desc::ServiceRequest& request,
                      const QueryOptions& options = {}) const;

    /// Matches pre-resolved capabilities (protocol-internal fast path).
    QueryResult query_resolved(
        const std::vector<desc::ResolvedCapability>& capabilities,
        const QueryOptions& options = {}) const;

    /// Reuse variant of query_resolved: fills `out` in place, recycling
    /// its vectors and strings, so a caller that keeps one QueryResult
    /// across a request burst performs no steady-state heap allocations
    /// (the per-request scratch lives in the thread's arena; results
    /// materialize into `out`'s retained capacity). `out` is fully
    /// overwritten — previous hits, stats and timing do not leak through.
    void query_resolved(
        const std::vector<desc::ResolvedCapability>& capabilities,
        const QueryOptions& options, QueryResult& out) const;

    /// Matches a request whose capabilities were already resolved (the
    /// daemon's prepared-request path: the protocol memoizes parse +
    /// resolve per document and replays this with the cached resolution,
    /// amortizing signature resolution across a pipelined burst).
    /// `request` still supplies the QoS/context/conversation constraints;
    /// `resolved` must be its capabilities resolved against this
    /// directory's knowledge base.
    void query_prepared(const desc::ServiceRequest& request,
                        const std::vector<desc::ResolvedCapability>& resolved,
                        const QueryOptions& options, QueryResult& out) const;

    // --- introspection ---------------------------------------------------
    std::size_t service_count() const;
    std::size_t capability_count() const { return dags_.entry_count(); }
    std::size_t dag_count() const { return dags_.dag_count(); }
    const DagIndex& dags() const noexcept { return dags_; }

    /// Pointer into the service table; stays valid only until the service
    /// is removed or replaced by a re-advertisement. Quiescent use only —
    /// concurrent readers must copy what they need via grounding() (or
    /// their own locked accessor) instead of retaining this pointer.
    const desc::ServiceDescription* service(ServiceId id) const;

    /// Copy of a service's grounding taken under the reader lock — the
    /// race-free way to materialize invocation details for a hit while
    /// publishers may be replacing the service.
    std::optional<desc::Grounding> grounding(ServiceId id) const;

    /// One past the largest handle ever issued (state-transfer iteration).
    ServiceId next_service_id() const noexcept {
        return next_id_.load(std::memory_order_acquire);
    }

    /// Snapshot (no refcounts) of the routing summary of cached content
    /// (§4): what the protocol pushes and answers pulls with.
    summary::RoutingSummary summary() const;

    /// RoutingSummary::version() — the protocol's cheap "peers must hear
    /// about this" probe around a publish.
    std::uint64_t summary_version() const;

    /// Live summary refcount keys. Churn regression tests pin this to
    /// baseline: zero-count keys must be erased on release or long
    /// remove/republish runs grow the map unboundedly.
    std::size_t summary_refcount_entries() const;

    /// Snapshot of the cumulative match statistics across all operations
    /// of this directory (the registry's counters aggregate over every
    /// directory that shares it).
    MatchStats lifetime_stats() const noexcept;

    /// The registry the directory reports into: the caller's, or its own.
    obs::MetricsRegistry& metrics() const noexcept {
        return *metrics_.registry;
    }

    encoding::KnowledgeBase& knowledge_base() noexcept { return *kb_; }

private:
    /// Matches one resolved capability into `out` (cleared first,
    /// recycling its element strings). `constraints`, when non-null,
    /// applies that request's QoS/context/conversation filters. Work
    /// counters are accumulated into `stats`.
    void query_capability_into(const desc::ResolvedCapability& capability,
                               const desc::ServiceRequest* constraints,
                               const QueryOptions& options, MatchStats& stats,
                               std::vector<MatchHit>& out) const;

    /// The per-capability matching kernel behind every query entry point:
    /// one arena-scratch DAG traversal, then max-distance compaction,
    /// constraint filtering and top-k / best-tier selection on the RawHits
    /// before materializing into `out` (capacity-recycling assign).
    void match_one_into(const desc::ResolvedCapability& capability,
                        const desc::ServiceRequest* constraints,
                        const QueryOptions& options,
                        matching::DistanceOracle& oracle, MatchStats& stats,
                        std::vector<MatchHit>& out) const;

    /// Shared body of the query_* entry points: matches every capability
    /// into `out` (recycled), applies require_all, stamps timing/metrics.
    void run_query(const desc::ServiceRequest* constraints,
                   const std::vector<desc::ResolvedCapability>& resolved,
                   const QueryOptions& options, QueryResult& out) const;

    void accumulate_lifetime(const MatchStats& stats) const noexcept;
    void apply_require_all(QueryResult& result,
                           const QueryOptions& options) const;

    /// Carries out what RoutingSummary::update asked for: nothing, a
    /// rebuild from the cached contributions, or a rebuild that first
    /// re-resolves every cached service (its code tables moved). Caller
    /// holds summary_mutex_; takes services_mutex_ unique internally, since
    /// a reprojection writes the refreshed contributions back.
    void rebuild_summary_locked(summary::Rebuild how);

    /// Handles into the registry the directory reports into, all resolved
    /// by the constructor.
    struct Metrics {
        explicit Metrics(obs::MetricsRegistry& target);

        obs::MetricsRegistry* registry;
        obs::Counter* publishes;
        obs::Counter* removals;
        obs::Counter* queries;
        obs::Counter* summary_rebuilds;
        obs::Counter* capability_matches;
        obs::Counter* concept_queries;
        obs::Counter* dags_visited;
        obs::Counter* dags_pruned;
        obs::Counter* quick_rejects;
        obs::Counter* reachability_prunes;
        obs::Counter* query_allocs;
        obs::Counter* publish_batches;
        obs::Counter* shard_contention;
        obs::Gauge* services;
        obs::Histogram* publish_parse_ms;
        obs::Histogram* publish_insert_ms;
        obs::Histogram* query_parse_ms;
        obs::Histogram* query_match_ms;
    };

    encoding::KnowledgeBase* kb_;
    std::unique_ptr<obs::MetricsRegistry> own_registry_;  ///< when none passed
    Metrics metrics_;
    DagIndex dags_;

    /// A cached description plus what publish resolved from it: each
    /// provided capability's summary contribution (so removal and rebuilds
    /// never re-resolve — a rebuild used to be O(services × resolve)) and
    /// the ontology signatures the capabilities were classified under (so
    /// a removal only visits the DAG shards the service actually touched
    /// instead of the whole index).
    struct StoredService {
        desc::ServiceDescription description;
        std::vector<FlatSet<OntologyIndex>> signatures;
        std::vector<summary::Contribution> contributions;
    };

    /// Guards services_ and by_name_. Ranked above summary: a summary
    /// rebuild holds the summary lock while it walks the table under this
    /// one.
    mutable support::RankedSharedMutex services_mutex_{
        support::LockRank::kDirectoryServices};
    std::unordered_map<ServiceId, StoredService> services_;
    /// Re-advertisement index: a service is identified by name, and the
    /// replacement lookup used to be a linear scan of services_ per
    /// publish — quadratic across a bulk load.
    std::unordered_map<std::string, ServiceId> by_name_;
    std::atomic<ServiceId> next_id_{1};

    /// Guards summary_; the outermost directory lock (see services_mutex_).
    mutable support::RankedMutex summary_mutex_{
        support::LockRank::kDirectorySummary};
    /// Refcounted, so most removals under churn release no last holder and
    /// skip the O(services) rebuild.
    summary::RoutingSummary summary_;

    /// Lifetime counters, relaxed — totals are exact once writers quiesce.
    mutable std::atomic<std::uint64_t> lifetime_capability_matches_{0};
    mutable std::atomic<std::uint64_t> lifetime_concept_queries_{0};
    mutable std::atomic<std::uint64_t> lifetime_dags_visited_{0};
    mutable std::atomic<std::uint64_t> lifetime_dags_pruned_{0};
    mutable std::atomic<std::uint64_t> lifetime_quick_rejects_{0};
    mutable std::atomic<std::uint64_t> lifetime_reachability_prunes_{0};
    mutable std::atomic<std::uint64_t> lifetime_scratch_allocs_{0};
};

}  // namespace sariadne::directory
