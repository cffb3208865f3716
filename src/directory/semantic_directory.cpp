#include "directory/semantic_directory.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "description/conversation.hpp"
#include "obs/metric_names.hpp"
#include "support/arena.hpp"
#include "support/errors.hpp"
#include "support/stopwatch.hpp"

namespace sariadne::directory {

SemanticDirectory::Metrics::Metrics(obs::MetricsRegistry& target)
    : registry(&target),
      publishes(&target.counter(obs::names::kDirectoryPublishes)),
      removals(&target.counter(obs::names::kDirectoryRemovals)),
      queries(&target.counter(obs::names::kDirectoryQueries)),
      summary_rebuilds(&target.counter(obs::names::kDirectorySummaryRebuilds)),
      capability_matches(
          &target.counter(obs::names::kDirectoryCapabilityMatches)),
      concept_queries(&target.counter(obs::names::kDirectoryConceptQueries)),
      dags_visited(&target.counter(obs::names::kDirectoryDagsVisited)),
      dags_pruned(&target.counter(obs::names::kDirectoryDagsPruned)),
      quick_rejects(&target.counter(obs::names::kMatchingQuickRejects)),
      reachability_prunes(
          &target.counter(obs::names::kMatchingReachabilityPrunes)),
      query_allocs(&target.counter(obs::names::kMatchingQueryAllocs)),
      publish_batches(&target.counter(obs::names::kDirectoryPublishBatches)),
      shard_contention(&target.counter(obs::names::kDirectoryShardContention)),
      services(&target.gauge(obs::names::kDirectoryServices)),
      publish_parse_ms(&target.histogram(obs::names::kDirectoryPublishParseMs)),
      publish_insert_ms(
          &target.histogram(obs::names::kDirectoryPublishInsertMs)),
      query_parse_ms(&target.histogram(obs::names::kDirectoryQueryParseMs)),
      query_match_ms(&target.histogram(obs::names::kDirectoryQueryMatchMs)) {}

PublishReceipt SemanticDirectory::publish_xml(std::string_view xml_text) {
    Stopwatch stopwatch;
    desc::ServiceDescription service = desc::parse_service(xml_text);
    const double parse_ms = stopwatch.elapsed_ms();
    metrics_.publish_parse_ms->observe(parse_ms);
    PublishReceipt receipt = publish(std::move(service));
    receipt.timing.parse_ms = parse_ms;
    return receipt;
}

namespace {

/// Everything publish derives from one description before touching shared
/// state — resolution, version check, summary contributions and the DAG
/// signatures the removal path will need later.
struct PreparedService {
    desc::ServiceDescription description;
    std::vector<desc::ResolvedCapability> provided;
    std::vector<FlatSet<onto::OntologyIndex>> signatures;
    std::vector<summary::Contribution> contributions;
    ServiceId id = 0;
};

PreparedService prepare_service(desc::ServiceDescription service,
                                encoding::KnowledgeBase& kb,
                                const summary::RoutingSummary& summary) {
    PreparedService prepared;
    prepared.provided = desc::resolve_provided(service, kb);
    prepared.signatures.reserve(prepared.provided.size());
    for (const auto& cap : prepared.provided) {
        // §3.2 consistency: a description carrying pre-computed codes must
        // have been encoded against the current ontology versions (the
        // attached signature's tag is exactly that environment tag).
        if (cap.code_version != 0 &&
            cap.code_version != cap.signature.environment_tag) {
            throw VersionMismatchError(
                "capability '" + cap.name + "' of service '" +
                service.profile.service_name +
                "' carries codes for a stale ontology version — the "
                "advertiser must refresh its codes");
        }
        prepared.signatures.push_back(cap.ontologies);
    }
    prepared.contributions = summary.contribute(prepared.provided, kb);
    prepared.description = std::move(service);
    return prepared;
}

}  // namespace

PublishReceipt SemanticDirectory::publish(desc::ServiceDescription service) {
    Stopwatch stopwatch;
    // Resolve (with flat-layout code signatures attached) and version-check
    // before touching any shared state: a rejected description leaves the
    // directory untouched.
    PreparedService prepared =
        prepare_service(std::move(service), *kb_, summary_);

    // Re-advertisement: a service is identified by its name; a fresh
    // description replaces the cached one (services periodically re-publish
    // to their vicinity directory in the protocol). The lookup, erase and
    // insert are one critical section so two same-name publishers cannot
    // both survive.
    const std::string name = prepared.description.profile.service_name;
    ServiceId replaced = 0;
    std::vector<FlatSet<OntologyIndex>> replaced_signatures;
    std::vector<summary::Contribution> replaced_contributions;
    ServiceId id = 0;
    {
        std::unique_lock lock(services_mutex_);
        const auto named = by_name_.find(name);
        if (named != by_name_.end()) {
            replaced = named->second;
            const auto it = services_.find(replaced);
            replaced_signatures = std::move(it->second.signatures);
            replaced_contributions = std::move(it->second.contributions);
            services_.erase(it);
        }
        id = next_id_.fetch_add(1, std::memory_order_acq_rel);
        services_.emplace(id,
                          StoredService{std::move(prepared.description),
                                        prepared.signatures,
                                        prepared.contributions});
        by_name_[name] = id;
    }
    if (replaced != 0) dags_.remove_service(replaced, replaced_signatures);

    {
        // A rebuild walks the table, which already holds the new service
        // and no longer the replaced one.
        std::lock_guard lock(summary_mutex_);
        rebuild_summary_locked(summary_.update({&prepared.contributions},
                                               {&replaced_contributions}));
    }

    matching::EncodedOracle oracle(*kb_);
    MatchStats stats;
    for (auto& cap : prepared.provided) {
        dags_.insert(DagEntry{std::move(cap), id}, oracle, stats);
    }
    stats.concept_queries = oracle.queries();
    accumulate_lifetime(stats);

    PublishReceipt receipt;
    receipt.id = id;
    receipt.timing.insert_ms = stopwatch.elapsed_ms();
    metrics_.publishes->inc();
    if (replaced == 0) metrics_.services->add(1);
    metrics_.publish_insert_ms->observe(receipt.timing.insert_ms);
    return receipt;
}

std::vector<PublishReceipt> SemanticDirectory::publish_batch(
    std::vector<desc::ServiceDescription> batch) {
    std::vector<PublishReceipt> receipts;
    if (batch.empty()) return receipts;
    Stopwatch stopwatch;

    // Resolve and version-check the whole batch before mutating anything:
    // one bad description rejects the batch with the directory untouched.
    std::vector<PreparedService> prepared;
    prepared.reserve(batch.size());
    for (auto& service : batch) {
        prepared.push_back(prepare_service(std::move(service), *kb_, summary_));
    }

    // One critical section updates the service table for every member.
    // Later duplicates of a name (inside the batch or against the cached
    // table) replace earlier ones, matching sequential publish semantics.
    struct Replaced {
        ServiceId id;
        std::vector<FlatSet<OntologyIndex>> signatures;
        std::vector<summary::Contribution> contributions;
    };
    std::vector<Replaced> replaced;
    std::size_t fresh_names = 0;
    {
        std::unique_lock lock(services_mutex_);
        for (auto& p : prepared) {
            const std::string name = p.description.profile.service_name;
            const auto named = by_name_.find(name);
            if (named != by_name_.end()) {
                const auto it = services_.find(named->second);
                replaced.push_back(
                    Replaced{named->second, std::move(it->second.signatures),
                             std::move(it->second.contributions)});
                services_.erase(it);
            } else {
                ++fresh_names;
            }
            p.id = next_id_.fetch_add(1, std::memory_order_acq_rel);
            services_.emplace(p.id,
                              StoredService{std::move(p.description),
                                            p.signatures,
                                            p.contributions});
            by_name_[name] = p.id;
        }
    }
    for (const auto& r : replaced) dags_.remove_service(r.id, r.signatures);

    // Summary maintenance, once per batch: every member counts in, every
    // replaced service (pre-batch or superseded inside the batch) counts
    // out, and at most one rebuild follows.
    {
        summary::ContributionLists added;
        summary::ContributionLists removed;
        for (const auto& p : prepared) added.push_back(&p.contributions);
        for (const auto& r : replaced) removed.push_back(&r.contributions);
        std::lock_guard summary_lock(summary_mutex_);
        rebuild_summary_locked(summary_.update(added, removed));
    }

    // Members superseded inside their own batch never reach the DAGs
    // (their table entry is already gone).
    std::unordered_set<ServiceId> superseded;
    for (const auto& r : replaced) superseded.insert(r.id);

    std::size_t capability_total = 0;
    for (const auto& p : prepared) capability_total += p.provided.size();
    std::vector<DagEntry> entries;
    entries.reserve(capability_total);
    for (auto& p : prepared) {
        if (superseded.count(p.id) != 0) continue;
        for (auto& cap : p.provided) {
            entries.push_back(DagEntry{std::move(cap), p.id});
        }
    }

    matching::EncodedOracle oracle(*kb_);
    MatchStats stats;
    dags_.insert_batch(std::move(entries), oracle, stats);
    stats.concept_queries = oracle.queries();
    accumulate_lifetime(stats);

    const double insert_ms = stopwatch.elapsed_ms();
    const double amortized_ms =
        insert_ms / static_cast<double>(prepared.size());
    receipts.reserve(prepared.size());
    for (const auto& p : prepared) {
        PublishReceipt receipt;
        receipt.id = p.id;
        receipt.timing.insert_ms = amortized_ms;
        receipts.push_back(receipt);
        metrics_.publish_insert_ms->observe(amortized_ms);
    }
    metrics_.publishes->inc(prepared.size());
    metrics_.publish_batches->inc();
    metrics_.services->add(static_cast<std::int64_t>(fresh_names));
    return receipts;
}

bool SemanticDirectory::remove(ServiceId service) {
    std::vector<FlatSet<OntologyIndex>> signatures;
    std::vector<summary::Contribution> contributions;
    {
        std::unique_lock lock(services_mutex_);
        const auto it = services_.find(service);
        if (it == services_.end()) return false;
        const auto named =
            by_name_.find(it->second.description.profile.service_name);
        if (named != by_name_.end() && named->second == service) {
            by_name_.erase(named);
        }
        signatures = std::move(it->second.signatures);
        contributions = std::move(it->second.contributions);
        services_.erase(it);
    }
    dags_.remove_service(service, signatures);
    {
        std::lock_guard lock(summary_mutex_);
        rebuild_summary_locked(summary_.update({}, {&contributions}));
    }
    metrics_.removals->inc();
    metrics_.services->sub(1);
    return true;
}

QueryResult SemanticDirectory::query_xml(std::string_view xml_text,
                                         const QueryOptions& options) const {
    Stopwatch stopwatch;
    const desc::ServiceRequest request = desc::parse_request(xml_text);
    const double parse_ms = stopwatch.elapsed_ms();
    metrics_.query_parse_ms->observe(parse_ms);
    QueryResult result = query(request, options);
    result.timing.parse_ms = parse_ms;
    return result;
}

QueryResult SemanticDirectory::query(const desc::ServiceRequest& request,
                                     const QueryOptions& options) const {
    QueryResult result;
    query_prepared(request, desc::resolve_request(request, *kb_), options,
                   result);
    return result;
}

void SemanticDirectory::query_prepared(
    const desc::ServiceRequest& request,
    const std::vector<desc::ResolvedCapability>& resolved,
    const QueryOptions& options, QueryResult& out) const {
    const bool constrained = !request.qos_constraints.empty() ||
                             !request.context_constraints.empty() ||
                             request.process.has_value();
    run_query(constrained ? &request : nullptr, resolved, options, out);
}

QueryResult SemanticDirectory::query_resolved(
    const std::vector<desc::ResolvedCapability>& capabilities,
    const QueryOptions& options) const {
    QueryResult result;
    run_query(nullptr, capabilities, options, result);
    return result;
}

void SemanticDirectory::query_resolved(
    const std::vector<desc::ResolvedCapability>& capabilities,
    const QueryOptions& options, QueryResult& out) const {
    run_query(nullptr, capabilities, options, out);
}

void SemanticDirectory::run_query(
    const desc::ServiceRequest* constraints,
    const std::vector<desc::ResolvedCapability>& resolved,
    const QueryOptions& options, QueryResult& out) const {
    Stopwatch stopwatch;
    out.stats = MatchStats{};
    out.timing = QueryTiming{};
    // Recycle the per-capability vectors (and their MatchHit strings):
    // resize only moves when the request shape changes, so a caller that
    // keeps one QueryResult across a burst allocates nothing steady-state.
    if (out.per_capability.size() != resolved.size()) {
        out.per_capability.resize(resolved.size());
    }
    for (std::size_t i = 0; i < resolved.size(); ++i) {
        query_capability_into(resolved[i], constraints, options, out.stats,
                              out.per_capability[i]);
    }
    apply_require_all(out, options);
    out.timing.match_ms = stopwatch.elapsed_ms();
    metrics_.queries->inc();
    metrics_.query_match_ms->observe(out.timing.match_ms);
}

void SemanticDirectory::query_capability_into(
    const desc::ResolvedCapability& capability,
    const desc::ServiceRequest* constraints, const QueryOptions& options,
    MatchStats& stats, std::vector<MatchHit>& out) const {
    matching::EncodedOracle oracle(*kb_);
    // Callers that resolved against the bare registry carry no code
    // signature and take the per-pair oracle path at each vertex, with
    // mask/emptiness quick rejects only (the geometry needs both sides'
    // codes). Signing a copy here would cost more than the walk saves;
    // resolve through the KnowledgeBase to get the batched kernel.
    MatchStats local;
    match_one_into(capability, constraints, options, oracle, local, out);
    local.concept_queries = oracle.queries();
    stats.capability_matches += local.capability_matches;
    stats.concept_queries += local.concept_queries;
    stats.dags_visited += local.dags_visited;
    stats.dags_pruned += local.dags_pruned;
    stats.quick_rejects += local.quick_rejects;
    stats.reachability_prunes += local.reachability_prunes;
    stats.scratch_allocs += local.scratch_allocs;
    accumulate_lifetime(local);
}

void SemanticDirectory::match_one_into(
    const desc::ResolvedCapability& capability,
    const desc::ServiceRequest* constraints, const QueryOptions& options,
    matching::DistanceOracle& oracle, MatchStats& stats,
    std::vector<MatchHit>& out) const {
    // All scratch for this capability lives in the thread's arena; reset
    // recycles the chunks previous queries grew, and the chunk-count delta
    // is the query's allocation bill (0 steady-state, gated in CI).
    support::Arena& arena = support::query_scratch_arena();
    arena.reset();
    const std::uint64_t allocs_before = arena.chunk_allocs();

    support::ArenaVec<RawHit> hits(arena);
    dags_.query_all_into(capability, oracle, stats, arena, hits);

    // max_distance is *inclusive*: a hit at exactly max_distance survives.
    // This is the only distance-bound filter site on any query path — the
    // oracle path, the encoded kernel and its memo never see the bound
    // (they compute distances; admissibility is decided here), so the
    // boundary rule cannot diverge between resolution paths.
    std::size_t kept = 0;
    if (options.max_distance >= 0) {
        for (std::size_t i = 0; i < hits.size(); ++i) {
            if (hits[i].semantic_distance <= options.max_distance) {
                hits[kept++] = hits[i];
            }
        }
        hits.truncate(kept);
    }

    if (constraints != nullptr && !hits.empty()) {
        // Drop hits whose advertised profile violates a QoS/context
        // constraint or whose published process cannot realize the
        // client's conversation. A provider that publishes no process
        // model claims nothing about its conversation and is kept
        // (lenient default). The reader lock keeps the descriptions
        // stable for the duration of the scan.
        std::shared_lock lock(services_mutex_);
        kept = 0;
        for (std::size_t i = 0; i < hits.size(); ++i) {
            const auto it = services_.find(hits[i].service);
            if (it == services_.end() ||
                !desc::satisfies_constraints(it->second.description.profile,
                                             *constraints)) {
                continue;
            }
            if (constraints->process.has_value() &&
                it->second.description.process.has_value() &&
                !desc::conversation_compatible(
                    *constraints->process, *it->second.description.process)) {
                continue;
            }
            hits[kept++] = hits[i];
        }
        hits.truncate(kept);
    }

    // Deterministic rank shared by *both* selection modes: (distance,
    // service, capability). top_k=1 and the default best-tier answer lead
    // with the identical hit — the tie-break rule is pinned by
    // differential_test.
    const auto by_rank = [](const RawHit& a, const RawHit& b) {
        if (a.semantic_distance != b.semantic_distance) {
            return a.semantic_distance < b.semantic_distance;
        }
        if (a.service != b.service) return a.service < b.service;
        return a.capability_name < b.capability_name;
    };

    if (!hits.empty()) {
        if (options.top_k > 0) {
            // Bounded max-heap selection: O(n log k) like partial_sort but
            // over the arena (no internal buffer), and the heap never
            // exceeds k entries. sort_heap leaves the winners in ascending
            // rank — element-for-element what partial_sort produced.
            const std::size_t k = std::min(options.top_k, hits.size());
            RawHit* heap = hits.begin();
            std::make_heap(heap, heap + k, by_rank);
            for (std::size_t i = k; i < hits.size(); ++i) {
                if (by_rank(hits[i], heap[0])) {
                    std::pop_heap(heap, heap + k, by_rank);
                    heap[k - 1] = hits[i];
                    std::push_heap(heap, heap + k, by_rank);
                }
            }
            std::sort_heap(heap, heap + k, by_rank);
            hits.truncate(k);
        } else {
            // Default shape: only the minimal-distance tier — min scan,
            // one compaction pass, then the same deterministic order as
            // the top-k path (all distances equal, so rank reduces to
            // (service, capability)).
            int best = hits[0].semantic_distance;
            for (const RawHit& hit : hits) {
                best = std::min(best, hit.semantic_distance);
            }
            kept = 0;
            for (std::size_t i = 0; i < hits.size(); ++i) {
                if (hits[i].semantic_distance == best) hits[kept++] = hits[i];
            }
            hits.truncate(kept);
            std::sort(hits.begin(), hits.end(), by_rank);
        }
    }

    // Materialize into the caller's vector, recycling element strings
    // (assign reuses capacity). Shrinking destroys only the excess
    // elements; growth constructs — both cold-path events under a
    // steady workload.
    if (out.size() > hits.size()) {
        out.resize(hits.size());
    }
    while (out.size() < hits.size()) out.emplace_back();
    for (std::size_t i = 0; i < hits.size(); ++i) {
        MatchHit& dst = out[i];
        dst.service = hits[i].service;
        dst.service_name.assign(hits[i].service_name.data(),
                                hits[i].service_name.size());
        dst.capability_name.assign(hits[i].capability_name.data(),
                                   hits[i].capability_name.size());
        dst.semantic_distance = hits[i].semantic_distance;
    }
    stats.scratch_allocs += arena.chunk_allocs() - allocs_before;
}

void SemanticDirectory::apply_require_all(QueryResult& result,
                                          const QueryOptions& options) const {
    if (!options.require_all_capabilities || result.fully_satisfied()) return;
    for (auto& hits : result.per_capability) hits.clear();
}

void SemanticDirectory::accumulate_lifetime(const MatchStats& stats) const noexcept {
    lifetime_capability_matches_.fetch_add(stats.capability_matches,
                                           std::memory_order_relaxed);
    lifetime_concept_queries_.fetch_add(stats.concept_queries,
                                        std::memory_order_relaxed);
    lifetime_dags_visited_.fetch_add(stats.dags_visited,
                                     std::memory_order_relaxed);
    lifetime_dags_pruned_.fetch_add(stats.dags_pruned,
                                    std::memory_order_relaxed);
    lifetime_quick_rejects_.fetch_add(stats.quick_rejects,
                                      std::memory_order_relaxed);
    lifetime_reachability_prunes_.fetch_add(stats.reachability_prunes,
                                            std::memory_order_relaxed);
    lifetime_scratch_allocs_.fetch_add(stats.scratch_allocs,
                                       std::memory_order_relaxed);
    // Mirror the same relaxed deltas into the registry so external sinks
    // see live work counters without a snapshot call.
    metrics_.capability_matches->inc(stats.capability_matches);
    metrics_.concept_queries->inc(stats.concept_queries);
    metrics_.dags_visited->inc(stats.dags_visited);
    metrics_.dags_pruned->inc(stats.dags_pruned);
    metrics_.quick_rejects->inc(stats.quick_rejects);
    metrics_.reachability_prunes->inc(stats.reachability_prunes);
    metrics_.query_allocs->inc(stats.scratch_allocs);
}

MatchStats SemanticDirectory::lifetime_stats() const noexcept {
    MatchStats stats;
    stats.capability_matches =
        lifetime_capability_matches_.load(std::memory_order_relaxed);
    stats.concept_queries =
        lifetime_concept_queries_.load(std::memory_order_relaxed);
    stats.dags_visited = lifetime_dags_visited_.load(std::memory_order_relaxed);
    stats.dags_pruned = lifetime_dags_pruned_.load(std::memory_order_relaxed);
    stats.quick_rejects = lifetime_quick_rejects_.load(std::memory_order_relaxed);
    stats.reachability_prunes =
        lifetime_reachability_prunes_.load(std::memory_order_relaxed);
    stats.scratch_allocs =
        lifetime_scratch_allocs_.load(std::memory_order_relaxed);
    return stats;
}

std::size_t SemanticDirectory::service_count() const {
    std::shared_lock lock(services_mutex_);
    return services_.size();
}

const desc::ServiceDescription* SemanticDirectory::service(ServiceId id) const {
    std::shared_lock lock(services_mutex_);
    const auto it = services_.find(id);
    return it == services_.end() ? nullptr : &it->second.description;
}

std::optional<desc::Grounding> SemanticDirectory::grounding(ServiceId id) const {
    std::shared_lock lock(services_mutex_);
    const auto it = services_.find(id);
    if (it == services_.end()) return std::nullopt;
    return it->second.description.grounding;
}

summary::RoutingSummary SemanticDirectory::summary() const {
    std::lock_guard lock(summary_mutex_);
    return summary_.snapshot();
}

std::uint64_t SemanticDirectory::summary_version() const {
    std::lock_guard lock(summary_mutex_);
    return summary_.version();
}

std::size_t SemanticDirectory::summary_refcount_entries() const {
    std::lock_guard lock(summary_mutex_);
    return summary_.refcount_entries();
}

void SemanticDirectory::rebuild_summary_locked(summary::Rebuild how) {
    if (how == summary::Rebuild::kNone) return;
    metrics_.summary_rebuilds->inc();
    // Lock order (summary before services) matches every other path that
    // holds both; publish touches them one at a time. Reprojection is rare
    // by design: its trigger, a code-table generation change, needs an
    // ontology registration, and those are quiesced.
    std::unique_lock services_lock(services_mutex_);
    summary::ContributionLists live;
    live.reserve(services_.size());
    for (auto& [id, stored] : services_) {
        if (how == summary::Rebuild::kReproject) {
            stored.contributions = summary_.contribute(
                desc::resolve_provided(stored.description, *kb_), *kb_);
        }
        live.push_back(&stored.contributions);
    }
    summary_.rebuild(live);
}

}  // namespace sariadne::directory
