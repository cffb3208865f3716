#include "directory/dag_index.hpp"

#include <algorithm>
#include <functional>
#include <mutex>
#include <tuple>

namespace sariadne::directory {

CapabilityDag& DagIndex::dag_for_locked(Shard& shard,
                                        const FlatSet<OntologyIndex>& signature) {
    for (const auto& dag : shard.dags) {
        if (dag->signature() == signature) return *dag;
    }
    shard.dags.push_back(std::make_unique<CapabilityDag>(signature, tuning_));
    shard.dag_count.store(shard.dags.size(), std::memory_order_release);
    shard.ontology_mask.fetch_or(ontology_mask_of(signature),
                                 std::memory_order_release);
    return *shard.dags.back();
}

void DagIndex::insert(DagEntry entry, matching::DistanceOracle& oracle,
                      MatchStats& stats) {
    Shard& shard = shards_[shard_of(entry.capability.ontologies)];
    std::unique_lock lock(shard.mutex, std::try_to_lock);
    if (!lock.owns_lock()) {
        contention_.inc();
        lock.lock();
    }
    CapabilityDag& dag = dag_for_locked(shard, entry.capability.ontologies);
    dag.insert(std::move(entry), oracle, stats);
}

std::size_t DagIndex::insert_batch(std::vector<DagEntry> entries,
                                   matching::DistanceOracle& oracle,
                                   MatchStats& stats) {
    // The batch ordering contract (DESIGN.md §12): shard-major so each
    // shard's unique lock is taken once per run; within a shard by
    // signature so one DAG's insertions are contiguous; within a DAG a
    // generality-first heuristic (fewer inputs, then more outputs, then
    // name) so probable ancestors are classified before their descendants
    // — approximating a topological insert order without paying O(B²)
    // Match evaluations up front. The order is a deterministic function of
    // the batch contents, never of arrival order.
    std::stable_sort(
        entries.begin(), entries.end(),
        [&](const DagEntry& a, const DagEntry& b) {
            const std::size_t sa = shard_of(a.capability.ontologies);
            const std::size_t sb = shard_of(b.capability.ontologies);
            if (sa != sb) return sa < sb;
            const auto& oa = a.capability.ontologies;
            const auto& ob = b.capability.ontologies;
            if (!(oa == ob)) {
                return std::lexicographical_compare(oa.begin(), oa.end(),
                                                    ob.begin(), ob.end());
            }
            if (a.capability.inputs.size() != b.capability.inputs.size()) {
                return a.capability.inputs.size() <
                       b.capability.inputs.size();
            }
            if (a.capability.outputs.size() != b.capability.outputs.size()) {
                return a.capability.outputs.size() >
                       b.capability.outputs.size();
            }
            return a.capability.name < b.capability.name;
        });

    std::size_t i = 0;
    while (i < entries.size()) {
        const std::size_t shard_index =
            shard_of(entries[i].capability.ontologies);
        std::size_t end = i + 1;
        while (end < entries.size() &&
               shard_of(entries[end].capability.ontologies) == shard_index) {
            ++end;
        }
        Shard& shard = shards_[shard_index];
        std::unique_lock lock(shard.mutex, std::try_to_lock);
        if (!lock.owns_lock()) {
            contention_.inc();
            lock.lock();
        }
        for (; i < end; ++i) {
            CapabilityDag& dag =
                dag_for_locked(shard, entries[i].capability.ontologies);
            dag.insert(std::move(entries[i]), oracle, stats);
        }
    }
    return entries.size();
}

namespace {

void drop_empty_dags_locked(std::vector<std::unique_ptr<CapabilityDag>>& dags,
                            std::atomic<std::size_t>& dag_count,
                            std::atomic<std::uint64_t>& ontology_mask) {
    dags.erase(std::remove_if(dags.begin(), dags.end(),
                              [](const std::unique_ptr<CapabilityDag>& dag) {
                                  return dag->empty();
                              }),
               dags.end());
    dag_count.store(dags.size(), std::memory_order_release);
    // Recompute the skip mask exactly from the survivors — removal is the
    // one operation where the grow-only fetch_or would go stale the wrong
    // way (keeping dead bits is safe but erodes the filter over churn).
    std::uint64_t mask = 0;
    for (const auto& dag : dags) mask |= ontology_mask_of(dag->signature());
    ontology_mask.store(mask, std::memory_order_release);
}

}  // namespace

std::size_t DagIndex::remove_service(ServiceId service) {
    std::size_t removed = 0;
    for (std::size_t s = 0; s < shard_count_; ++s) {
        Shard& shard = shards_[s];
        std::unique_lock lock(shard.mutex);
        for (const auto& dag : shard.dags) removed += dag->remove_service(service);
        drop_empty_dags_locked(shard.dags, shard.dag_count,
                               shard.ontology_mask);
    }
    return removed;
}

std::size_t DagIndex::remove_service(
    ServiceId service,
    const std::vector<FlatSet<OntologyIndex>>& signatures) {
    // Group the service's publish-time signatures per shard so only the
    // shards (and inside them only the DAGs) the service actually touched
    // are locked and scanned.
    std::vector<std::vector<const FlatSet<OntologyIndex>*>> per_shard(
        shard_count_);
    for (const auto& signature : signatures) {
        auto& bucket = per_shard[shard_of(signature)];
        const auto dup = std::find_if(
            bucket.begin(), bucket.end(),
            [&](const FlatSet<OntologyIndex>* s) { return *s == signature; });
        if (dup == bucket.end()) bucket.push_back(&signature);
    }
    std::size_t removed = 0;
    for (std::size_t s = 0; s < shard_count_; ++s) {
        if (per_shard[s].empty()) continue;
        Shard& shard = shards_[s];
        std::unique_lock lock(shard.mutex);
        bool any_emptied = false;
        for (const auto& dag : shard.dags) {
            for (const FlatSet<OntologyIndex>* signature : per_shard[s]) {
                if (dag->signature() == *signature) {
                    removed += dag->remove_service(service);
                    any_emptied = any_emptied || dag->empty();
                    break;
                }
            }
        }
        if (any_emptied) {
            drop_empty_dags_locked(shard.dags, shard.dag_count,
                                   shard.ontology_mask);
        }
    }
    return removed;
}

void DagIndex::query_all_into(const ResolvedCapability& request,
                              matching::DistanceOracle& oracle,
                              MatchStats& stats, support::Arena& arena,
                              support::ArenaVec<RawHit>& hits) const {
    const std::uint64_t request_mask = ontology_mask_of(request.ontologies);
    for (std::size_t s = 0; s < shard_count_; ++s) {
        const Shard& shard = shards_[s];
        const std::size_t dag_count =
            shard.dag_count.load(std::memory_order_acquire);
        if (dag_count == 0) continue;
        if ((shard.ontology_mask.load(std::memory_order_acquire) &
             request_mask) == 0) {
            // Every DAG here would fail the signature-intersects test —
            // account for them as pruned (same stats as visiting the
            // shard) but skip the lock acquisition entirely. On a
            // 500-service directory the shared-lock round trips on
            // non-candidate shards dominate the fixed per-query cost.
            stats.dags_pruned += dag_count;
            continue;
        }
        std::shared_lock lock(shard.mutex, std::try_to_lock);
        if (!lock.owns_lock()) {
            contention_.inc();
            lock.lock();
        }
        for (const auto& dag : shard.dags) {
            if (!dag->signature().intersects(request.ontologies)) {
                ++stats.dags_pruned;
                continue;
            }
            ++stats.dags_visited;
            dag->query_all_into(request, oracle, stats, arena, hits);
        }
    }
}

std::size_t DagIndex::dag_count() const noexcept {
    std::size_t count = 0;
    for (std::size_t s = 0; s < shard_count_; ++s) {
        std::shared_lock lock(shards_[s].mutex);
        count += shards_[s].dags.size();
    }
    return count;
}

std::size_t DagIndex::entry_count() const noexcept {
    std::size_t count = 0;
    for (std::size_t s = 0; s < shard_count_; ++s) {
        std::shared_lock lock(shards_[s].mutex);
        for (const auto& dag : shards_[s].dags) count += dag->entry_count();
    }
    return count;
}

void DagIndex::for_each_dag(
    const std::function<void(const CapabilityDag&)>& visit) const {
    for (std::size_t s = 0; s < shard_count_; ++s) {
        std::shared_lock lock(shards_[s].mutex);
        for (const auto& dag : shards_[s].dags) visit(*dag);
    }
}

}  // namespace sariadne::directory
