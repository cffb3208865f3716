// DagIndex — the collection of capability DAGs of one directory, indexed
// by ontology signature (§3.3). A new capability joins the DAG whose
// signature equals its own ontology set (creating one if needed); a query
// preselects the DAGs whose signature shares at least one ontology with
// the request — the paper's Figure 5 filtering step ("the requested
// capability uses O1, which filters out DAG2 as it is indexed with only
// O3") — and probes only their roots.
//
// Concurrency: the index is sharded by the root (smallest) ontology of a
// DAG's signature, each shard guarded by its own std::shared_mutex.
// Queries — pure reads over interval codes — take shared locks and run
// fully in parallel with each other; an insert takes the unique lock of
// the single shard its signature hashes to, so publishes only contend
// with queries and publishes touching the same shard. remove_service
// locks shards one at a time (never two locks at once, so no ordering
// hazard). The DistanceOracle passed in must be private to the calling
// thread (callers use one per operation).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "directory/dag.hpp"
#include "obs/metrics.hpp"
#include "support/lock_rank.hpp"

namespace sariadne::directory {

/// Folds an ontology set into a 64-bit presence mask (index mod 64).
/// Two sets whose masks are disjoint share no ontology; the converse does
/// not hold (indices 64 apart collide), which is the safe direction for a
/// skip filter.
inline std::uint64_t ontology_mask_of(
    const FlatSet<OntologyIndex>& ontologies) noexcept {
    std::uint64_t mask = 0;
    for (const OntologyIndex index : ontologies) {
        mask |= std::uint64_t{1} << (index & 63U);
    }
    return mask;
}

class DagIndex {
public:
    static constexpr std::size_t kDefaultShardCount = 16;

    /// `contention` counts shard-lock acquisitions that could not proceed
    /// immediately (try-lock failed before blocking): the observable cost
    /// of sharing a shard between publishers and queriers. It must outlive
    /// the index.
    explicit DagIndex(obs::Counter& contention,
                      std::size_t shard_count = kDefaultShardCount,
                      DagTuning tuning = {})
        : shard_count_(shard_count == 0 ? 1 : shard_count),
          shards_(std::make_unique<Shard[]>(shard_count_)),
          tuning_(tuning),
          contention_(contention) {}

    DagIndex(const DagIndex&) = delete;
    DagIndex& operator=(const DagIndex&) = delete;

    /// Inserts a provided capability into its signature's DAG (unique lock
    /// on that signature's shard only).
    void insert(DagEntry entry, matching::DistanceOracle& oracle,
                MatchStats& stats);

    /// Bulk variant for SemanticDirectory::publish_batch: orders the batch
    /// deterministically — by shard, then signature, then a
    /// generality-first heuristic (see DESIGN.md §12) — and inserts it
    /// shard run by shard run, taking each shard's unique lock once per
    /// run instead of once per capability. Returns the number of entries
    /// inserted.
    std::size_t insert_batch(std::vector<DagEntry> entries,
                             matching::DistanceOracle& oracle,
                             MatchStats& stats);

    /// Removes all capabilities of a service across DAGs; empty DAGs are
    /// dropped. Returns the number of capability entries removed.
    std::size_t remove_service(ServiceId service);

    /// Signature-scoped removal: only the shards/DAGs named by
    /// `signatures` (the ontology sets the service published under) are
    /// locked and scanned, so a removal is O(its own capabilities), not
    /// O(directory). The signatures come from the publish-time record kept
    /// by SemanticDirectory.
    std::size_t remove_service(
        ServiceId service,
        const std::vector<FlatSet<OntologyIndex>>& signatures);

    /// Probes every candidate DAG (signature intersects the request's
    /// ontology set) and appends every matching hit, any distance, as
    /// RawHits into the caller's arena-backed list (names pinned into
    /// `arena` under each shard's reader lock); the caller owns arena
    /// reset points. All selection (best-tier, top-k, max-distance)
    /// happens on the RawHits afterwards. Thread-safe against concurrent
    /// inserts/removals.
    void query_all_into(const ResolvedCapability& request,
                        matching::DistanceOracle& oracle, MatchStats& stats,
                        support::Arena& arena,
                        support::ArenaVec<RawHit>& hits) const;

    std::size_t dag_count() const noexcept;
    std::size_t entry_count() const noexcept;
    std::size_t shard_count() const noexcept { return shard_count_; }

    /// Visits every live DAG under that shard's reader lock (introspection
    /// and tests; do not retain the reference past the callback).
    void for_each_dag(const std::function<void(const CapabilityDag&)>& visit) const;

private:
    struct Shard {
        /// All shards share one rank — probes hold a single shard lock at
        /// a time (remove_service iterates, never nests), and the oracle
        /// calls made under it only acquire higher-ranked KB locks.
        mutable support::RankedSharedMutex mutex{
            support::LockRank::kDagShard};
        std::vector<std::unique_ptr<CapabilityDag>> dags;
        /// Lock-free emptiness probe: queries skip a shard without touching
        /// its mutex when no DAG lives there (most shards, for small
        /// ontology universes). Updated under the unique lock; a query that
        /// misses a concurrent first-insert simply linearizes before it.
        std::atomic<std::size_t> dag_count{0};
        /// Union of ontology_mask() over the signatures of the shard's
        /// DAGs. Queries skip the shard — mutex untouched — when this is
        /// disjoint from the request's mask: the union being a superset of
        /// every signature, disjointness proves the per-DAG intersects()
        /// test would have pruned every DAG here. Bit collisions (index
        /// folded mod 64) only ever keep a shard visitable, never skip a
        /// live candidate. Maintained under the unique lock (grown on DAG
        /// creation, recomputed exactly when empty DAGs are dropped); a
        /// query racing a first insert linearizes before it, as with
        /// dag_count.
        std::atomic<std::uint64_t> ontology_mask{0};
    };

    /// A DAG lives in the shard of its signature's smallest ontology
    /// index; queries intersect against every shard anyway, so the mapping
    /// only needs to spread unrelated signatures apart.
    std::size_t shard_of(const FlatSet<OntologyIndex>& signature) const noexcept {
        if (signature.empty()) return 0;
        return static_cast<std::size_t>(*signature.begin()) % shard_count_;
    }

    CapabilityDag& dag_for_locked(Shard& shard,
                                  const FlatSet<OntologyIndex>& signature);

    std::size_t shard_count_;
    std::unique_ptr<Shard[]> shards_;
    DagTuning tuning_;
    obs::Counter& contention_;
};

}  // namespace sariadne::directory
