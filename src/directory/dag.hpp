// CapabilityDag — one directed acyclic graph of related capabilities
// (§3.3). Vertices are *equivalence classes*: capabilities where Match
// holds both ways with semantic distance 0 share a vertex. A directed edge
// u → v means Match(u, v): u is more generic and can substitute v. Roots
// (no predecessors) are the most generic capabilities; the paper's query
// algorithm only probes roots and descends, and its insertion algorithm
// probes roots downward and leaves upward.
//
// Both algorithms rely on the transitivity of Match (provable from the
// transitivity of concept subsumption, see matching/match.hpp): if
// Match(v, C) fails, it fails for every successor of v, so whole
// sub-hierarchies are pruned without evaluation — that is where the "few
// semantic matches per request" of Figure 9 comes from.
//
// On top of the structural pruning, every vertex carries ancestor and
// descendant reachability bitsets (DESIGN.md §12), maintained exactly
// across insert/remove. They answer is_reachable(u, v) in O(1) and drive
// three things: transitivity-based probe pruning during classification and
// query (a failed Match dooms a whole cone of the DAG, counted as
// `reachability_prunes`), suppression of the transitively redundant edges
// the remove_service splice would otherwise accumulate under churn, and
// the strict redundant-edge invariant validate() now enforces.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "description/resolved.hpp"
#include "directory/types.hpp"
#include "matching/match.hpp"
#include "support/arena.hpp"
#include "support/dyn_bitset.hpp"
#include "support/flat_set.hpp"

namespace sariadne::directory {

using desc::ResolvedCapability;
using onto::OntologyIndex;

/// One advertised capability instance living in the DAG.
struct DagEntry {
    ResolvedCapability capability;
    ServiceId service = 0;
};

/// Allocation-free match hit: the name fields view bytes copied into the
/// query's scratch arena (pinned under the shard lock — the DagEntry
/// strings they mirror may die once the lock drops). A RawHit is only
/// valid until the owning arena's next reset; callers materialize into
/// MatchHit (caller-owned strings) before returning across the API.
struct RawHit {
    ServiceId service = 0;
    std::string_view service_name;
    std::string_view capability_name;
    int semantic_distance = 0;
};

using VertexId = std::uint32_t;
inline constexpr VertexId kNoVertex = 0xFFFFFFFFu;

/// A/B knobs threaded from SemanticDirectory down to every DAG it owns.
/// Only the probe-side use of the reachability bitsets is optional: the
/// bitsets themselves and the redundant-edge suppression they enable are
/// structural (a correctness fix), so they are always maintained.
struct DagTuning {
    /// Skip classification/query probes of vertices provably doomed by an
    /// earlier failed Match (transitivity), counting them as
    /// `MatchStats::reachability_prunes` instead.
    bool reachability_pruning = true;
};

/// Quick-reject aggregates of one capability role (inputs, outputs or
/// properties). The mask and concept count are always meaningful; the
/// interval fields are only meaningful when the owning MatchSummary carries
/// a nonzero code_tag (built from a valid CodeSignature) and are only
/// *comparable* between two summaries whose role concepts live in the same
/// single ontology (interval coordinates are per-table).
struct RoleSummary {
    std::uint64_t mask = 0;        ///< OR of 1 << (ontology % 64)
    std::uint32_t concepts = 0;    ///< number of concepts in the role
    std::int64_t sole_ontology = -1;  ///< the one ontology, or −1 if mixed/empty

    // Extremes over all interval occurrences of all role concepts.
    double occ_lo_min = 0.0;
    double occ_lo_max = 0.0;
    double occ_hi_min = 0.0;
    double occ_hi_max = 0.0;

    // Per-concept aggregates (min/max over concepts of per-concept
    // extremes) — the tight sides of the necessary containment conditions.
    double maxlo_min = 0.0;  ///< min over concepts of max occurrence lo
    double minhi_max = 0.0;  ///< max over concepts of min occurrence hi
    double minlo_max = 0.0;  ///< max over concepts of min occurrence lo
    double maxhi_min = 0.0;  ///< min over concepts of max occurrence hi
};

/// Per-capability quick-reject summary: one RoleSummary per Match clause
/// plus the whole-environment (global) tag of the CodeSignature the
/// interval fields were built from (0 = no signature; interval fields
/// unusable).
struct MatchSummary {
    RoleSummary inputs;
    RoleSummary outputs;
    RoleSummary properties;
    std::uint64_t code_tag = 0;
};

/// Builds the quick-reject summary of a resolved capability. Interval
/// fields are populated (and code_tag set) only when the capability carries
/// a valid CodeSignature.
MatchSummary make_match_summary(const ResolvedCapability& capability);

/// True iff Match(provider, requester) *provably* fails on summaries alone:
/// a required role is empty on the offering side, an ontology needed by one
/// side is absent from the other (mask test — always sound), or — when
/// `codes_fresh` and both sides of a clause draw from the same single
/// ontology — the interval bounding boxes rule out every containment pair.
/// Never rejects a pair that Match would accept.
bool quick_reject(const MatchSummary& provider, const MatchSummary& requester,
                  bool codes_fresh);

class CapabilityDag {
public:
    explicit CapabilityDag(FlatSet<OntologyIndex> signature,
                           DagTuning tuning = {})
        : signature_(std::move(signature)), tuning_(tuning) {}

    /// The ontology set indexing this DAG (§3.3 "graphs are indexed
    /// according to the ontologies being used in the capabilities").
    const FlatSet<OntologyIndex>& signature() const noexcept { return signature_; }

    /// Inserts an advertised capability, merging into an equivalent vertex
    /// when one exists, otherwise wiring the new vertex between its lowest
    /// matching ancestors and highest matched descendants.
    VertexId insert(DagEntry entry, matching::DistanceOracle& oracle,
                    MatchStats& stats);

    /// Removes every entry advertised by `service`; empty vertices are
    /// dropped and their parents reconnected to their children (skipping
    /// splice edges the surviving graph already implies). Returns the
    /// number of entries removed.
    std::size_t remove_service(ServiceId service);

    /// The paper's query algorithm: probe roots; on a match descend through
    /// successors collecting matching vertices, pruning sub-hierarchies
    /// whose top fails. Appends the entries of *every* matching vertex to
    /// the caller's arena-backed list as RawHits, so the caller can pick
    /// the minimal-distance tier, or the closest hits that also pass
    /// QoS/context constraints. Every piece of scratch (visited map, BFS
    /// frontier, doom bitset, hit names) lives in `arena`; it never resets
    /// the arena — the caller owns reset points.
    void query_all_into(const ResolvedCapability& request,
                        matching::DistanceOracle& oracle, MatchStats& stats,
                        support::Arena& arena,
                        support::ArenaVec<RawHit>& hits) const;

    std::vector<VertexId> root_ids() const;
    std::vector<VertexId> leaf_ids() const;

    std::size_t vertex_count() const noexcept { return live_vertices_; }
    std::size_t entry_count() const noexcept { return live_entries_; }

    bool empty() const noexcept { return live_entries_ == 0; }

    /// O(1): true iff a directed path `from` → … → `to` exists (a vertex
    /// reaches itself). Both ids must be live.
    bool is_reachable(VertexId from, VertexId to) const noexcept {
        return from == to || vertices_[from].desc.test(to);
    }

    /// Entries of one vertex (test access).
    const std::vector<DagEntry>& entries(VertexId vertex) const;
    const std::vector<VertexId>& parents(VertexId vertex) const;
    const std::vector<VertexId>& children(VertexId vertex) const;

    /// Structural invariant check for tests: every edge implies Match, no
    /// cycles, no self-edges, no transitively redundant edges, parent/child
    /// lists mirror each other, live counters agree with a full scan, and
    /// the reachability bitsets agree with per-vertex BFS ground truth.
    /// Returns true when all invariants hold.
    bool validate(matching::DistanceOracle& oracle) const;

private:
    struct Vertex {
        std::vector<DagEntry> entries;
        std::vector<VertexId> parents;
        std::vector<VertexId> children;
        /// Exact transitive closure, indexed by VertexId (slot, so dead
        /// slots own a bit too — always clear): anc holds every vertex with
        /// a path *to* this one, desc every vertex with a path *from* it.
        support::DynBitset anc;
        support::DynBitset desc;
        MatchSummary summary;  ///< of the representative (entries.front())
        bool alive = true;
    };

    const ResolvedCapability& representative(VertexId vertex) const {
        return vertices_[vertex].entries.front().capability;
    }

    void add_edge(VertexId from, VertexId to);
    void remove_edge(VertexId from, VertexId to);

    /// Recomputes every live vertex's anc/desc from the edge lists (one
    /// topological pass each way). Dead slots come out empty.
    void rebuild_reachability();

    /// True iff the graph implies `parent` → `child` without the direct
    /// edge, i.e. some other child of `parent` reaches `child`. Only valid
    /// while the bitsets are exact for the current edge set.
    bool edge_redundant(VertexId parent, VertexId child) const;

    FlatSet<OntologyIndex> signature_;
    DagTuning tuning_;
    std::vector<Vertex> vertices_;
    /// Slots of dead vertices, reused by the next insert. Without reuse a
    /// republish-heavy workload (remove + insert per refresh) grows
    /// vertices_ by one dead slot per cycle, and every full-vector walk —
    /// insert's root/leaf scans, remove_service, query_all_into's visited
    /// bitmap — degrades linearly with publish *history* instead of live
    /// directory size.
    std::vector<VertexId> free_;
    std::size_t live_vertices_ = 0;
    std::size_t live_entries_ = 0;
};

}  // namespace sariadne::directory
