// Shared vocabulary of the directory layer: match hits, statistics and
// timing breakdowns used by the evaluation harness (Figures 7-10 plot
// exactly these quantities), plus the facade-level QueryOptions /
// PublishReceipt value types.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace sariadne::directory {

/// Handle of a published service inside one directory.
using ServiceId = std::uint32_t;

/// One advertisement capability matching a requested capability.
struct MatchHit {
    ServiceId service = 0;
    std::string service_name;
    std::string capability_name;
    int semantic_distance = 0;
};

/// Work counters for one directory operation. `capability_matches` is the
/// paper's "number of semantic matches performed" (capability-level Match
/// evaluations); `concept_queries` counts d() evaluations underneath;
/// `quick_rejects` counts DAG vertices skipped by the summary pre-filter
/// *instead of* a Match evaluation, and `reachability_prunes` vertices
/// skipped because an earlier failed Match provably dooms them through the
/// DAG's transitive closure. Every probed vertex bumps exactly one of the
/// three, so capability_matches + quick_rejects + reachability_prunes is
/// the number of vertices actually probed — invariant whether pruning is
/// enabled or not.
struct MatchStats {
    std::uint64_t capability_matches = 0;
    std::uint64_t concept_queries = 0;
    std::uint64_t dags_visited = 0;
    std::uint64_t dags_pruned = 0;
    std::uint64_t quick_rejects = 0;
    std::uint64_t reachability_prunes = 0;
    /// Heap allocations charged to query scratch during this operation —
    /// the per-query delta of the scratch arena's chunk count (see
    /// support/arena.hpp). Cold queries may grow the arena; the steady
    /// state must report 0 (gated by micro_kernels' allocation check).
    std::uint64_t scratch_allocs = 0;
};

/// Wall-clock breakdown of a publish operation (Figure 7/8 series).
struct PublishTiming {
    double parse_ms = 0;   ///< XML parsing of the service description
    double insert_ms = 0;  ///< classification into the capability DAGs

    double total_ms() const noexcept { return parse_ms + insert_ms; }
};

/// Wall-clock breakdown of a query (Figure 9/10 series; parse reported
/// separately because the paper excludes it in Figure 9).
struct QueryTiming {
    double parse_ms = 0;
    double match_ms = 0;

    double total_ms() const noexcept { return parse_ms + match_ms; }
};

}  // namespace sariadne::directory

namespace sariadne {

/// Caller-tunable knobs of one discovery query, threaded through
/// DiscoveryEngine::discover and SemanticDirectory::query. The defaults
/// reproduce the paper's behavior exactly: per requested capability,
/// every hit at the minimal semantic distance.
struct QueryOptions {
    /// 0 keeps the legacy best-distance-only answer; k > 0 instead returns
    /// up to k hits per capability, closest (smallest distance) first.
    std::size_t top_k = 0;

    /// Hits farther than this semantic distance are dropped; negative
    /// means unlimited.
    int max_distance = -1;

    /// When set, a request is all-or-nothing: if any requested capability
    /// has no admissible hit, every per-capability hit list comes back
    /// empty (the shape of the request is preserved).
    bool require_all_capabilities = false;
};

/// Outcome of publishing a service description: the issued handle plus the
/// Figure 7/8 timing breakdown. Aggregate, so structured bindings keep
/// working: `auto [id, timing] = directory.publish_xml(doc);`
struct PublishReceipt {
    directory::ServiceId id = 0;
    directory::PublishTiming timing;
};

}  // namespace sariadne
