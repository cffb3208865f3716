// IntervalSummary — the exact directory summary: per (ontology URI, role)
// sparse bitmaps of the canonical concept codes held by cached services.
// Where the Bloom backend answers "does this directory possibly hold the
// request's ontology URIs" with tunable false positives, this answers
// "could some cached capability subsume every required output/property
// concept" with zero false positives at concept granularity: the match
// kernel (matching/match.hpp) makes the provider-side concept the subsumer
// in all three clauses, so a required concept r is satisfiable only if the
// directory holds a provided code in ancestors-or-self(canonical(r)) of
// the same ontology and role. Inputs are deliberately excluded — a
// provided capability with no inputs satisfies any inputs clause, so input
// codes can never exclude a peer soundly.
//
// Maintenance mirrors PR 7's refcounted Bloom discipline: the directory
// retains codes before releasing replaced ones, per-(entry, role, code)
// refcounts flip bits only on 0→1 / 1→0, and removals never trigger an
// O(services) rebuild. Every ontology entry carries the code-table version
// tag it was projected under; `covers` goes conservative (never excludes)
// on tag mismatch, and the directory re-projects everything when a
// maintenance op arrives under a newer tag (env-tag invalidation).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "summary/sparse_bitmap.hpp"

namespace sariadne::desc {
struct ResolvedCapability;
}
namespace sariadne::encoding {
class KnowledgeBase;
}

namespace sariadne::summary {

/// Which side of a capability a code was projected from. Outputs and
/// properties are summarized separately because the match kernel tests
/// them against separate provided-side clauses.
enum class Role : std::uint8_t { kOutputs = 0, kProperties = 1 };
inline constexpr int kRoleCount = 2;

/// One ontology's worth of a capability's provided-side codes — what the
/// directory feeds into retain/release. Codes are canonical concept ids
/// and may repeat (refcounts absorb duplicates symmetrically).
struct OntologyCodes {
    std::string uri;
    std::uint64_t code_tag = 0;  ///< code-table version tag at projection
    std::array<std::vector<std::uint32_t>, kRoleCount> codes;
};

/// Provided-side projection of one resolved capability.
struct CapabilityProjection {
    std::vector<OntologyCodes> per_ontology;
};

/// One probed concept of a request: the ancestors-or-self canonical codes
/// of a required output/property concept. A summary covers the probe
/// concept iff its (uri, role) bitmap intersects `codes`.
struct ProbeConcept {
    std::string uri;
    std::uint64_t code_tag = 0;
    Role role = Role::kOutputs;
    std::vector<std::uint32_t> codes;
};

/// All probe concepts of a request (deduplicated). Empty probes (a request
/// with no outputs and no properties) cover trivially — such a request can
/// be satisfied by any zero-input capability, so nothing can be excluded.
struct RequestProbe {
    std::vector<ProbeConcept> concepts;

    bool empty() const noexcept { return concepts.empty(); }
};

/// Word-granular delta between two summary versions. Each slot carries the
/// complete new word image at that index (0 ⇒ clear the word): replacement
/// words encode arbitrary set/clear runs and make application idempotent.
struct SummaryDelta {
    struct Entry {
        std::string uri;
        std::uint64_t code_tag = 0;
        std::array<std::vector<SparseBitmap::Slot>, kRoleCount> words;
    };

    std::uint64_t base_version = 0;
    std::uint64_t new_version = 0;
    std::vector<Entry> entries;  ///< sorted by uri
};

/// Outcome of applying a delta against a receiver-held summary.
enum class DeltaApply : std::uint8_t {
    kApplied,    ///< receiver was at base_version; now at new_version
    kDuplicate,  ///< receiver already at new_version (idempotent re-delivery)
    kGap,        ///< version mismatch — receiver must re-pull a snapshot
};

class IntervalSummary {
public:
    struct Entry {
        std::string uri;
        /// Code-table version tag the bitmaps were projected under; 0 (no
        /// directory projects under it) forces `covers` conservative.
        std::uint64_t code_tag = 0;
        std::array<SparseBitmap, kRoleCount> bits;
        /// code → holder count; only populated on directory-maintained
        /// summaries (snapshots and decoded peer summaries carry none).
        std::array<std::unordered_map<std::uint32_t, std::uint32_t>, kRoleCount>
            refs;
    };

    /// Retains one code occurrence; sets the bit on the 0→1 transition.
    /// Creates the (uri, tag) entry on first use. Precondition (checked by
    /// the directory before batching retains): an existing entry's tag
    /// matches `code_tag`.
    void retain(std::string_view uri, std::uint64_t code_tag, Role role,
                std::uint32_t code);

    /// Releases one code occurrence; clears the bit on the 1→0 transition
    /// and erases entries that lose their last code, so churn never grows
    /// the summary. Releasing a code the summary holds no reference to
    /// (snapshots and decoded summaries hold none) changes nothing and
    /// returns false, in every build type.
    bool release(std::string_view uri, Role role, std::uint32_t code);

    /// Retain/release every code of a projection. release_projection is
    /// the directory's release path: releasing a code it never retained
    /// is a refcount bug, and debug builds abort on it.
    void retain_projection(const CapabilityProjection& projection);
    void release_projection(const CapabilityProjection& projection);

    /// True when some projected ontology hits an existing entry built under
    /// a different code-table tag — the env-tag invalidation trigger: the
    /// directory must re-project all cached services instead of mixing
    /// codes from two table generations.
    bool tag_conflict(const CapabilityProjection& projection) const;

    /// Zero false positives at concept granularity: false means no cached
    /// service can fully satisfy the probed request. Tag-mismatched entries
    /// are treated as covering (stale codes can exclude nothing).
    bool covers(const RequestProbe& probe) const;

    /// Applies a word-granular delta. Only kApplied mutates the summary.
    DeltaApply apply_delta(const SummaryDelta& delta);

    /// Copy with bitmaps, tags, and version but no refcounts — what the
    /// directory hands to the protocol layer for pushing.
    IntervalSummary snapshot() const;

    /// Drops all entries and refcounts but keeps (and bumps) the version,
    /// so a rebuild is a visible change to delta consumers.
    void clear_retaining_version();

    /// Monotonic content version: bumps on every visible bit or tag change.
    std::uint64_t version() const noexcept { return version_; }
    void set_version(std::uint64_t v) noexcept { version_ = v; }

    const std::vector<Entry>& entries() const noexcept { return entries_; }

    const Entry* find_entry(std::string_view uri) const noexcept;

    /// Tag of an ontology's entry, or 0 when absent.
    std::uint64_t entry_tag(std::string_view uri) const noexcept;

    /// Total distinct (uri, role, code) bits set.
    std::size_t code_count() const noexcept;

    bool empty() const noexcept { return entries_.empty(); }

    /// Deep structural equality on routing-visible state (entries + tags +
    /// bitmaps + version); refcounts are excluded.
    friend bool operator==(const IntervalSummary& a, const IntervalSummary& b);

private:
    Entry& find_or_insert(std::string_view uri, std::uint64_t code_tag);

    std::vector<Entry> entries_;  ///< sorted by uri
    std::uint64_t version_ = 0;
};

/// Word-level diff such that `base.apply_delta(diff_summary(base, cur))`
/// reproduces `cur` exactly (bitmaps, tags, version).
SummaryDelta diff_summary(const IntervalSummary& base,
                          const IntervalSummary& cur);

/// Projects one provided capability's outputs and properties into
/// per-ontology canonical codes under the knowledge base's current tables.
CapabilityProjection project_capability(const desc::ResolvedCapability& cap,
                                        encoding::KnowledgeBase& kb);

/// Builds the probe for a resolved request: per required output/property
/// concept, the ancestors-or-self closure of its canonical code (BFS over
/// the classified taxonomy's transitively-reduced parents). Deduplicates
/// repeated (uri, role, concept) probes across capabilities.
RequestProbe build_request_probe(
    const std::vector<desc::ResolvedCapability>& request,
    encoding::KnowledgeBase& kb);

}  // namespace sariadne::summary
