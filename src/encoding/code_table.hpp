// CodeTable — the offline-computed numeric codes of one classified
// ontology (§3.2). Every concept owns a set of nested intervals: one per
// occurrence in the spanning-tree unfolding of the classified DAG (a pure
// tree yields exactly one interval per concept; a concept with multiple
// direct subsumers is replicated under each, the standard treatment in
// Constantinescu & Faltings). At discovery time:
//
//   subsumes(A, B)  ⇔  some interval of B lies inside some interval of A
//   distance(A, B)  =   min depth(B-occurrence) − depth(A-occurrence)
//                       over containing pairs (equals the taxonomy's
//                       min-path level distance)
//
// Storage is a CSR-packed flat layout: one contiguous CodedInterval array
// for the whole table plus a per-representative offset array, with each
// concept's occurrence slice sorted by interval start. Occurrences of one
// concept are pairwise disjoint (a concept never recurs inside its own
// unfolded subtree), so subsumes()/distance() run as O(na + nb) two-pointer
// merges over adjacent memory (see packed_contains / packed_distance in
// interval.hpp) instead of nested O(na × nb) loops.
//
// Code tables carry a version tag derived from (ontology URI, ontology
// version, encoding parameters); advertisements and requests embed the tag
// so stale codes are detected after ontology evolution, per the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "encoding/interval.hpp"
#include "encoding/lin_encoding.hpp"
#include "ontology/ontology.hpp"
#include "ontology/taxonomy.hpp"

namespace sariadne::encoding {

using onto::ConceptId;

/// All interval occurrences of one concept, viewed into the packed table.
/// Equivalent concepts share the same occurrence slice (their
/// representative's). The view stays valid as long as the table lives.
struct ConceptCode {
    std::span<const CodedInterval> occurrences;
};

class CodeTable {
public:
    CodeTable() = default;

    /// Encodes a classified ontology. Throws sariadne::Error when interval
    /// precision or the replication budget is exhausted (pathological DAGs).
    static CodeTable build(const onto::Ontology& ontology,
                           const reasoner::Taxonomy& taxonomy,
                           const EncodingParams& params = {});

    /// True iff `subsumer` subsumes `subsumee` (reflexive).
    bool subsumes(ConceptId subsumer, ConceptId subsumee) const;

    /// The paper's d() computed from codes: 0 when equivalent, minimum
    /// level distance when subsumption holds, std::nullopt otherwise.
    std::optional<int> distance(ConceptId subsumer, ConceptId subsumee) const;

    ConceptCode code(ConceptId id) const;

    /// Representative of `id`'s equivalence class (the concept whose packed
    /// slice `id` shares).
    ConceptId canonical(ConceptId id) const;

    /// The packed occurrence slice of `id`'s equivalence class, sorted by
    /// interval start. Valid while the table lives.
    std::span<const CodedInterval> occurrences_of(ConceptId id) const;

    std::size_t class_count() const noexcept { return canonical_.size(); }

    /// Total interval occurrences across all concepts (replication metric).
    std::size_t total_occurrences() const noexcept { return packed_.size(); }

    /// Version tag embedded in advertisements/requests (§3.2 consistency).
    std::uint64_t version_tag() const noexcept { return version_tag_; }

    const std::string& ontology_uri() const noexcept { return ontology_uri_; }
    const EncodingParams& params() const noexcept { return params_; }

    /// Replication budget: maximum interval occurrences per table.
    static constexpr std::size_t kMaxTotalOccurrences = 1u << 20;

private:
    std::vector<ConceptId> canonical_;      // concept -> representative
    std::vector<std::uint32_t> offsets_;    // representative -> packed_ range
    std::vector<CodedInterval> packed_;     // all occurrences, CSR layout
    std::uint64_t version_tag_ = 0;
    std::string ontology_uri_;
    EncodingParams params_;
};

inline ConceptId CodeTable::canonical(ConceptId id) const {
    return canonical_[id];
}

inline std::span<const CodedInterval> CodeTable::occurrences_of(
    ConceptId id) const {
    const ConceptId rep = canonical_[id];
    return std::span<const CodedInterval>(packed_.data() + offsets_[rep],
                                          offsets_[rep + 1] - offsets_[rep]);
}

}  // namespace sariadne::encoding
