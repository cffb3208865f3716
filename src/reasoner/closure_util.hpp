// Internal helpers shared by the classification engines: a dense bitset
// matrix for subsumption closures, told-edge extraction from the axiom
// fragment, and the post-closure consistency check. Each engine computes
// the closure with its own algorithm; these utilities only cover the
// representation and the parts the OWL semantics fixes uniquely.
#pragma once

#include <cstdint>
#include <vector>

#include "ontology/ontology.hpp"
#include "support/errors.hpp"

namespace sariadne::reasoner::detail {

using onto::ConceptId;

/// Row-major square bitset matrix. bit(i, j) means "j subsumes i" (i ⊑ j).
class BitMatrix {
public:
    explicit BitMatrix(std::size_t n)
        : n_(n), words_((n + 63) / 64), bits_(n * words_, 0) {}

    std::size_t size() const noexcept { return n_; }
    std::size_t words_per_row() const noexcept { return words_; }
    const std::vector<std::uint64_t>& data() const noexcept { return bits_; }

    bool test(std::size_t i, std::size_t j) const noexcept {
        return (bits_[i * words_ + j / 64] >> (j % 64)) & 1u;
    }

    /// Sets bit (i, j); returns true if it was previously clear.
    bool set(std::size_t i, std::size_t j) noexcept {
        std::uint64_t& word = bits_[i * words_ + j / 64];
        const std::uint64_t mask = std::uint64_t{1} << (j % 64);
        if (word & mask) return false;
        word |= mask;
        return true;
    }

    /// Row i |= row j. Returns true if row i changed.
    bool merge_row(std::size_t i, std::size_t j) noexcept {
        bool changed = false;
        for (std::size_t w = 0; w < words_; ++w) {
            const std::uint64_t before = bits_[i * words_ + w];
            const std::uint64_t after = before | bits_[j * words_ + w];
            if (after != before) {
                bits_[i * words_ + w] = after;
                changed = true;
            }
        }
        return changed;
    }

private:
    std::size_t n_;
    std::size_t words_;
    std::vector<std::uint64_t> bits_;
};

/// Told direct subsumers of every class: SubClassOf parents, both directions
/// of every EquivalentClass axiom, and — for a defined intersection — each
/// part (defined ⊑ part_i is told; the converse introduction rule is the
/// engines' job).
inline std::vector<std::vector<ConceptId>> told_edges(
    const onto::Ontology& ontology) {
    std::vector<std::vector<ConceptId>> parents(ontology.class_count());
    for (ConceptId c = 0; c < ontology.class_count(); ++c) {
        const auto& decl = ontology.class_decl(c);
        parents[c] = decl.told_parents;
        for (const ConceptId eq : decl.equivalents) parents[c].push_back(eq);
        for (const ConceptId part : decl.intersection_of) {
            parents[c].push_back(part);
        }
    }
    return parents;
}

/// Throws InconsistencyError if some named class is subsumed by two classes
/// declared disjoint (covers direct disjointness violations as well, since
/// subsumption is reflexive in `closure`).
inline void check_consistency(const onto::Ontology& ontology,
                              const BitMatrix& closure) {
    for (ConceptId a = 0; a < ontology.class_count(); ++a) {
        for (const ConceptId b : ontology.class_decl(a).disjoints) {
            if (b < a) continue;  // stored symmetrically; check each pair once
            for (ConceptId x = 0; x < ontology.class_count(); ++x) {
                if (closure.test(x, a) && closure.test(x, b)) {
                    throw InconsistencyError(
                        "ontology '" + ontology.uri() + "': class '" +
                        std::string(ontology.class_name(x)) +
                        "' is subsumed by disjoint classes '" +
                        std::string(ontology.class_name(a)) + "' and '" +
                        std::string(ontology.class_name(b)) + "'");
                }
            }
        }
    }
}

}  // namespace sariadne::reasoner::detail
