#include "encoding/code_table.hpp"

#include <algorithm>

#include "support/contracts.hpp"
#include "support/errors.hpp"
#include "support/hash.hpp"

namespace sariadne::encoding {

namespace {

struct Builder {
    const reasoner::Taxonomy& taxonomy;
    const EncodingParams& params;
    std::vector<std::vector<CodedInterval>>& scratch;
    std::size_t total = 0;

    void place(ConceptId rep, const Interval& slot, std::int32_t depth) {
        if (slot.empty()) {
            throw Error("interval encoding precision exhausted at depth " +
                        std::to_string(depth) +
                        " — hierarchy too deep for p=" + std::to_string(params.p) +
                        ", k=" + std::to_string(params.k));
        }
        if (++total > CodeTable::kMaxTotalOccurrences) {
            throw Error("interval replication budget exhausted — the classified "
                        "hierarchy has too many multi-parent unfoldings");
        }
        scratch[rep].push_back(CodedInterval{slot, depth});
        const auto& kids = taxonomy.direct_children(rep);
        for (std::size_t i = 0; i < kids.size(); ++i) {
            place(kids[i], slot.project(sibling_slot(i, params)), depth + 1);
        }
    }
};

}  // namespace

CodeTable CodeTable::build(const onto::Ontology& ontology,
                           const reasoner::Taxonomy& taxonomy,
                           const EncodingParams& params) {
    SARIADNE_EXPECTS(taxonomy.class_count() == ontology.class_count());

    CodeTable table;
    table.ontology_uri_ = ontology.uri();
    table.params_ = params;
    table.version_tag_ = mix64(fnv1a64(ontology.uri()) ^
                               (std::uint64_t{ontology.version()} << 32) ^
                               (std::uint64_t{params.p} << 8) ^ params.k);

    const std::size_t n = taxonomy.class_count();
    table.canonical_.resize(n);
    for (ConceptId c = 0; c < n; ++c) table.canonical_[c] = taxonomy.canonical(c);

    std::vector<std::vector<CodedInterval>> scratch(n);
    Builder builder{taxonomy, params, scratch, 0};
    const auto& roots = taxonomy.roots();
    const Interval unit{0.0, 1.0};
    for (std::size_t i = 0; i < roots.size(); ++i) {
        builder.place(roots[i], unit.project(sibling_slot(i, params)), 0);
    }

    // Pack into CSR: one flat occurrence array + per-representative offsets,
    // each slice sorted by interval start (the merge kernels' precondition).
    table.offsets_.assign(n + 1, 0);
    table.packed_.reserve(builder.total);
    for (ConceptId rep = 0; rep < n; ++rep) {
        auto& occurrences = scratch[rep];
        std::sort(occurrences.begin(), occurrences.end(),
                  [](const CodedInterval& a, const CodedInterval& b) {
                      return a.interval.lo < b.interval.lo;
                  });
        table.offsets_[rep] = static_cast<std::uint32_t>(table.packed_.size());
        table.packed_.insert(table.packed_.end(), occurrences.begin(),
                             occurrences.end());
    }
    table.offsets_[n] = static_cast<std::uint32_t>(table.packed_.size());
    return table;
}

ConceptCode CodeTable::code(ConceptId id) const {
    SARIADNE_EXPECTS(id < canonical_.size());
    return ConceptCode{occurrences_of(id)};
}

bool CodeTable::subsumes(ConceptId subsumer, ConceptId subsumee) const {
    SARIADNE_EXPECTS(subsumer < canonical_.size() && subsumee < canonical_.size());
    const ConceptId a = canonical_[subsumer];
    const ConceptId b = canonical_[subsumee];
    if (a == b) return true;
    const std::span<const CodedInterval> outer = occurrences_of(a);
    const std::span<const CodedInterval> inner = occurrences_of(b);
    return packed_contains(outer.data(), outer.size(), inner.data(),
                           inner.size());
}

std::optional<int> CodeTable::distance(ConceptId subsumer,
                                       ConceptId subsumee) const {
    SARIADNE_EXPECTS(subsumer < canonical_.size() && subsumee < canonical_.size());
    const ConceptId a = canonical_[subsumer];
    const ConceptId b = canonical_[subsumee];
    if (a == b) return 0;
    const std::span<const CodedInterval> outer = occurrences_of(a);
    const std::span<const CodedInterval> inner = occurrences_of(b);
    const int best = packed_distance(outer.data(), outer.size(), inner.data(),
                                     inner.size());
    if (best < 0) return std::nullopt;
    return best;
}

}  // namespace sariadne::encoding
