#include "summary/interval_summary.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "encoding/resolved.hpp"
#include "reasoner/knowledge_base.hpp"

namespace sariadne::summary {

namespace {

constexpr std::size_t role_index(Role role) noexcept {
    return static_cast<std::size_t>(role);
}

bool entry_is_empty(const IntervalSummary::Entry& entry) noexcept {
    for (int r = 0; r < kRoleCount; ++r) {
        if (!entry.bits[r].empty() || !entry.refs[r].empty()) return false;
    }
    return true;
}

}  // namespace

IntervalSummary::Entry& IntervalSummary::find_or_insert(std::string_view uri,
                                                        std::uint64_t code_tag) {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), uri,
        [](const Entry& e, std::string_view key) { return e.uri < key; });
    if (it != entries_.end() && it->uri == uri) return *it;
    Entry entry;
    entry.uri = std::string(uri);
    entry.code_tag = code_tag;
    return *entries_.insert(it, std::move(entry));
}

const IntervalSummary::Entry* IntervalSummary::find_entry(
    std::string_view uri) const noexcept {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), uri,
        [](const Entry& e, std::string_view key) { return e.uri < key; });
    if (it != entries_.end() && it->uri == uri) return &*it;
    return nullptr;
}

std::uint64_t IntervalSummary::entry_tag(std::string_view uri) const noexcept {
    const Entry* e = find_entry(uri);
    return e != nullptr ? e->code_tag : 0;
}

void IntervalSummary::retain(std::string_view uri, std::uint64_t code_tag,
                             Role role, std::uint32_t code) {
    Entry& entry = find_or_insert(uri, code_tag);
    assert(entry.code_tag == code_tag &&
           "tag conflict must trigger a rebuild before retains");
    auto& count = entry.refs[role_index(role)][code];
    if (++count == 1) {
        const bool changed = entry.bits[role_index(role)].set(code);
        assert(changed && "refcount 0->1 must flip the bit");
        (void)changed;
        ++version_;
    }
}

bool IntervalSummary::release(std::string_view uri, Role role,
                              std::uint32_t code) {
    const auto ent_it = std::lower_bound(
        entries_.begin(), entries_.end(), uri,
        [](const Entry& e, std::string_view key) { return e.uri < key; });
    if (ent_it == entries_.end() || ent_it->uri != uri) return false;
    auto& refs = ent_it->refs[role_index(role)];
    const auto ref_it = refs.find(code);
    if (ref_it == refs.end()) return false;
    if (--ref_it->second != 0) return true;
    refs.erase(ref_it);
    const bool changed = ent_it->bits[role_index(role)].clear(code);
    assert(changed && "refcount 1->0 must clear the bit");
    (void)changed;
    ++version_;
    if (entry_is_empty(*ent_it)) entries_.erase(ent_it);
    return true;
}

void IntervalSummary::retain_projection(const CapabilityProjection& projection) {
    for (const OntologyCodes& oc : projection.per_ontology) {
        for (int r = 0; r < kRoleCount; ++r) {
            for (const std::uint32_t code : oc.codes[r]) {
                retain(oc.uri, oc.code_tag, static_cast<Role>(r), code);
            }
        }
    }
}

void IntervalSummary::release_projection(
    const CapabilityProjection& projection) {
    for (const OntologyCodes& oc : projection.per_ontology) {
        for (int r = 0; r < kRoleCount; ++r) {
            for (const std::uint32_t code : oc.codes[r]) {
                // The directory releases only what it retained; anything
                // else is a refcount bug.
                const bool held = release(oc.uri, static_cast<Role>(r), code);
                assert(held && "release of untracked code");
                (void)held;
            }
        }
    }
}

bool IntervalSummary::tag_conflict(
    const CapabilityProjection& projection) const {
    for (const OntologyCodes& oc : projection.per_ontology) {
        const std::uint64_t held = entry_tag(oc.uri);
        if (held != 0 && held != oc.code_tag) return true;
    }
    return false;
}

bool IntervalSummary::covers(const RequestProbe& probe) const {
    for (const ProbeConcept& pc : probe.concepts) {
        const Entry* entry = find_entry(pc.uri);
        // No codes of this ontology at all ⇒ no provided concept can
        // subsume the required one, under any table generation.
        if (entry == nullptr) return false;
        if (entry->code_tag == 0 || pc.code_tag == 0 ||
            entry->code_tag != pc.code_tag) {
            continue;  // stale/mixed codes: cannot exclude soundly
        }
        if (!entry->bits[role_index(pc.role)].intersects_codes(pc.codes)) {
            return false;
        }
    }
    return true;
}

DeltaApply IntervalSummary::apply_delta(const SummaryDelta& delta) {
    if (version_ == delta.new_version) return DeltaApply::kDuplicate;
    if (version_ != delta.base_version) return DeltaApply::kGap;
    for (const SummaryDelta::Entry& change : delta.entries) {
        Entry& entry = find_or_insert(change.uri, change.code_tag);
        entry.code_tag = change.code_tag;
        for (int r = 0; r < kRoleCount; ++r) {
            for (const SparseBitmap::Slot& slot : change.words[r]) {
                entry.bits[r].replace_word(slot.index, slot.word);
            }
        }
    }
    std::erase_if(entries_,
                  [](const Entry& e) { return entry_is_empty(e); });
    version_ = delta.new_version;
    return DeltaApply::kApplied;
}

IntervalSummary IntervalSummary::snapshot() const {
    IntervalSummary out;
    out.version_ = version_;
    out.entries_.reserve(entries_.size());
    for (const Entry& entry : entries_) {
        Entry copy;
        copy.uri = entry.uri;
        copy.code_tag = entry.code_tag;
        copy.bits = entry.bits;
        out.entries_.push_back(std::move(copy));
    }
    return out;
}

void IntervalSummary::clear_retaining_version() {
    entries_.clear();
    ++version_;
}

std::size_t IntervalSummary::code_count() const noexcept {
    std::size_t n = 0;
    for (const Entry& entry : entries_) {
        for (int r = 0; r < kRoleCount; ++r) n += entry.bits[r].popcount();
    }
    return n;
}

bool operator==(const IntervalSummary& a, const IntervalSummary& b) {
    if (a.version_ != b.version_ || a.entries_.size() != b.entries_.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.entries_.size(); ++i) {
        const IntervalSummary::Entry& ea = a.entries_[i];
        const IntervalSummary::Entry& eb = b.entries_[i];
        if (ea.uri != eb.uri || ea.code_tag != eb.code_tag ||
            ea.bits != eb.bits) {
            return false;
        }
    }
    return true;
}

namespace {

/// Word-level diff of one role's bitmaps; emits (index, new word image)
/// slots, with word 0 marking a cleared index.
void diff_role(const SparseBitmap& base, const SparseBitmap& cur,
               std::vector<SparseBitmap::Slot>& out) {
    const auto& a = base.leaves();
    const auto& b = cur.leaves();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i].index < b[j].index) {
            out.push_back({a[i].index, 0});
            ++i;
        } else if (b[j].index < a[i].index) {
            out.push_back(b[j]);
            ++j;
        } else {
            if (a[i].word != b[j].word) out.push_back(b[j]);
            ++i;
            ++j;
        }
    }
    for (; i < a.size(); ++i) out.push_back({a[i].index, 0});
    for (; j < b.size(); ++j) out.push_back(b[j]);
}

}  // namespace

SummaryDelta diff_summary(const IntervalSummary& base,
                          const IntervalSummary& cur) {
    SummaryDelta delta;
    delta.base_version = base.version();
    delta.new_version = cur.version();
    const auto& a = base.entries();
    const auto& b = cur.entries();
    std::size_t i = 0;
    std::size_t j = 0;
    auto emit = [&delta](const IntervalSummary::Entry* old_entry,
                         const IntervalSummary::Entry* new_entry) {
        SummaryDelta::Entry change;
        change.uri = new_entry != nullptr ? new_entry->uri : old_entry->uri;
        change.code_tag = new_entry != nullptr ? new_entry->code_tag : 0;
        bool tag_changed =
            old_entry == nullptr || new_entry == nullptr ||
            old_entry->code_tag != new_entry->code_tag;
        bool any_words = false;
        static const SparseBitmap kEmpty;
        for (int r = 0; r < kRoleCount; ++r) {
            const SparseBitmap& ob = old_entry != nullptr ? old_entry->bits[r] : kEmpty;
            const SparseBitmap& nb = new_entry != nullptr ? new_entry->bits[r] : kEmpty;
            diff_role(ob, nb, change.words[r]);
            any_words = any_words || !change.words[r].empty();
        }
        if (any_words || tag_changed) delta.entries.push_back(std::move(change));
    };
    while (i < a.size() && j < b.size()) {
        if (a[i].uri < b[j].uri) {
            emit(&a[i], nullptr);
            ++i;
        } else if (b[j].uri < a[i].uri) {
            emit(nullptr, &b[j]);
            ++j;
        } else {
            emit(&a[i], &b[j]);
            ++i;
            ++j;
        }
    }
    for (; i < a.size(); ++i) emit(&a[i], nullptr);
    for (; j < b.size(); ++j) emit(nullptr, &b[j]);
    return delta;
}

namespace {

void add_projection_code(CapabilityProjection& out, encoding::KnowledgeBase& kb,
                         onto::ConceptRef ref, Role role) {
    const std::string& uri = kb.ontology(ref.ontology).uri();
    OntologyCodes* codes = nullptr;
    for (OntologyCodes& oc : out.per_ontology) {
        if (oc.uri == uri) {
            codes = &oc;
            break;
        }
    }
    if (codes == nullptr) {
        OntologyCodes oc;
        oc.uri = uri;
        oc.code_tag = kb.code_table(ref.ontology).version_tag();
        out.per_ontology.push_back(std::move(oc));
        codes = &out.per_ontology.back();
    }
    const std::uint32_t canon =
        kb.taxonomy(ref.ontology).canonical(ref.concept_id);
    codes->codes[static_cast<std::size_t>(role)].push_back(canon);
}

}  // namespace

CapabilityProjection project_capability(const desc::ResolvedCapability& cap,
                                        encoding::KnowledgeBase& kb) {
    CapabilityProjection out;
    for (const onto::ConceptRef ref : cap.outputs) {
        add_projection_code(out, kb, ref, Role::kOutputs);
    }
    for (const onto::ConceptRef ref : cap.properties) {
        add_projection_code(out, kb, ref, Role::kProperties);
    }
    return out;
}

RequestProbe build_request_probe(
    const std::vector<desc::ResolvedCapability>& request,
    encoding::KnowledgeBase& kb) {
    RequestProbe probe;
    std::unordered_set<std::uint64_t> seen;
    auto add = [&](onto::ConceptRef ref, Role role) {
        const auto& tax = kb.taxonomy(ref.ontology);
        const std::uint32_t canon = tax.canonical(ref.concept_id);
        const std::uint64_t key = (std::uint64_t{ref.ontology} << 33) |
                                  (std::uint64_t{static_cast<std::uint8_t>(role)}
                                   << 32) |
                                  canon;
        if (!seen.insert(key).second) return;
        ProbeConcept pc;
        pc.uri = kb.ontology(ref.ontology).uri();
        pc.code_tag = kb.code_table(ref.ontology).version_tag();
        pc.role = role;
        // Ancestors-or-self closure over the transitively reduced
        // representative parent lists = every concept that subsumes `ref`.
        std::vector<std::uint32_t> stack{canon};
        std::unordered_set<std::uint32_t> visited{canon};
        while (!stack.empty()) {
            const std::uint32_t c = stack.back();
            stack.pop_back();
            pc.codes.push_back(c);
            for (const std::uint32_t parent : tax.direct_parents(c)) {
                const std::uint32_t pcanon = tax.canonical(parent);
                if (visited.insert(pcanon).second) stack.push_back(pcanon);
            }
        }
        std::sort(pc.codes.begin(), pc.codes.end());
        probe.concepts.push_back(std::move(pc));
    };
    for (const desc::ResolvedCapability& cap : request) {
        for (const onto::ConceptRef ref : cap.outputs) add(ref, Role::kOutputs);
        for (const onto::ConceptRef ref : cap.properties) {
            add(ref, Role::kProperties);
        }
    }
    return probe;
}

}  // namespace sariadne::summary
