#include "summary/routing_summary.hpp"

#include <utility>

#include "reasoner/knowledge_base.hpp"
#include "summary/summary_wire.hpp"

namespace sariadne::summary {

namespace {

/// Refcount key for one capability's ontology-URI set. The URIs come out
/// of resolution in a deterministic order, so identical sets always map to
/// the same key; an order-sensitive false distinction is harmless (it can
/// only trigger a spare rebuild, never skip a needed one).
std::string uri_set_key(const std::vector<std::string>& uris) {
    std::string key;
    for (const std::string& uri : uris) {
        key += uri;
        key += '\n';
    }
    return key;
}

template <typename Fn>
void for_each(const ContributionLists& lists, Fn&& fn) {
    for (const auto* list : lists) {
        for (const Contribution& c : *list) fn(c);
    }
}

}  // namespace

RoutingSummary::RoutingSummary(SummaryBackend backend,
                               bloom::BloomParams bloom)
    : backend_(backend) {
    if (backend_ == SummaryBackend::kBloom) filter_.emplace(bloom);
}

RoutingSummary::RoutingSummary(bloom::BloomFilter filter)
    : backend_(SummaryBackend::kBloom), filter_(std::move(filter)) {}

RoutingSummary::RoutingSummary(IntervalSummary exact)
    : backend_(SummaryBackend::kInterval), exact_(std::move(exact)) {}

std::vector<Contribution> RoutingSummary::contribute(
    const std::vector<desc::ResolvedCapability>& provided,
    encoding::KnowledgeBase& kb) const {
    std::vector<Contribution> contributions(provided.size());
    for (std::size_t i = 0; i < provided.size(); ++i) {
        if (backend_ == SummaryBackend::kBloom) {
            contributions[i].uris = ontology_uris(provided[i], kb.registry());
        } else {
            contributions[i].codes = project_capability(provided[i], kb);
        }
    }
    return contributions;
}

Rebuild RoutingSummary::update(const ContributionLists& added,
                               const ContributionLists& removed) {
    if (backend_ == SummaryBackend::kBloom) {
        for_each(added, [&](const Contribution& c) {
            ++uri_set_refs_[uri_set_key(c.uris)];
        });
        // Filters cannot subtract: a set that lost its last holder (or was
        // never counted in) leaves only a rebuild.
        bool lost = false;
        for_each(removed, [&](const Contribution& c) {
            const auto it = uri_set_refs_.find(uri_set_key(c.uris));
            if (it == uri_set_refs_.end() || --it->second == 0) {
                if (it != uri_set_refs_.end()) uri_set_refs_.erase(it);
                lost = true;
            }
        });
        if (lost) return Rebuild::kRefill;
        // Additive: the filter gained a bit iff its bit count grew.
        const std::size_t bits_before = filter_->set_bit_count();
        for_each(added, [&](const Contribution& c) {
            filter_->insert_ontology_set(c.uris);
        });
        if (filter_->set_bit_count() > bits_before) ++filter_version_;
        return Rebuild::kNone;
    }
    // Codes projected under another code-table generation than the held
    // entries: re-project everything instead of mixing generations.
    bool conflict = false;
    for_each(added, [&](const Contribution& c) {
        conflict = conflict || exact_.tag_conflict(c.codes);
    });
    if (conflict) return Rebuild::kReproject;
    for_each(added, [&](const Contribution& c) {
        exact_.retain_projection(c.codes);
    });
    for_each(removed, [&](const Contribution& c) {
        exact_.release_projection(c.codes);
    });
    return Rebuild::kNone;
}

void RoutingSummary::rebuild(const ContributionLists& live) {
    if (backend_ == SummaryBackend::kInterval) {
        exact_.clear_retaining_version();
        for_each(live, [&](const Contribution& c) {
            exact_.retain_projection(c.codes);
        });
        return;
    }
    bloom::BloomFilter before =
        std::exchange(*filter_, bloom::BloomFilter(filter_->params()));
    for_each(live, [&](const Contribution& c) {
        filter_->insert_ontology_set(c.uris);
    });
    // A rebuild can drop as many bits as it sets (a re-advertisement that
    // swapped ontologies), so compare images, not counts: the filter
    // gained a bit iff OR-ing it into the old image grows that image.
    const std::size_t bits_before = before.set_bit_count();
    before.merge(*filter_);
    if (before.set_bit_count() > bits_before) ++filter_version_;
}

std::uint64_t RoutingSummary::version() const noexcept {
    return backend_ == SummaryBackend::kBloom ? filter_version_
                                              : exact_.version();
}

RoutingSummary RoutingSummary::snapshot() const {
    if (!filter_) return RoutingSummary(exact_.snapshot());
    RoutingSummary copy(*filter_);
    copy.filter_version_ = filter_version_;
    return copy;
}

std::size_t RoutingSummary::refcount_entries() const noexcept {
    return backend_ == SummaryBackend::kBloom ? uri_set_refs_.size()
                                              : exact_.code_count();
}

std::optional<Image> RoutingSummary::push(
    const std::optional<RoutingSummary>& last_pushed) const {
    if (backend_ == SummaryBackend::kBloom) return full_image();
    // Unchanged since the backbone last heard from us: a delta would be
    // empty and a snapshot redundant (late-elected peers pull their own).
    if (last_pushed && last_pushed->version() == version()) return {};
    Image image = full_image();
    if (last_pushed) {
        // A peer that missed the delta's base detects the gap on apply and
        // pulls a snapshot, so one shared base is enough.
        std::vector<std::uint8_t> delta =
            encode_delta(diff_summary(last_pushed->exact_, exact_));
        if (delta.size() < image.bytes.size()) {
            image = Image{Image::Kind::kDelta, {}, std::move(delta)};
        }
    }
    return image;
}

Image RoutingSummary::full_image() const {
    if (backend_ == SummaryBackend::kBloom) {
        return Image{Image::Kind::kBloom, filter_->serialize(), {}};
    }
    return Image{Image::Kind::kSnapshot, {}, encode_summary(exact_)};
}

Applied RoutingSummary::apply(SummaryBackend backend, PeerSummaries& peers,
                              std::uint32_t peer, const ImageView& image) {
    if ((image.kind == Image::Kind::kBloom) !=
        (backend == SummaryBackend::kBloom)) {
        return Applied::kRejected;
    }
    if (image.kind == Image::Kind::kBloom) {
        auto filter = bloom::BloomFilter::try_deserialize(image.words);
        if (!filter) return Applied::kRejected;
        peers.insert_or_assign(peer, RoutingSummary(*std::move(filter)));
    } else if (image.kind == Image::Kind::kSnapshot) {
        auto decoded = try_decode_summary(image.bytes);
        if (!decoded) return Applied::kRejected;
        peers.insert_or_assign(peer,
                               RoutingSummary(std::move(decoded).value()));
    } else {
        const auto delta = try_decode_delta(image.bytes);
        if (!delta) return Applied::kRejected;
        // A re-delivered delta (kDuplicate) changes nothing and is fine.
        const auto it = peers.find(peer);
        const bool gap = it == peers.end() ||
                         it->second.exact_.apply_delta(delta.value()) ==
                             DeltaApply::kGap;
        return gap ? Applied::kGap : Applied::kApplied;
    }
    return Applied::kApplied;
}

RoutingProbe RoutingSummary::probe(
    SummaryBackend backend,
    const std::vector<desc::ResolvedCapability>& request,
    encoding::KnowledgeBase& kb) {
    RoutingProbe probe;
    if (backend == SummaryBackend::kInterval) {
        probe.concepts = build_request_probe(request, kb);
        return probe;
    }
    FlatSet<onto::OntologyIndex> all;
    for (const auto& cap : request) all = all.united_with(cap.ontologies);
    for (const onto::OntologyIndex index : all) {
        probe.uris.push_back(kb.registry().at(index).uri());
    }
    return probe;
}

Admission RoutingSummary::admit(const RoutingProbe& probe) const {
    if (backend_ == SummaryBackend::kBloom) {
        return filter_->possibly_covers(probe.uris) ? Admission::kAdmit
                                                    : Admission::kReject;
    }
    if (exact_.covers(probe.concepts)) return Admission::kAdmit;
    // Saved over URI granularity only when the peer holds every probed
    // ontology (a Bloom summary would have admitted) but none of the
    // subsuming concept codes.
    for (const ProbeConcept& pc : probe.concepts.concepts) {
        if (exact_.find_entry(pc.uri) == nullptr) return Admission::kReject;
    }
    return Admission::kRejectByConcept;
}

std::vector<std::string> ontology_uris(
    const desc::ResolvedCapability& capability,
    const onto::OntologyRegistry& registry) {
    std::vector<std::string> uris;
    uris.reserve(capability.ontologies.size());
    for (const onto::OntologyIndex index : capability.ontologies) {
        uris.push_back(registry.at(index).uri());
    }
    return uris;
}

}  // namespace sariadne::summary
