// RoutingSummary — the one directory summary S-Ariadne exchanges (§4),
// for whichever backend the network runs: a Bloom filter over ontology
// URIs or the exact IntervalSummary over concept codes. Every backend
// decision lives here: what a cached capability contributes, refcounted
// maintenance, the version peers must hear about, what to push given what
// was last pushed, the image a pull is answered with, applying a received
// image to the held copy of a peer's summary, and whether that copy admits
// a request. Only the configured backend is kept: an interval summary
// holds no Bloom filter and no URI-set refcounts.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "encoding/resolved.hpp"
#include "summary/interval_summary.hpp"

namespace sariadne::summary {

/// Which summary directories maintain and exchange; one per network.
enum class SummaryBackend : std::uint8_t {
    kBloom = 0,     ///< ontology-URI Bloom filter (default, the paper's §4)
    kInterval = 1,  ///< exact concept-code interval bitmap
};

/// What one cached capability contributes: its ontology-URI set (Bloom) or
/// its provided-side concept codes (interval); the other half stays empty.
struct Contribution {
    std::vector<std::string> uris;
    CapabilityProjection codes;
};

/// One contribution list per service.
using ContributionLists = std::vector<const std::vector<Contribution>*>;

/// What the owner must do after update().
enum class Rebuild : std::uint8_t {
    kNone,       ///< the change was absorbed incrementally
    kRefill,     ///< rebuild() from the live services' cached contributions
    kReproject,  ///< as kRefill, but recompute the contributions first:
                 ///< they were projected under outdated code tables
};

/// A summary image as it travels: Bloom words ("summary-push"), or an
/// interval snapshot ("summary-bitmap") or delta ("summary-delta").
struct Image {
    enum class Kind : std::uint8_t { kBloom, kSnapshot, kDelta };
    Kind kind = Kind::kBloom;
    std::vector<std::uint64_t> words;  ///< kBloom: BloomFilter::serialize()
    std::vector<std::uint8_t> bytes;   ///< otherwise: summary_wire image
};

/// A received image, viewed in the message that carried it.
struct ImageView {
    Image::Kind kind = Image::Kind::kBloom;
    std::span<const std::uint64_t> words;
    std::span<const std::uint8_t> bytes;
};

enum class Applied : std::uint8_t {
    kApplied,   ///< the held copy reflects the image (or already did)
    kRejected,  ///< corrupt, or of the other backend: dropped
    kGap,       ///< a delta against a version not held: pull a snapshot
};

/// A request prepared once for admit() against every peer.
struct RoutingProbe {
    std::vector<std::string> uris;  ///< Bloom: every ontology URI drawn on
    RequestProbe concepts;          ///< interval: required concept closures
};

enum class Admission : std::uint8_t {
    kAdmit,            ///< the peer may hold a match: forward
    kReject,           ///< the peer provably holds none
    kRejectByConcept,  ///< rejected, where a summary over ontology URIs
                       ///< would have admitted (a saved forward)
};

class RoutingSummary;
/// Held copies of the peers' summaries, by peer node id.
using PeerSummaries = std::unordered_map<std::uint32_t, RoutingSummary>;

class RoutingSummary {
public:
    /// An empty summary; `bloom` sizes the Bloom backend's filter.
    explicit RoutingSummary(SummaryBackend backend,
                            bloom::BloomParams bloom = {});

    // --- owner side -----------------------------------------------------
    /// Contributions of `provided`, projected under the knowledge base's
    /// current code tables. Reads only the backend, which never changes,
    /// so the owner may call it without its summary lock.
    std::vector<Contribution> contribute(
        const std::vector<desc::ResolvedCapability>& provided,
        encoding::KnowledgeBase& kb) const;

    /// Counts `added` in before counting `removed` out, so what a
    /// replacement shares with the service it replaces never drops out.
    Rebuild update(const ContributionLists& added,
                   const ContributionLists& removed);

    /// Rebuilds the image from every live service's contributions.
    void rebuild(const ContributionLists& live);

    /// Moves whenever peers must hear about a change: the interval content
    /// version, or each time the Bloom filter gains a bit.
    std::uint64_t version() const noexcept;

    /// Copy without refcounts.
    RoutingSummary snapshot() const;

    /// Live refcount keys (URI sets or codes); churn drains them to zero.
    std::size_t refcount_entries() const noexcept;

    // --- exchange -------------------------------------------------------
    /// What to push given the summary the backbone last received from us
    /// (nullopt before the first push): Bloom, its full filter every time;
    /// interval, nothing while the version stands still, else a delta
    /// against `last_pushed` unless the snapshot is no larger.
    std::optional<Image> push(
        const std::optional<RoutingSummary>& last_pushed) const;

    /// The image a pull is answered with.
    Image full_image() const;

    // --- peer side ------------------------------------------------------
    /// Folds `image` from `peer` into `peers` under the receiver's own
    /// `backend`. Never throws on hostile bytes.
    static Applied apply(SummaryBackend backend, PeerSummaries& peers,
                         std::uint32_t peer, const ImageView& image);

    static RoutingProbe probe(
        SummaryBackend backend,
        const std::vector<desc::ResolvedCapability>& request,
        encoding::KnowledgeBase& kb);

    Admission admit(const RoutingProbe& probe) const;

    /// True when an admitted peer can answer empty for a reason other than
    /// a stale copy: a Bloom false positive.
    static bool over_admits(SummaryBackend backend) noexcept {
        return backend == SummaryBackend::kBloom;
    }

    /// The concrete images, for tests and benches.
    const std::optional<bloom::BloomFilter>& bloom() const noexcept {
        return filter_;
    }
    const IntervalSummary& interval() const noexcept { return exact_; }

private:
    explicit RoutingSummary(bloom::BloomFilter filter);
    explicit RoutingSummary(IntervalSummary exact);

    SummaryBackend backend_;
    /// Bloom: the filter, the live holders of each distinct URI set (owner
    /// copy only) and the version.
    std::optional<bloom::BloomFilter> filter_;
    std::unordered_map<std::string, std::uint64_t> uri_set_refs_;
    std::uint64_t filter_version_ = 0;
    /// Interval, with per-code refcounts on the owner copy.
    IntervalSummary exact_;
};

/// The URIs of the ontologies a resolved capability draws from, in
/// registry order: what keys a Bloom summary.
std::vector<std::string> ontology_uris(
    const desc::ResolvedCapability& capability,
    const onto::OntologyRegistry& registry);

}  // namespace sariadne::summary
