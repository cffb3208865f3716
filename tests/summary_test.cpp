// The exact interval-bitmap summary stack, bottom to top: SparseBitmap
// trie invariants, IntervalSummary refcount/version/delta semantics, the
// summary-image wire codec, a randomized differential pinning
// IntervalSummary::covers to a brute-force subsumption oracle over a live
// SemanticDirectory, churn drain-to-baseline regressions, and the
// protocol-level behaviors only the exact backend has (concept-granular
// pruning, delta-gap re-pull). The exchange contract both backends share
// is tested over both in protocol_test.
#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ariadne/protocol.hpp"
#include "ariadne/wire.hpp"
#include "net/topology.hpp"
#include "description/amigos_io.hpp"
#include "description/resolved.hpp"
#include "directory/semantic_directory.hpp"
#include "obs/metrics.hpp"
#include "summary/interval_summary.hpp"
#include "summary/sparse_bitmap.hpp"
#include "summary/summary_wire.hpp"
#include "test_helpers.hpp"
#include "workload/ontology_gen.hpp"
#include "workload/service_gen.hpp"

namespace sariadne::summary {
namespace {

namespace th = sariadne::testing;
namespace wire = ariadne::wire;

/// Sends a raw exact-summary image from `from` to `to` as a peer would:
/// a snapshot, or a delta when `delta` is set.
void send_image(ariadne::DiscoveryNetwork& network, net::NodeId from,
                net::NodeId to, bool delta, std::vector<std::uint8_t> image) {
    network.transport().unicast(
        from, to,
        delta ? net::make_message(wire::SummaryDelta{from, std::move(image)})
              : net::make_message(wire::SummaryBitmap{from, std::move(image)}));
}

// ---------------------------------------------------------------------------
// SparseBitmap
// ---------------------------------------------------------------------------

TEST(SparseBitmap, SetTestClearRoundTrip) {
    SparseBitmap bm;
    const std::vector<std::uint32_t> bits = {
        0, 1, 63, 64, 65, 4095, 4096, 1u << 20,
        static_cast<std::uint32_t>(SparseBitmap::kCapacity - 1)};
    for (const std::uint32_t b : bits) {
        EXPECT_FALSE(bm.test(b));
        EXPECT_TRUE(bm.set(b));
        EXPECT_FALSE(bm.set(b)) << "second set of " << b << " must not change";
        EXPECT_TRUE(bm.test(b));
    }
    EXPECT_TRUE(bm.validate());
    EXPECT_EQ(bm.popcount(), bits.size());
    for (const std::uint32_t b : bits) {
        EXPECT_TRUE(bm.clear(b));
        EXPECT_FALSE(bm.clear(b)) << "second clear of " << b << " must no-op";
        EXPECT_FALSE(bm.test(b));
    }
    EXPECT_TRUE(bm.empty());
    EXPECT_TRUE(bm.validate());
}

TEST(SparseBitmap, ForEachBitListsSetBitsInOrder) {
    std::mt19937 rng(42);
    std::uniform_int_distribution<std::uint32_t> dist(0, 1u << 24);
    for (int round = 0; round < 20; ++round) {
        SparseBitmap bm;
        std::set<std::uint32_t> expected;
        for (int i = 0; i < 400; ++i) {
            const std::uint32_t x = dist(rng);
            bm.set(x);
            expected.insert(x);
        }
        EXPECT_TRUE(bm.validate());
        std::vector<std::uint32_t> got;
        bm.for_each_bit([&](std::uint32_t bit) { got.push_back(bit); });
        EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
        EXPECT_EQ(std::set<std::uint32_t>(got.begin(), got.end()), expected);
    }
}

TEST(SparseBitmap, DistantBitsDoNotIntersect) {
    SparseBitmap lo;
    for (std::uint32_t i = 0; i < 300; ++i) lo.set(i);
    EXPECT_TRUE(lo.intersects_codes({5}));
    EXPECT_FALSE(lo.intersects_codes({(1u << 29) + 5}));
    EXPECT_FALSE(lo.intersects_codes({}));
}

TEST(SparseBitmap, FromLeavesRoundTripAndValidation) {
    SparseBitmap bm;
    std::mt19937 rng(7);
    std::uniform_int_distribution<std::uint32_t> dist(0, 1u << 22);
    for (int i = 0; i < 500; ++i) bm.set(dist(rng));

    SparseBitmap rebuilt;
    ASSERT_TRUE(SparseBitmap::from_leaves(bm.leaves(), rebuilt));
    EXPECT_EQ(rebuilt, bm);
    EXPECT_TRUE(rebuilt.validate());

    SparseBitmap out;
    EXPECT_FALSE(SparseBitmap::from_leaves({{3, 0}}, out));  // zero word
    EXPECT_FALSE(
        SparseBitmap::from_leaves({{5, 1}, {5, 2}}, out));  // duplicate index
    EXPECT_FALSE(
        SparseBitmap::from_leaves({{6, 1}, {2, 2}}, out));  // unsorted
    EXPECT_FALSE(SparseBitmap::from_leaves(
        {{SparseBitmap::kMaxWordIndex, 1}}, out));  // out of range
}

TEST(SparseBitmap, ReplaceWordDrivesGuards) {
    SparseBitmap bm;
    EXPECT_TRUE(bm.replace_word(100, 0b1010));
    EXPECT_TRUE(bm.test(100 * 64 + 1));
    EXPECT_TRUE(bm.test(100 * 64 + 3));
    EXPECT_TRUE(bm.validate());
    EXPECT_FALSE(bm.replace_word(100, 0b1010));  // identical word: unchanged
    EXPECT_TRUE(bm.replace_word(100, 0b0110));
    EXPECT_FALSE(bm.test(100 * 64 + 3));
    EXPECT_TRUE(bm.test(100 * 64 + 2));
    EXPECT_TRUE(bm.validate());
    EXPECT_TRUE(bm.replace_word(100, 0));  // erase
    EXPECT_FALSE(bm.replace_word(100, 0));
    EXPECT_TRUE(bm.empty());
    EXPECT_TRUE(bm.validate());
}

// ---------------------------------------------------------------------------
// IntervalSummary
// ---------------------------------------------------------------------------

constexpr std::uint64_t kTag = 0xFEEDu;

TEST(IntervalSummary, RefcountsFlipBitsOnlyOnBoundaryTransitions) {
    IntervalSummary s;
    const std::uint64_t v0 = s.version();
    s.retain("urn:a", kTag, Role::kOutputs, 7);
    const std::uint64_t v1 = s.version();
    EXPECT_GT(v1, v0);  // 0 -> 1 is a visible change
    EXPECT_EQ(s.code_count(), 1u);

    s.retain("urn:a", kTag, Role::kOutputs, 7);  // refcount 2, no new bit
    EXPECT_EQ(s.version(), v1);
    EXPECT_EQ(s.code_count(), 1u);

    EXPECT_TRUE(s.release("urn:a", Role::kOutputs, 7));  // 2 -> 1, bit stays
    EXPECT_EQ(s.version(), v1);
    EXPECT_EQ(s.code_count(), 1u);

    // 1 -> 0: the bit clears and the entry dies.
    EXPECT_TRUE(s.release("urn:a", Role::kOutputs, 7));
    const std::uint64_t v2 = s.version();
    EXPECT_GT(v2, v1);
    EXPECT_EQ(s.code_count(), 0u);
    EXPECT_TRUE(s.empty()) << "entry losing its last code must be erased";

    // Untracked, in every build type: reported, and nothing changes.
    EXPECT_FALSE(s.release("urn:a", Role::kOutputs, 7));
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.version(), v2);
}

TEST(IntervalSummary, DirectoryReleaseOfAnUntrackedCodeAbortsInDebug) {
    // release_projection is the directory's release path: a code it never
    // retained is a refcount bug, which debug builds stop at. Release
    // builds skip it, as a single release() does.
    IntervalSummary s;
    s.retain("urn:a", kTag, Role::kOutputs, 7);
    CapabilityProjection untracked;
    untracked.per_ontology.push_back(OntologyCodes{"urn:a", kTag, {}});
    untracked.per_ontology[0].codes[0] = {8};
    EXPECT_DEBUG_DEATH(s.release_projection(untracked),
                       "release of untracked code");
}

RequestProbe one_probe(std::string uri, std::uint64_t tag, Role role,
                       std::vector<std::uint32_t> codes) {
    RequestProbe probe;
    probe.concepts.push_back(ProbeConcept{std::move(uri), tag, role,
                                          std::move(codes)});
    return probe;
}

TEST(IntervalSummary, CoversIsExactUnderMatchingTags) {
    IntervalSummary s;
    s.retain("urn:a", kTag, Role::kOutputs, 5);
    s.retain("urn:a", kTag, Role::kProperties, 9);

    EXPECT_TRUE(s.covers(RequestProbe{}));  // nothing required: trivially on
    EXPECT_TRUE(s.covers(one_probe("urn:a", kTag, Role::kOutputs, {5, 100})));
    EXPECT_FALSE(s.covers(one_probe("urn:a", kTag, Role::kOutputs, {100})));
    // Role separation: output code 5 must not satisfy a property probe.
    EXPECT_FALSE(s.covers(one_probe("urn:a", kTag, Role::kProperties, {5})));
    // Unknown ontology excludes under any table generation.
    EXPECT_FALSE(s.covers(one_probe("urn:b", kTag, Role::kOutputs, {5})));
    // Tag mismatch on a known ontology goes conservative, never excludes.
    EXPECT_TRUE(s.covers(one_probe("urn:a", kTag + 1, Role::kOutputs, {100})));

    RequestProbe conjunction;
    conjunction.concepts.push_back(
        ProbeConcept{"urn:a", kTag, Role::kOutputs, {5}});
    conjunction.concepts.push_back(
        ProbeConcept{"urn:a", kTag, Role::kProperties, {8}});
    EXPECT_FALSE(s.covers(conjunction)) << "covers must AND over probes";
}

TEST(IntervalSummary, DeltaDiffApplyReproducesTargetExactly) {
    IntervalSummary base;
    base.retain("urn:a", kTag, Role::kOutputs, 1);
    base.retain("urn:a", kTag, Role::kOutputs, 2);
    base.retain("urn:b", kTag, Role::kProperties, 70);

    // A copy keeps the refcounts (a snapshot drops them), so the releases
    // below drop real references.
    IntervalSummary cur = base;
    // Mutations spanning all delta shapes: new code in an existing word,
    // a cleared word, a dead entry, and a brand-new entry.
    cur.retain("urn:a", kTag, Role::kOutputs, 3);
    EXPECT_TRUE(cur.release("urn:a", Role::kOutputs, 1));
    EXPECT_TRUE(cur.release("urn:b", Role::kProperties, 70));
    cur.retain("urn:c", kTag, Role::kOutputs, 900);
    cur.set_version(base.version() + 10);
    EXPECT_EQ(cur.find_entry("urn:b"), nullptr);
    EXPECT_EQ(cur.code_count(), 3u);  // urn:a 2 and 3, urn:c 900

    const SummaryDelta delta = diff_summary(base, cur);
    EXPECT_EQ(delta.base_version, base.version());
    EXPECT_EQ(delta.new_version, cur.version());
    using Slot = SparseBitmap::Slot;
    ASSERT_EQ(delta.entries.size(), 3u);
    // urn:a's word 0 trades code 1 for code 3.
    EXPECT_EQ(delta.entries[0].uri, "urn:a");
    EXPECT_EQ(delta.entries[0].words[0],
              std::vector<Slot>{(Slot{0, 0b1100})});
    // urn:b is dead: tag 0 and its one word (code 70) cleared.
    EXPECT_EQ(delta.entries[1].uri, "urn:b");
    EXPECT_EQ(delta.entries[1].code_tag, 0u);
    EXPECT_EQ(delta.entries[1].words[1], std::vector<Slot>{(Slot{1, 0})});
    // urn:c is new.
    EXPECT_EQ(delta.entries[2].uri, "urn:c");
    EXPECT_EQ(delta.entries[2].code_tag, kTag);

    IntervalSummary replica = base.snapshot();
    EXPECT_EQ(replica.apply_delta(delta), DeltaApply::kApplied);
    EXPECT_TRUE(replica == cur);

    // Idempotent re-delivery.
    EXPECT_EQ(replica.apply_delta(delta), DeltaApply::kDuplicate);
    EXPECT_TRUE(replica == cur);

    // A receiver at neither base nor new version must demand a snapshot.
    IntervalSummary stranger = base.snapshot();
    stranger.set_version(base.version() + 999);
    EXPECT_EQ(stranger.apply_delta(delta), DeltaApply::kGap);
}

TEST(IntervalSummary, SnapshotSharesRoutingStateButNotRefcounts) {
    IntervalSummary s;
    s.retain("urn:a", kTag, Role::kOutputs, 4);
    s.retain("urn:a", kTag, Role::kOutputs, 4);
    IntervalSummary snap = s.snapshot();
    EXPECT_TRUE(snap == s);
    ASSERT_EQ(snap.entries().size(), 1u);
    for (int r = 0; r < kRoleCount; ++r) {
        EXPECT_TRUE(snap.entries()[0].refs[r].empty());
    }
    // The original still holds refcount 2: one release keeps the bit.
    s.release("urn:a", Role::kOutputs, 4);
    EXPECT_TRUE(snap == s);
}

TEST(IntervalSummary, ClearRetainingVersionIsAVisibleChange) {
    IntervalSummary s;
    s.retain("urn:a", kTag, Role::kOutputs, 4);
    const std::uint64_t v = s.version();
    s.clear_retaining_version();
    EXPECT_TRUE(s.empty());
    EXPECT_GT(s.version(), v);
}

// ---------------------------------------------------------------------------
// Summary wire codec
// ---------------------------------------------------------------------------

TEST(SummaryWire, SnapshotRoundTripAndRejection) {
    IntervalSummary s;
    s.retain("urn:a", kTag, Role::kOutputs, 1);
    s.retain("urn:a", kTag, Role::kProperties, 65);
    s.retain("urn:b", kTag + 1, Role::kOutputs, 4097);
    s.set_version(77);

    const std::vector<std::uint8_t> image = encode_summary(s);
    auto decoded = try_decode_summary(image);
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded.value() == s);

    EXPECT_FALSE(try_decode_summary({}).ok());
    // Truncation at every prefix length must be rejected, never crash.
    for (std::size_t len = 0; len < image.size(); ++len) {
        EXPECT_FALSE(
            try_decode_summary({image.data(), len}).ok())
            << "prefix of " << len << " bytes decoded";
    }
    std::vector<std::uint8_t> bad_magic = image;
    bad_magic[0] ^= 0xFF;
    EXPECT_FALSE(try_decode_summary(bad_magic).ok());
    std::vector<std::uint8_t> trailing = image;
    trailing.push_back(0);
    EXPECT_FALSE(try_decode_summary(trailing).ok());
    // A snapshot image is not a delta image and vice versa.
    EXPECT_FALSE(try_decode_delta(image).ok());
}

TEST(SummaryWire, DeltaRoundTripAndRejection) {
    // A realistic churn step: a handful of mutations against a summary
    // whose bulk stays untouched, so only the dirtied words travel.
    IntervalSummary base;
    for (std::uint32_t c = 0; c < 40; ++c) {
        base.retain("urn:a", kTag, Role::kOutputs, c * 97);
        base.retain("urn:b", kTag, Role::kProperties, c * 131);
    }
    IntervalSummary cur = base;  // keeps the refcounts the release drops
    cur.retain("urn:a", kTag, Role::kOutputs, 2);
    EXPECT_TRUE(cur.release("urn:a", Role::kOutputs, 97));
    cur.retain("urn:z", kTag, Role::kProperties, 130);

    const SummaryDelta delta = diff_summary(base, cur);
    // Code 97 was alone in urn:a's word 1, so the delta clears that word.
    using Slot = SparseBitmap::Slot;
    ASSERT_FALSE(delta.entries.empty());
    EXPECT_EQ(delta.entries[0].uri, "urn:a");
    const std::vector<Slot>& words = delta.entries[0].words[0];
    EXPECT_NE(std::find(words.begin(), words.end(), Slot{1, 0}), words.end());
    const std::vector<std::uint8_t> image = encode_delta(delta);
    auto decoded = try_decode_delta(image);
    ASSERT_TRUE(decoded.ok());
    IntervalSummary replica = base.snapshot();
    EXPECT_EQ(replica.apply_delta(decoded.value()), DeltaApply::kApplied);
    EXPECT_TRUE(replica == cur);

    for (std::size_t len = 0; len < image.size(); ++len) {
        EXPECT_FALSE(try_decode_delta({image.data(), len}).ok());
    }
    EXPECT_FALSE(try_decode_summary(image).ok());

    // Delta images are where churn savings come from: a small mutation's
    // delta must undercut the full snapshot it replaces.
    EXPECT_LT(image.size(), encode_summary(cur).size());
}

// ---------------------------------------------------------------------------
// Differential: covers == brute-force subsumption over a live directory
// ---------------------------------------------------------------------------

struct World {
    encoding::KnowledgeBase kb;  // must precede workload (fill order)
    workload::ServiceWorkload workload;

    World(std::size_t ontologies, std::size_t classes, unsigned seed)
        : workload(make_universe(ontologies, classes, seed, kb)) {}

private:
    static std::vector<onto::Ontology> make_universe(
        std::size_t ontologies, std::size_t classes, unsigned seed,
        encoding::KnowledgeBase& kb) {
        workload::OntologyGenConfig config;
        config.class_count = classes;
        auto universe = workload::generate_universe(ontologies, config, seed);
        for (const auto& o : universe) kb.register_ontology(o);
        return universe;
    }
};

/// Ground truth for covers(): a required concept is satisfiable iff some
/// stored provided concept of the same role and ontology subsumes it (the
/// provider side is the subsumer in every match clause); a request is
/// coverable iff all its required output/property concepts are.
bool brute_force_covers(
    const std::vector<desc::ResolvedCapability>& request,
    const std::vector<desc::ResolvedCapability>& stored,
    encoding::KnowledgeBase& kb) {
    const auto satisfiable = [&](onto::ConceptRef required, bool outputs) {
        for (const desc::ResolvedCapability& cap : stored) {
            const auto& provided = outputs ? cap.outputs : cap.properties;
            for (const onto::ConceptRef p : provided) {
                if (p.ontology == required.ontology &&
                    kb.subsumes(p, required)) {
                    return true;
                }
            }
        }
        return false;
    };
    for (const desc::ResolvedCapability& cap : request) {
        for (const onto::ConceptRef r : cap.outputs) {
            if (!satisfiable(r, /*outputs=*/true)) return false;
        }
        for (const onto::ConceptRef r : cap.properties) {
            if (!satisfiable(r, /*outputs=*/false)) return false;
        }
    }
    return true;
}

class CoversDifferential : public ::testing::Test {
protected:
    void check_all_requests(World& world,
                            directory::SemanticDirectory& dir,
                            const std::vector<std::size_t>& live) {
        std::vector<desc::ResolvedCapability> stored;
        for (const std::size_t i : live) {
            auto caps =
                desc::resolve_provided(world.workload.service(i), world.kb);
            for (auto& cap : caps) stored.push_back(std::move(cap));
        }
        const IntervalSummary summary = dir.summary().interval();
        int mismatches = 0;
        for (std::size_t r = 0; r < 24; ++r) {
            const desc::ServiceRequest request =
                r < 12 ? world.workload.matching_request(r)
                       : world.workload.random_request(
                             static_cast<unsigned>(1000 + r));
            auto resolved = desc::resolve_request(request, world.kb);
            const RequestProbe probe =
                build_request_probe(resolved, world.kb);
            const bool exact = summary.covers(probe);
            const bool brute =
                brute_force_covers(resolved, stored, world.kb);
            EXPECT_EQ(exact, brute) << "request " << r;
            mismatches += exact != brute ? 1 : 0;
        }
        ASSERT_EQ(mismatches, 0);
    }
};

TEST_F(CoversDifferential, AgreesThroughPublishRemoveAndEnvBump) {
    World world(4, 22, 20260808);
    directory::SemanticDirectory dir(
        world.kb, directory::SummaryConfig{SummaryBackend::kInterval});

    std::vector<std::pair<std::size_t, directory::ServiceId>> published;
    for (std::size_t i = 0; i < 12; ++i) {
        published.emplace_back(
            i, dir.publish_xml(world.workload.service_xml(i)).id);
    }
    std::vector<std::size_t> live;
    for (const auto& [i, id] : published) live.push_back(i);
    check_all_requests(world, dir, live);

    // Removals release exactly: the summary must stay pinned to content.
    for (std::size_t k = 0; k < 5; ++k) {
        ASSERT_TRUE(dir.remove(published[k].second));
    }
    live.assign({5, 6, 7, 8, 9, 10, 11});
    check_all_requests(world, dir, live);

    // Environment bump: re-register ontology 0 under a new version, then
    // publish a service drawing on it — the tag conflict must trigger a
    // full re-projection, after which covers is exact again under the new
    // code tables.
    onto::Ontology bumped = world.kb.registry().at(0);
    bumped.set_version(bumped.version() + 1);
    world.kb.register_ontology(std::move(bumped));
    published.emplace_back(
        12, dir.publish_xml(world.workload.service_xml(12)).id);
    live.push_back(12);
    check_all_requests(world, dir, live);
}

// ---------------------------------------------------------------------------
// Churn regressions: refcounted maintenance never grows the summaries
// ---------------------------------------------------------------------------

TEST(SummaryChurn, BloomRefcountEntriesReturnToBaseline) {
    encoding::KnowledgeBase kb;
    kb.register_ontology(th::media_ontology());
    kb.register_ontology(th::server_ontology());
    directory::SemanticDirectory dir(kb);
    ASSERT_EQ(dir.summary_refcount_entries(), 0u);

    const std::string xml = desc::serialize_service(th::workstation_service());
    const auto first = dir.publish_xml(xml);
    const std::size_t baseline = dir.summary_refcount_entries();
    EXPECT_GT(baseline, 0u);

    // Republish churn: replacement must retain-before-release and erase
    // zero-count keys, keeping the map pinned to live content.
    directory::ServiceId last = first.id;
    for (int i = 0; i < 50; ++i) {
        last = dir.publish_xml(xml).id;
        ASSERT_EQ(dir.summary_refcount_entries(), baseline)
            << "refcount map grew on republish " << i;
    }
    ASSERT_TRUE(dir.remove(last));
    EXPECT_EQ(dir.summary_refcount_entries(), 0u);
}

TEST(SummaryChurn, IntervalCodesDrainToZero) {
    World world(3, 20, 4242);
    directory::SemanticDirectory dir(
        world.kb, directory::SummaryConfig{SummaryBackend::kInterval});
    ASSERT_EQ(dir.summary_refcount_entries(), 0u);

    for (int cycle = 0; cycle < 10; ++cycle) {
        std::vector<directory::ServiceId> ids;
        for (std::size_t i = 0; i < 6; ++i) {
            ids.push_back(dir.publish_xml(world.workload.service_xml(i)).id);
        }
        EXPECT_GT(dir.summary_refcount_entries(), 0u);
        for (const directory::ServiceId id : ids) {
            ASSERT_TRUE(dir.remove(id));
        }
        ASSERT_EQ(dir.summary_refcount_entries(), 0u)
            << "cycle " << cycle << " leaked interval codes";
        EXPECT_TRUE(dir.summary().interval().empty());
        EXPECT_FALSE(dir.summary().bloom().has_value())
            << "an interval directory keeps no Bloom filter";
    }
}

// ---------------------------------------------------------------------------
// Protocol integration: the exact backend on the wire
// ---------------------------------------------------------------------------

using ariadne::DiscoveryNetwork;
using ariadne::DiscoveryOutcome;
using ariadne::Protocol;
using ariadne::ProtocolConfig;
using net::Topology;

encoding::KnowledgeBase make_kb() {
    encoding::KnowledgeBase kb;
    kb.register_ontology(th::media_ontology());
    kb.register_ontology(th::server_ontology());
    return kb;
}

ProtocolConfig exact_config() {
    ProtocolConfig config;
    config.protocol = Protocol::kSAriadne;
    config.adv_period_ms = 500;
    config.adv_timeout_ms = 1000;
    config.election_wait_ms = 30;
    config.summary_backend = SummaryBackend::kInterval;
    return config;
}

TEST(ExactSummary, PrunesAtConceptGranularity) {
    // Both remote directories cache services over the *same* ontology URIs
    // (media + server), so a URI-level Bloom summary cannot tell them
    // apart. The exact summary can: the request's required output
    // media#VideoStream is subsumed by directory 6's provided media#Stream
    // but not by directory 12's media#SoundResource, so exactly one
    // forward goes out and the skipped peer is counted as a saved forward.
    auto kb = make_kb();
    obs::MetricsRegistry registry;
    DiscoveryNetwork network(Topology::grid(13, 1), exact_config(), kb,
                             &registry);
    network.appoint_directory(0);
    network.appoint_directory(6);
    network.appoint_directory(12);
    network.start();
    network.run_for(100);

    network.publish_service(
        5, desc::serialize_service(
               th::one_output_service("StreamServer", th::media("Stream"))));
    network.publish_service(
        11, desc::serialize_service(th::one_output_service(
                "SoundServer", th::media("SoundResource"))));
    network.run_for(5000);

    desc::Capability wanted;
    wanted.name = "WantVideoStream";
    wanted.kind = desc::CapabilityKind::kRequired;
    wanted.category_qname = th::server("DigitalServer");
    wanted.outputs.push_back(
        desc::Parameter{"out", th::media("VideoStream")});
    desc::ServiceRequest request;
    request.requester = "pda";
    request.capabilities.push_back(std::move(wanted));

    const auto before = network.traffic().per_type.count("fwd")
                            ? network.traffic().per_type.at("fwd")
                            : 0;
    const auto id = network.discover(1, desc::serialize_request(request));
    network.run_for(4000);
    const auto after = network.traffic().per_type.at("fwd");

    const DiscoveryOutcome& outcome = network.outcome(id);
    ASSERT_TRUE(outcome.answered);
    EXPECT_TRUE(outcome.satisfied);
    ASSERT_FALSE(outcome.hits.empty());
    EXPECT_EQ(outcome.hits[0].service_name, "StreamServer");
    EXPECT_EQ(after - before, 1u) << "exact routing must not over-forward";
    EXPECT_GE(registry.counter_value("protocol.forwards_saved_exact"), 1u);
    EXPECT_GT(registry.counter_value("protocol.summary_bytes_sent"), 0u);
}

TEST(ExactSummary, DeltaGapTriggersSnapshotRepull) {
    auto kb = make_kb();
    obs::MetricsRegistry registry;
    DiscoveryNetwork network(Topology::grid(3, 1), exact_config(), kb,
                             &registry);
    network.appoint_directory(0);
    network.appoint_directory(2);
    network.start();
    network.run_for(200);
    network.publish_service(2,
                            desc::serialize_service(th::workstation_service()));
    network.run_for(2000);  // node 0 now holds node 2's pushed summary

    // A well-formed delta against a version node 0 never saw: the gap must
    // be detected and repaired by re-pulling a snapshot, not applied.
    SummaryDelta bogus;
    bogus.base_version = 987654;
    bogus.new_version = 987655;
    const auto pulls_before =
        registry.counter_value("protocol.summary_pulls");
    send_image(network, 2, 0, /*delta=*/true, encode_delta(bogus));
    network.run_for(2000);
    EXPECT_GE(registry.counter_value("protocol.summary_pulls"),
              pulls_before + 1);

    // After the repair the directory still routes: a request near node 0
    // reaches the service cached at directory 2.
    desc::ServiceRequest request;
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(1, desc::serialize_request(request));
    network.run_for(5000);
    const DiscoveryOutcome& outcome = network.outcome(id);
    ASSERT_TRUE(outcome.answered);
    EXPECT_TRUE(outcome.satisfied);
}

}  // namespace
}  // namespace sariadne::summary
