// Facade API redesign coverage: QueryOptions (top_k, max_distance,
// require_all_capabilities), the PublishReceipt return type, and
// the non-throwing try_publish / try_discover entry points.
#include <gtest/gtest.h>

#include "core/discovery_engine.hpp"
#include "description/amigos_io.hpp"
#include "directory/semantic_directory.hpp"
#include "support/errors.hpp"
#include "support/result.hpp"
#include "test_helpers.hpp"

namespace sariadne {
namespace {

namespace th = sariadne::testing;

/// Three providers whose SendDigitalStream-shaped capability sits at
/// semantic distance 3 / 2 / 1 from the Figure 1 GetVideoStream request
/// (category DigitalServer / MediaServer / VideoServer respectively).
class RankedProvidersFixture : public ::testing::Test {
protected:
    RankedProvidersFixture() {
        engine_.register_ontology(th::media_ontology());
        engine_.register_ontology(th::server_ontology());
        publish_at_level("Generic", "DigitalServer");
        publish_at_level("Middle", "MediaServer");
        publish_at_level("Specific", "VideoServer");
    }

    void publish_at_level(const std::string& service_name,
                          const char* category) {
        desc::ServiceDescription service;
        service.profile.service_name = service_name;
        service.profile.provider = "test";
        desc::Capability cap = th::send_digital_stream();
        cap.category_qname = th::server(category);
        service.profile.capabilities.push_back(std::move(cap));
        engine_.publish(std::move(service));
    }

    desc::ServiceRequest video_request() const {
        desc::ServiceRequest request;
        request.requester = "pda";
        request.capabilities.push_back(th::get_video_stream());
        return request;
    }

    DiscoveryEngine engine_;
};

TEST_F(RankedProvidersFixture, DefaultOptionsKeepBestDistanceTierOnly) {
    const auto results = engine_.discover(video_request());
    ASSERT_EQ(results.size(), 1u);
    ASSERT_EQ(results[0].size(), 1u);
    EXPECT_EQ(results[0][0].service_name, "Specific");
    EXPECT_EQ(results[0][0].semantic_distance, 1);
}

TEST_F(RankedProvidersFixture, TopKReturnsClosestFirstBeyondBestTier) {
    QueryOptions options;
    options.top_k = 2;
    const auto results = engine_.discover(video_request(), options);
    ASSERT_EQ(results[0].size(), 2u);
    EXPECT_EQ(results[0][0].service_name, "Specific");
    EXPECT_EQ(results[0][0].semantic_distance, 1);
    EXPECT_EQ(results[0][1].service_name, "Middle");
    EXPECT_EQ(results[0][1].semantic_distance, 2);
}

TEST_F(RankedProvidersFixture, TopKLargerThanHitCountReturnsAllRanked) {
    QueryOptions options;
    options.top_k = 10;
    const auto results = engine_.discover(video_request(), options);
    ASSERT_EQ(results[0].size(), 3u);
    EXPECT_EQ(results[0][0].semantic_distance, 1);
    EXPECT_EQ(results[0][1].semantic_distance, 2);
    EXPECT_EQ(results[0][2].semantic_distance, 3);
}

TEST_F(RankedProvidersFixture, MaxDistanceDropsFarHits) {
    QueryOptions options;
    options.top_k = 10;
    options.max_distance = 2;
    const auto results = engine_.discover(video_request(), options);
    ASSERT_EQ(results[0].size(), 2u);
    EXPECT_EQ(results[0][0].service_name, "Specific");
    EXPECT_EQ(results[0][1].service_name, "Middle");
}

TEST_F(RankedProvidersFixture, MaxDistanceZeroMeansExactMatchesOnly) {
    QueryOptions options;
    options.max_distance = 0;
    const auto results = engine_.discover(video_request(), options);
    EXPECT_TRUE(results[0].empty());
}

TEST_F(RankedProvidersFixture, MaxDistanceComposesWithBestTierDefault) {
    // Without top_k, max_distance filters and the minimal tier still wins.
    QueryOptions options;
    options.max_distance = 2;
    const auto results = engine_.discover(video_request(), options);
    ASSERT_EQ(results[0].size(), 1u);
    EXPECT_EQ(results[0][0].service_name, "Specific");
}

TEST_F(RankedProvidersFixture, MaxDistanceBoundaryIsInclusiveOnEveryPath) {
    // The pinned contract: a hit at semantic distance exactly equal to
    // max_distance is KEPT (<=, not <), on every query path — top-k
    // selection, the best-tier min scan, and both the signature-carrying
    // and registry-only request resolutions. The farthest provider here
    // sits at distance 3, so max_distance = 3 must keep all three hits
    // and max_distance = 2 must be the first value that drops one.
    QueryOptions at_bound;
    at_bound.top_k = 10;
    at_bound.max_distance = 3;
    const auto kept = engine_.discover(video_request(), at_bound);
    ASSERT_EQ(kept[0].size(), 3u);
    EXPECT_EQ(kept[0].back().semantic_distance, 3);  // exactly at the bound

    QueryOptions below;
    below.top_k = 10;
    below.max_distance = 2;
    const auto dropped = engine_.discover(video_request(), below);
    EXPECT_EQ(dropped[0].size(), 2u);

    // Best-tier path (no top_k): the minimum-distance hit is at 1, so a
    // bound of exactly 1 keeps it and 0 drops it.
    QueryOptions tier_bound;
    tier_bound.max_distance = 1;
    ASSERT_EQ(engine_.discover(video_request(), tier_bound)[0].size(), 1u);
    tier_bound.max_distance = 0;
    EXPECT_TRUE(engine_.discover(video_request(), tier_bound)[0].empty());

    // Same boundary through the directory facade on a pre-resolved request
    // (the daemon's path) — signatures attached, encoded fast path taken.
    const auto resolved = desc::resolve_request(
        video_request(), engine_.knowledge_base());
    QueryOptions resolved_bound;
    resolved_bound.top_k = 10;
    resolved_bound.max_distance = 3;
    const auto via_directory =
        engine_.directory().query_resolved(resolved, resolved_bound);
    ASSERT_EQ(via_directory.per_capability.size(), 1u);
    EXPECT_EQ(via_directory.per_capability[0].size(), 3u);
    resolved_bound.max_distance = 2;
    EXPECT_EQ(engine_.directory()
                  .query_resolved(resolved, resolved_bound)
                  .per_capability[0]
                  .size(),
              2u);
}

TEST_F(RankedProvidersFixture, RequireAllCapabilitiesIsAllOrNothing) {
    desc::ServiceRequest request = video_request();
    desc::Capability impossible = th::get_video_stream();
    impossible.name = "Impossible";
    impossible.outputs[0].concept_qname = th::media("Title");
    request.capabilities.push_back(impossible);

    // Lenient default: the satisfiable capability still reports its hits.
    const auto lenient = engine_.discover(request);
    ASSERT_EQ(lenient.size(), 2u);
    EXPECT_FALSE(lenient[0].empty());
    EXPECT_TRUE(lenient[1].empty());

    QueryOptions options;
    options.require_all_capabilities = true;
    const auto strict = engine_.discover(request, options);
    ASSERT_EQ(strict.size(), 2u);  // request shape preserved
    EXPECT_TRUE(strict[0].empty());
    EXPECT_TRUE(strict[1].empty());
}

TEST_F(RankedProvidersFixture, DirectoryQueryHonoursOptionsDirectly) {
    QueryOptions options;
    options.top_k = 2;
    const auto result = engine_.directory().query(video_request(), options);
    ASSERT_EQ(result.per_capability.size(), 1u);
    ASSERT_EQ(result.per_capability[0].size(), 2u);
    EXPECT_LE(result.per_capability[0][0].semantic_distance,
              result.per_capability[0][1].semantic_distance);
}

// --- PublishReceipt ---------------------------------------------------------

TEST_F(RankedProvidersFixture, PublishReceiptCarriesHandleAndTiming) {
    const PublishReceipt receipt = engine_.directory().publish_xml(
        desc::serialize_service(th::workstation_service()));
    EXPECT_GT(receipt.id, 0u);
    EXPECT_GT(receipt.timing.parse_ms, 0.0);
    EXPECT_GE(receipt.timing.insert_ms, 0.0);
    const auto [id, timing] = receipt;  // aggregate: bindings keep working
    EXPECT_EQ(id, receipt.id);
    EXPECT_EQ(timing.total_ms(), receipt.timing.total_ms());
}

// --- Result-returning entry points ------------------------------------------

TEST_F(RankedProvidersFixture, TryPublishReportsParseErrorsAsValues) {
    const auto outcome = engine_.try_publish("<broken");
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, ErrorCode::kParse);
    EXPECT_FALSE(outcome.error().message.empty());
}

TEST_F(RankedProvidersFixture, TryPublishReportsLookupErrorsAsValues) {
    // Well-formed XML, but the concept URIs are unregistered.
    const auto outcome = engine_.try_publish(R"(
        <service name="Ghost"><capability name="C" kind="provided">
          <output concept="http://unknown.example/onto#Nope"/>
        </capability></service>)");
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, ErrorCode::kLookup);
}

TEST_F(RankedProvidersFixture, TryPublishSucceedsWithReceipt) {
    const auto outcome = engine_.try_publish(
        desc::serialize_service(th::workstation_service()));
    ASSERT_TRUE(outcome.ok());
    EXPECT_GT(outcome.value().id, 0u);
}

TEST_F(RankedProvidersFixture, TryPublishReportsVersionMismatchAsValue) {
    desc::ServiceDescription service = th::workstation_service();
    service.profile.capabilities[0].code_version = 0xBAD;  // stale tag
    const auto outcome =
        engine_.try_publish(desc::serialize_service(service));
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, ErrorCode::kVersionMismatch);
}

TEST_F(RankedProvidersFixture, TryDiscoverRoundTrips) {
    desc::ServiceRequest request = video_request();
    const auto ok = engine_.try_discover(desc::serialize_request(request));
    ASSERT_TRUE(ok.ok());
    ASSERT_EQ(ok.value().size(), 1u);
    EXPECT_EQ(ok.value()[0][0].service_name, "Specific");

    const auto bad = engine_.try_discover("not xml at all");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::kParse);
}

TEST(ResultType, ValueOrAndToString) {
    Result<int> good(7);
    Result<int> bad(ErrorInfo{ErrorCode::kLookup, "nope"});
    EXPECT_EQ(good.value_or(-1), 7);
    EXPECT_EQ(bad.value_or(-1), -1);
    EXPECT_STREQ(to_string(ErrorCode::kVersionMismatch), "version-mismatch");
}

}  // namespace
}  // namespace sariadne
