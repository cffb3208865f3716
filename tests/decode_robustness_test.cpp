// Decode-robustness regression tests: every public decode entry point for
// the four fuzzed wire-facing formats (XML/WSDL, Amigo-S descriptions,
// Bloom summary images, Ariadne wire messages) must map *every* truncation
// of a valid input to a clean Result/optional error — never an exception,
// never an abort. These pin the contract the fuzz targets in fuzz/ attack;
// a regression here is exactly the bug class the fuzzers exist to catch.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ariadne/wire.hpp"
#include "bloom/bloom_filter.hpp"
#include "description/amigos_io.hpp"
#include "description/wsdl.hpp"
#include "xml/parser.hpp"

namespace sariadne {
namespace {

// A document whose final character is load-bearing ('>'), so *every*
// strict prefix is malformed — ideal for exhaustive truncation sweeps.
constexpr std::string_view kServiceXml =
    "<service name=\"Workstation\" provider=\"lab\">"
    "<grounding protocol=\"SOAP\" address=\"http://h:1/ws\"/>"
    "<capability name=\"Send\" kind=\"provided\" codeVersion=\"3\">"
    "<category concept=\"http://media#Source\"/>"
    "<input name=\"t\" concept=\"http://media#Title\"/>"
    "<output concept=\"http://media#Stream\"/>"
    "</capability>"
    "<qos name=\"latency\" value=\"12.5\"/>"
    "</service>";

constexpr std::string_view kRequestXml =
    "<request requester=\"tablet\">"
    "<capability name=\"Need\">"
    "<output concept=\"http://media#Stream\"/>"
    "</capability>"
    "<qos name=\"latency\" max=\"50\"/>"
    "</request>";

constexpr std::string_view kWsdlXml =
    "<wsdl name=\"MediaServer\">"
    "<operation name=\"get\">"
    "<input name=\"title\" type=\"xs:string\"/>"
    "<output name=\"stream\" type=\"tns:media\"/>"
    "</operation>"
    "</wsdl>";

TEST(DecodeRobustness, XmlTruncationsAlwaysReturnError) {
    ASSERT_TRUE(xml::try_parse(kServiceXml).ok());
    for (std::size_t len = 0; len < kServiceXml.size(); ++len) {
        Result<xml::XmlDocument> result{xml::XmlDocument{}};
        EXPECT_NO_THROW(result = xml::try_parse(kServiceXml.substr(0, len)))
            << "prefix length " << len;
        EXPECT_FALSE(result.ok()) << "prefix length " << len;
    }
}

TEST(DecodeRobustness, WsdlTruncationsAlwaysReturnError) {
    ASSERT_TRUE(desc::try_parse_wsdl(kWsdlXml).ok());
    for (std::size_t len = 0; len < kWsdlXml.size(); ++len) {
        EXPECT_NO_THROW({
            const auto result = desc::try_parse_wsdl(kWsdlXml.substr(0, len));
            EXPECT_FALSE(result.ok()) << "prefix length " << len;
        });
    }
}

TEST(DecodeRobustness, AmigosServiceTruncationsAlwaysReturnError) {
    ASSERT_TRUE(desc::try_parse_service(kServiceXml).ok());
    for (std::size_t len = 0; len < kServiceXml.size(); ++len) {
        EXPECT_NO_THROW({
            const auto result =
                desc::try_parse_service(kServiceXml.substr(0, len));
            EXPECT_FALSE(result.ok()) << "prefix length " << len;
        });
    }
}

TEST(DecodeRobustness, AmigosRequestTruncationsAlwaysReturnError) {
    ASSERT_TRUE(desc::try_parse_request(kRequestXml).ok());
    for (std::size_t len = 0; len < kRequestXml.size(); ++len) {
        EXPECT_NO_THROW({
            const auto result =
                desc::try_parse_request(kRequestXml.substr(0, len));
            EXPECT_FALSE(result.ok()) << "prefix length " << len;
        });
    }
}

TEST(DecodeRobustness, AmigosMalformedNumericFieldsReturnError) {
    // Unchecked-conversion audit regressions: partial digits, overflow,
    // and non-finite doubles must all surface as parse errors.
    const auto bad = [](std::string_view xml) {
        const auto result = desc::try_parse_service(xml);
        EXPECT_FALSE(result.ok()) << xml;
    };
    bad("<service name=\"s\"><capability name=\"c\" codeVersion=\"12ab\"/>"
        "</service>");
    bad("<service name=\"s\"><capability name=\"c\" "
        "codeVersion=\"99999999999999999999999\"/></service>");
    bad("<service name=\"s\"><qos name=\"q\" value=\"nan\"/></service>");
    bad("<service name=\"s\"><qos name=\"q\" value=\"inf\"/></service>");
    bad("<service name=\"s\"><qos name=\"q\" value=\"1.5x\"/></service>");
}

TEST(DecodeRobustness, BloomTruncationsAlwaysReturnNullopt) {
    bloom::BloomFilter filter(bloom::BloomParams{256, 3});
    const std::vector<std::string> uris = {"http://a#X", "http://b#Y"};
    filter.insert_ontology_set(uris);
    const std::vector<std::uint64_t> image = filter.serialize();
    ASSERT_TRUE(bloom::BloomFilter::try_deserialize(image).has_value());

    for (std::size_t words = 0; words < image.size(); ++words) {
        std::optional<bloom::BloomFilter> result;
        EXPECT_NO_THROW(
            result = bloom::BloomFilter::try_deserialize(
                std::span(image.data(), words)));
        EXPECT_FALSE(result.has_value()) << "word count " << words;
    }
}

TEST(DecodeRobustness, BloomHostileParamsReturnNullopt) {
    // Header words claiming absurd geometry must be rejected before any
    // allocation happens: k = 0 (vacuously-true filter), k > 32, and a
    // bit count the payload does not back.
    const auto reject = [](std::vector<std::uint64_t> image) {
        EXPECT_FALSE(bloom::BloomFilter::try_deserialize(image).has_value());
    };
    reject({});
    reject({(std::uint64_t{64} << 32) | 0, 0});          // k = 0
    reject({(std::uint64_t{64} << 32) | 33, 0});         // k > 32
    reject({(std::uint64_t{16} << 32) | 2});             // bits < 64
    reject({(std::uint64_t{0xFFFFFFFFull} << 32) | 4});  // huge, no payload
}

std::vector<ariadne::wire::WireMessage> wire_samples() {
    using namespace ariadne::wire;
    std::vector<WireMessage> samples;
    samples.push_back({MsgType::kDirAdv, DirAdv{7}});
    samples.push_back({MsgType::kElectCall, ElectCall{2}});
    samples.push_back({MsgType::kElectCandidate, ElectCandidate{3, 0.75}});
    samples.push_back({MsgType::kElectAppoint, ElectAppoint{}});
    samples.push_back({MsgType::kPublish, PublishDoc{"<service/>", 42}});
    samples.push_back({MsgType::kPubAck, PubAck{42}});
    samples.push_back({MsgType::kPubNack, PubNack{42, "<service/>"}});
    samples.push_back({MsgType::kRequest, Request{99, 5, "<request/>"}});
    Response response;
    response.request_id = 99;
    response.hits = {{11, "Workstation", "Send", 2}, {12, "Media", "Send", 0}};
    response.satisfied = true;
    response.compute_ms = 1.25;
    response.directories_asked = 3;
    samples.push_back({MsgType::kResponse, response});
    samples.push_back({MsgType::kForward, Forward{7, 1, "<request/>"}});
    ForwardResponse fwd_response;
    fwd_response.request_id = 7;
    fwd_response.per_capability = {{{21, "A", "a", 1}}, {}};
    fwd_response.compute_ms = 0.5;
    samples.push_back({MsgType::kForwardResponse, fwd_response});
    samples.push_back({MsgType::kSummaryPush, SummaryPush{2, {1, 2, 3}}});
    samples.push_back({MsgType::kSummaryPull, SummaryPull{}});
    samples.push_back({MsgType::kHandover, Handover{"<state/>"}});
    PublishBatch batch;
    batch.docs.push_back(PublishDoc{"<service name='a'/>", 43});
    batch.docs.push_back(PublishDoc{"<service name='b'/>", 0});
    samples.push_back({MsgType::kPublishBatch, batch});
    samples.push_back({MsgType::kSummaryBitmap, SummaryBitmap{2, {1, 2, 3}}});
    samples.push_back({MsgType::kSummaryDelta, SummaryDelta{2, {4, 5}}});
    return samples;
}

TEST(DecodeRobustness, PublishBatchRoundTripKeepsPerDocIds) {
    using namespace ariadne::wire;
    PublishBatch batch;
    batch.docs.push_back(PublishDoc{"<service name='a'/>", 7});
    batch.docs.push_back(PublishDoc{"", 0});
    batch.docs.push_back(PublishDoc{"<service name='c'/>", 9});
    const auto bytes = encode({MsgType::kPublishBatch, batch});
    const auto decoded = try_decode(bytes);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value().type, MsgType::kPublishBatch);
    const auto& round = std::get<PublishBatch>(decoded.value().payload);
    ASSERT_EQ(round.docs.size(), batch.docs.size());
    for (std::size_t i = 0; i < batch.docs.size(); ++i) {
        EXPECT_EQ(round.docs[i].pub_id, batch.docs[i].pub_id);
        EXPECT_EQ(round.docs[i].document, batch.docs[i].document);
    }
}

TEST(DecodeRobustness, WireTruncationsAlwaysReturnErrorForEveryType) {
    // Exhaustive: every strict byte prefix of every message type decodes
    // to a kParse error, the untruncated bytes round-trip, and the
    // byte-count pass that sizes simulated traffic matches the encoding.
    const auto samples = wire_samples();
    ASSERT_EQ(samples.size(), std::variant_size_v<ariadne::wire::Payload>);
    for (const auto& message : samples) {
        const std::vector<std::uint8_t> bytes = ariadne::wire::encode(message);
        EXPECT_EQ(ariadne::wire::encoded_size(message), bytes.size())
            << ariadne::wire::to_string(message.type);
        const auto full = ariadne::wire::try_decode(bytes);
        ASSERT_TRUE(full.ok()) << ariadne::wire::to_string(message.type);
        EXPECT_EQ(full.value().type, message.type);

        for (std::size_t len = 0; len < bytes.size(); ++len) {
            const auto result =
                ariadne::wire::try_decode(std::span(bytes.data(), len));
            ASSERT_FALSE(result.ok())
                << ariadne::wire::to_string(message.type) << " prefix " << len;
            EXPECT_EQ(result.error().code, ErrorCode::kParse);
        }
    }
}

TEST(DecodeRobustness, WireTrailingGarbageAndBadHeaderRejected) {
    using namespace ariadne::wire;
    std::vector<std::uint8_t> bytes = encode({MsgType::kDirAdv, DirAdv{7}});

    std::vector<std::uint8_t> trailing = bytes;
    trailing.push_back(0);
    EXPECT_FALSE(try_decode(trailing).ok());

    std::vector<std::uint8_t> bad_magic = bytes;
    bad_magic[0] = 'X';
    EXPECT_FALSE(try_decode(bad_magic).ok());

    std::vector<std::uint8_t> bad_version = bytes;
    bad_version[2] = 9;
    EXPECT_FALSE(try_decode(bad_version).ok());

    std::vector<std::uint8_t> bad_type = bytes;
    bad_type[3] = 0;
    EXPECT_FALSE(try_decode(bad_type).ok());
    bad_type[3] = 200;
    EXPECT_FALSE(try_decode(bad_type).ok());
}

}  // namespace
}  // namespace sariadne
