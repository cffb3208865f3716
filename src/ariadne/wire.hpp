// Ariadne protocol wire codec — the one vocabulary of the discovery
// protocol. Every message the protocol exchanges is a WireMessage: the
// protocol builds these structs, net::Message carries them through any
// transport, and the socket transport frames them with encode/try_decode
// below (the surface the protocol fuzz target attacks).
//
// Format (all integers little-endian):
//
//   magic 'S' 'A' | version u8 (=1) | type u8 | payload fields
//
// Strings are u32 length + bytes; vectors are u32 count + elements;
// doubles travel as their IEEE-754 bit pattern in a u64. Every length is
// validated against the remaining input before it is consumed, so a
// hostile length cannot trigger an allocation larger than the datagram
// that claims it. Decoding never throws — try_decode returns
// Result<WireMessage> with ErrorCode::kParse for any malformed input
// (see sariadne-analyze's wire-decode rule).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "directory/types.hpp"
#include "support/result.hpp"

namespace sariadne::ariadne::wire {

inline constexpr std::uint8_t kMagic0 = 'S';
inline constexpr std::uint8_t kMagic1 = 'A';
inline constexpr std::uint8_t kVersion = 1;

/// Wire ids of the protocol's message types. Values are wire format —
/// append only, never renumber.
enum class MsgType : std::uint8_t {
    kDirAdv = 1,           ///< "dir-adv"
    kElectCall = 2,        ///< "elect-call"
    kElectCandidate = 3,   ///< "elect-cand"
    kElectAppoint = 4,     ///< "elect-appoint"
    kPublish = 5,          ///< "pub"
    kPubAck = 6,           ///< "pub-ack"
    kPubNack = 7,          ///< "pub-nack"
    kRequest = 8,          ///< "req"
    kResponse = 9,         ///< "resp"
    kForward = 10,         ///< "fwd"
    kForwardResponse = 11, ///< "fwd-resp"
    kSummaryPush = 12,     ///< "summary-push"
    kSummaryPull = 13,     ///< "summary-pull"
    kHandover = 14,        ///< "handover"
    kPublishBatch = 15,    ///< "pub-batch"
    kSummaryBitmap = 16,   ///< "summary-bitmap"
    kSummaryDelta = 17,    ///< "summary-delta"
};

/// The type name of a wire id: the key of TrafficStats::per_type and the
/// label of `sim.deliveries{type=...}`. Inline, so the simulator library
/// names types without linking the codec.
constexpr const char* to_string(MsgType type) noexcept {
    switch (type) {
        case MsgType::kDirAdv: return "dir-adv";
        case MsgType::kElectCall: return "elect-call";
        case MsgType::kElectCandidate: return "elect-cand";
        case MsgType::kElectAppoint: return "elect-appoint";
        case MsgType::kPublish: return "pub";
        case MsgType::kPubAck: return "pub-ack";
        case MsgType::kPubNack: return "pub-nack";
        case MsgType::kRequest: return "req";
        case MsgType::kResponse: return "resp";
        case MsgType::kForward: return "fwd";
        case MsgType::kForwardResponse: return "fwd-resp";
        case MsgType::kSummaryPush: return "summary-push";
        case MsgType::kSummaryPull: return "summary-pull";
        case MsgType::kHandover: return "handover";
        case MsgType::kPublishBatch: return "pub-batch";
        case MsgType::kSummaryBitmap: return "summary-bitmap";
        case MsgType::kSummaryDelta: return "summary-delta";
    }
    return "unknown";
}

// --- payloads -----------------------------------------------------------
//
// Node-id fields (directory, initiator, candidate, client, origin, from)
// name the sender. Receivers take sender identity from net::Message::source
// instead, which the transport stamps, so these fields are informational.

struct DirAdv {
    std::uint32_t directory = 0;
};

struct ElectCall {
    std::uint32_t initiator = 0;
};

struct ElectCandidate {
    std::uint32_t candidate = 0;
    double fitness = 0;
};

struct ElectAppoint {};

struct PublishDoc {
    std::string document;
    std::uint64_t pub_id = 0;  ///< 0 = fire-and-forget (no ack expected)
};

struct PubAck {
    std::uint64_t pub_id = 0;
};

struct PubNack {
    std::uint64_t pub_id = 0;
    std::string document;
};

struct Request {
    std::uint64_t request_id = 0;
    std::uint32_t client = 0;
    std::string document;
};

/// One match hit as it travels in responses: the directory's own hit,
/// field for field (semantic_distance travels as a 32-bit integer).
using Hit = directory::MatchHit;

struct Response {
    std::uint64_t request_id = 0;
    std::vector<Hit> hits;
    bool satisfied = false;
    double compute_ms = 0;
    std::uint32_t directories_asked = 0;
};

struct Forward {
    std::uint64_t request_id = 0;
    std::uint32_t origin = 0;
    std::string document;
};

struct ForwardResponse {
    std::uint64_t request_id = 0;
    std::vector<std::vector<Hit>> per_capability;
    double compute_ms = 0;
};

struct SummaryPush {
    std::uint32_t from = 0;
    std::vector<std::uint64_t> summary_wire;  ///< BloomFilter::serialize()
};

struct SummaryPull {};

struct Handover {
    std::string state_xml;
};

/// Bulk publish: many documents in one datagram so the directory can take
/// the batched ingest path (one service-table critical section, shard-run
/// DAG locking, at most one summary rebuild). Each member keeps its own
/// pub_id so acks/nacks stay per-document.
struct PublishBatch {
    std::vector<PublishDoc> docs;
};

/// Full exact-summary snapshot. The image is the summary codec's own
/// bounded format (summary/summary_wire.hpp) carried opaquely: the outer
/// frame validates only the byte length, the inner decoder re-validates
/// structure, so a hostile image is rejected at exactly one layer.
struct SummaryBitmap {
    std::uint32_t from = 0;
    std::vector<std::uint8_t> image;  ///< summary::encode_summary()
};

/// Since-version word runs against the receiver's held summary; falls
/// back to SummaryBitmap when the delta would outweigh the snapshot.
struct SummaryDelta {
    std::uint32_t from = 0;
    std::vector<std::uint8_t> image;  ///< summary::encode_delta()
};

using Payload =
    std::variant<DirAdv, ElectCall, ElectCandidate, ElectAppoint, PublishDoc,
                 PubAck, PubNack, Request, Response, Forward, ForwardResponse,
                 SummaryPush, SummaryPull, Handover, PublishBatch,
                 SummaryBitmap, SummaryDelta>;

/// Payload declares its alternatives in wire-id order: the alternative at
/// index i is the payload of MsgType i + 1.
template <MsgType T, typename P>
inline constexpr bool kPayloadOf = std::is_same_v<
    std::variant_alternative_t<static_cast<std::size_t>(T) - 1, Payload>, P>;
/// How many message types there are: wire ids run from 1 to this.
inline constexpr std::size_t kMsgTypeCount = std::variant_size_v<Payload>;
static_assert(kMsgTypeCount ==
              static_cast<std::size_t>(MsgType::kSummaryDelta));
static_assert(
    kPayloadOf<MsgType::kDirAdv, DirAdv> &&
    kPayloadOf<MsgType::kElectCall, ElectCall> &&
    kPayloadOf<MsgType::kElectCandidate, ElectCandidate> &&
    kPayloadOf<MsgType::kElectAppoint, ElectAppoint> &&
    kPayloadOf<MsgType::kPublish, PublishDoc> &&
    kPayloadOf<MsgType::kPubAck, PubAck> &&
    kPayloadOf<MsgType::kPubNack, PubNack> &&
    kPayloadOf<MsgType::kRequest, Request> &&
    kPayloadOf<MsgType::kResponse, Response> &&
    kPayloadOf<MsgType::kForward, Forward> &&
    kPayloadOf<MsgType::kForwardResponse, ForwardResponse> &&
    kPayloadOf<MsgType::kSummaryPush, SummaryPush> &&
    kPayloadOf<MsgType::kSummaryPull, SummaryPull> &&
    kPayloadOf<MsgType::kHandover, Handover> &&
    kPayloadOf<MsgType::kPublishBatch, PublishBatch> &&
    kPayloadOf<MsgType::kSummaryBitmap, SummaryBitmap> &&
    kPayloadOf<MsgType::kSummaryDelta, SummaryDelta>);

/// The wire id of a payload, from its alternative.
inline MsgType type_of(const Payload& payload) noexcept {
    return static_cast<MsgType>(payload.index() + 1);
}

struct WireMessage {
    MsgType type = MsgType::kDirAdv;
    Payload payload;
};

/// Serializes a message. `type` must be type_of(payload)
/// (SARIADNE_EXPECTS enforces it).
std::vector<std::uint8_t> encode(const WireMessage& message);

/// Appends the bytes of encode(message) to `out`, leaving its existing
/// bytes as they are: the socket transport encodes each frame in place at
/// the end of a connection's send buffer.
void encode_append(const WireMessage& message, std::vector<std::uint8_t>& out);

/// The size of encode(message) in bytes, from a counting pass of the same
/// writer, without building the bytes.
std::size_t encoded_size(const WireMessage& message);

/// Parses one complete datagram. Never throws: malformed, truncated, or
/// trailing-garbage input yields ErrorCode::kParse with a description of
/// the offending field.
Result<WireMessage> try_decode(std::span<const std::uint8_t> bytes) noexcept;

}  // namespace sariadne::ariadne::wire
