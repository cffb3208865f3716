// lint:wire-decode — this translation unit is a wire-decode path: it must
// not contain a `throw`; every failure is reported through Result.
#include "ariadne/wire.hpp"

#include <bit>
#include <cstring>

#include "support/contracts.hpp"

namespace sariadne::ariadne::wire {

namespace {

// --- encoding --------------------------------------------------------------

/// The two sinks of the one writer: encode_append() appends the bytes, and
/// encoded_size() only counts them, so a size can never disagree with the
/// bytes it stands for.
struct ByteSink {
    std::vector<std::uint8_t>& out;

    void byte(std::uint8_t v) { out.push_back(v); }
    void bytes(const void* data, std::size_t n) {
        const auto* first = static_cast<const std::uint8_t*>(data);
        out.insert(out.end(), first, first + n);
    }
};

struct CountSink {
    std::size_t size = 0;

    void byte(std::uint8_t) noexcept { ++size; }
    void bytes(const void*, std::size_t n) noexcept { size += n; }
};

template <typename Sink>
class Writer {
public:
    explicit Writer(Sink& sink) noexcept : sink_(sink) {}

    void u8(std::uint8_t v) { sink_.byte(v); }

    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            sink_.byte(static_cast<std::uint8_t>(v >> (8 * i)));
        }
    }

    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            sink_.byte(static_cast<std::uint8_t>(v >> (8 * i)));
        }
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void string(const std::string& s) {
        u32(static_cast<std::uint32_t>(s.size()));
        sink_.bytes(s.data(), s.size());
    }

    void image(const std::vector<std::uint8_t>& bytes) {
        u32(static_cast<std::uint32_t>(bytes.size()));
        sink_.bytes(bytes.data(), bytes.size());
    }

    void hits(const std::vector<Hit>& list) {
        u32(static_cast<std::uint32_t>(list.size()));
        for (const Hit& hit : list) {
            u32(hit.service);
            string(hit.service_name);
            string(hit.capability_name);
            u32(static_cast<std::uint32_t>(hit.semantic_distance));
        }
    }

    void message(const WireMessage& m) {
        SARIADNE_EXPECTS(m.type == type_of(m.payload));
        u8(kMagic0);
        u8(kMagic1);
        u8(kVersion);
        u8(static_cast<std::uint8_t>(m.type));
        std::visit([this](const auto& payload) { fields(payload); },
                   m.payload);
    }

private:
    void fields(const DirAdv& p) { u32(p.directory); }
    void fields(const ElectCall& p) { u32(p.initiator); }
    void fields(const ElectCandidate& p) {
        u32(p.candidate);
        f64(p.fitness);
    }
    void fields(const ElectAppoint&) {}
    void fields(const PublishDoc& p) {
        u64(p.pub_id);
        string(p.document);
    }
    void fields(const PubAck& p) { u64(p.pub_id); }
    void fields(const PubNack& p) {
        u64(p.pub_id);
        string(p.document);
    }
    void fields(const Request& p) {
        u64(p.request_id);
        u32(p.client);
        string(p.document);
    }
    void fields(const Response& p) {
        u64(p.request_id);
        hits(p.hits);
        u8(p.satisfied ? 1 : 0);
        f64(p.compute_ms);
        u32(p.directories_asked);
    }
    void fields(const Forward& p) {
        u64(p.request_id);
        u32(p.origin);
        string(p.document);
    }
    void fields(const ForwardResponse& p) {
        u64(p.request_id);
        u32(static_cast<std::uint32_t>(p.per_capability.size()));
        for (const auto& capability_hits : p.per_capability) {
            hits(capability_hits);
        }
        f64(p.compute_ms);
    }
    void fields(const SummaryPush& p) {
        u32(p.from);
        u32(static_cast<std::uint32_t>(p.summary_wire.size()));
        for (const std::uint64_t word : p.summary_wire) u64(word);
    }
    void fields(const SummaryPull&) {}
    void fields(const Handover& p) { string(p.state_xml); }
    void fields(const PublishBatch& p) {
        u32(static_cast<std::uint32_t>(p.docs.size()));
        for (const PublishDoc& doc : p.docs) fields(doc);
    }
    void fields(const SummaryBitmap& p) {
        u32(p.from);
        image(p.image);
    }
    void fields(const SummaryDelta& p) {
        u32(p.from);
        image(p.image);
    }

    Sink& sink_;
};

// --- decoding helpers ---------------------------------------------------

/// Bounded cursor over the datagram. Every read checks the remaining
/// length first and reports the field that fell short, so a hostile
/// length field can neither run past the buffer nor size an allocation
/// beyond what the datagram actually carries.
class Reader {
public:
    explicit Reader(std::span<const std::uint8_t> bytes) noexcept
        : data_(bytes.data()), size_(bytes.size()) {}

    bool failed() const noexcept { return failed_; }
    const std::string& context() const noexcept { return context_; }
    std::size_t remaining() const noexcept { return size_ - pos_; }

    std::uint8_t u8(const char* field) noexcept {
        if (!require(1, field)) return 0;
        return data_[pos_++];
    }

    std::uint32_t u32(const char* field) noexcept {
        if (!require(4, field)) return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
        }
        pos_ += 4;
        return v;
    }

    std::uint64_t u64(const char* field) noexcept {
        if (!require(8, field)) return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
        }
        pos_ += 8;
        return v;
    }

    double f64(const char* field) noexcept {
        return std::bit_cast<double>(u64(field));
    }

    bool boolean(const char* field) {
        const std::uint8_t v = u8(field);
        if (!failed_ && v > 1) fail(field, "boolean byte not 0/1");
        return v == 1;
    }

    std::string string(const char* field) {
        const std::uint32_t len = u32(field);
        if (failed_) return {};
        if (len > remaining()) {
            fail(field, "string length exceeds remaining input");
            return {};
        }
        std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
        pos_ += len;
        return s;
    }

    /// Validates a vector count against the minimum wire size of one
    /// element before the caller allocates anything.
    std::uint32_t count(const char* field, std::size_t min_element_bytes) {
        const std::uint32_t n = u32(field);
        if (failed_) return 0;
        if (min_element_bytes != 0 &&
            n > remaining() / min_element_bytes) {
            fail(field, "element count exceeds remaining input");
            return 0;
        }
        return n;
    }

    void fail(const char* field, const char* why) {
        if (failed_) return;
        failed_ = true;
        context_ = std::string(field) + ": " + why;
    }

private:
    bool require(std::size_t n, const char* field) noexcept {
        if (failed_) return false;
        if (size_ - pos_ < n) {
            failed_ = true;
            context_ = std::string(field) + ": truncated input";
            return false;
        }
        return true;
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    std::string context_;
};

Hit read_hit(Reader& in) {
    Hit hit;
    hit.service = in.u32("hit.service");
    hit.service_name = in.string("hit.service_name");
    hit.capability_name = in.string("hit.capability_name");
    hit.semantic_distance =
        static_cast<std::int32_t>(in.u32("hit.semantic_distance"));
    return hit;
}

std::vector<Hit> read_hits(Reader& in, const char* field) {
    // A hit is at least 12 bytes (u32 + two empty strings + u32).
    const std::uint32_t n = in.count(field, 12);
    std::vector<Hit> hits;
    hits.reserve(n);
    for (std::uint32_t i = 0; i < n && !in.failed(); ++i) {
        hits.push_back(read_hit(in));
    }
    return hits;
}

/// Length-prefixed opaque byte image (summary snapshots/deltas). The
/// length is validated like a string's, so a hostile count cannot size an
/// allocation beyond the datagram.
std::vector<std::uint8_t> read_image(Reader& in, const char* field) {
    const std::uint32_t len = in.u32(field);
    std::vector<std::uint8_t> image;
    if (in.failed()) return image;
    if (len > in.remaining()) {
        in.fail(field, "image length exceeds remaining input");
        return image;
    }
    image.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i) {
        image.push_back(in.u8(field));
    }
    return image;
}

ErrorInfo parse_error(std::string message) {
    return ErrorInfo{ErrorCode::kParse,
                     "wire decode failed: " + std::move(message)};
}

}  // namespace

std::vector<std::uint8_t> encode(const WireMessage& message) {
    std::vector<std::uint8_t> out;
    encode_append(message, out);
    return out;
}

void encode_append(const WireMessage& message,
                   std::vector<std::uint8_t>& out) {
    ByteSink sink{out};
    Writer<ByteSink>(sink).message(message);
}

std::size_t encoded_size(const WireMessage& message) {
    CountSink sink;
    Writer<CountSink>(sink).message(message);
    return sink.size;
}

Result<WireMessage> try_decode(std::span<const std::uint8_t> bytes) noexcept {
    Reader in(bytes);
    const std::uint8_t m0 = in.u8("magic[0]");
    const std::uint8_t m1 = in.u8("magic[1]");
    if (!in.failed() && (m0 != kMagic0 || m1 != kMagic1)) {
        return parse_error("magic: not an Ariadne datagram");
    }
    const std::uint8_t version = in.u8("version");
    if (!in.failed() && version != kVersion) {
        return parse_error("version: unsupported (" +
                           std::to_string(int{version}) + ")");
    }
    const std::uint8_t type_byte = in.u8("type");
    if (in.failed()) return parse_error(in.context());
    if (type_byte < static_cast<std::uint8_t>(MsgType::kDirAdv) ||
        type_byte > static_cast<std::uint8_t>(MsgType::kSummaryDelta)) {
        return parse_error("type: unknown message type " +
                           std::to_string(int{type_byte}));
    }

    WireMessage message;
    message.type = static_cast<MsgType>(type_byte);
    switch (message.type) {
        case MsgType::kDirAdv: {
            DirAdv p;
            p.directory = in.u32("dir-adv.directory");
            message.payload = p;
            break;
        }
        case MsgType::kElectCall: {
            ElectCall p;
            p.initiator = in.u32("elect-call.initiator");
            message.payload = p;
            break;
        }
        case MsgType::kElectCandidate: {
            ElectCandidate p;
            p.candidate = in.u32("elect-cand.candidate");
            p.fitness = in.f64("elect-cand.fitness");
            message.payload = p;
            break;
        }
        case MsgType::kElectAppoint: {
            message.payload = ElectAppoint{};
            break;
        }
        case MsgType::kPublish: {
            PublishDoc p;
            p.pub_id = in.u64("pub.pub_id");
            p.document = in.string("pub.document");
            message.payload = std::move(p);
            break;
        }
        case MsgType::kPubAck: {
            PubAck p;
            p.pub_id = in.u64("pub-ack.pub_id");
            message.payload = p;
            break;
        }
        case MsgType::kPubNack: {
            PubNack p;
            p.pub_id = in.u64("pub-nack.pub_id");
            p.document = in.string("pub-nack.document");
            message.payload = std::move(p);
            break;
        }
        case MsgType::kRequest: {
            Request p;
            p.request_id = in.u64("req.request_id");
            p.client = in.u32("req.client");
            p.document = in.string("req.document");
            message.payload = std::move(p);
            break;
        }
        case MsgType::kResponse: {
            Response p;
            p.request_id = in.u64("resp.request_id");
            p.hits = read_hits(in, "resp.hits");
            p.satisfied = in.boolean("resp.satisfied");
            p.compute_ms = in.f64("resp.compute_ms");
            p.directories_asked = in.u32("resp.directories_asked");
            message.payload = std::move(p);
            break;
        }
        case MsgType::kForward: {
            Forward p;
            p.request_id = in.u64("fwd.request_id");
            p.origin = in.u32("fwd.origin");
            p.document = in.string("fwd.document");
            message.payload = std::move(p);
            break;
        }
        case MsgType::kForwardResponse: {
            ForwardResponse p;
            p.request_id = in.u64("fwd-resp.request_id");
            // An empty per-capability list is 4 bytes (its hit count).
            const std::uint32_t caps =
                in.count("fwd-resp.per_capability", 4);
            p.per_capability.reserve(caps);
            for (std::uint32_t i = 0; i < caps && !in.failed(); ++i) {
                p.per_capability.push_back(
                    read_hits(in, "fwd-resp.hits"));
            }
            p.compute_ms = in.f64("fwd-resp.compute_ms");
            message.payload = std::move(p);
            break;
        }
        case MsgType::kSummaryPush: {
            SummaryPush p;
            p.from = in.u32("summary-push.from");
            const std::uint32_t words = in.count("summary-push.words", 8);
            p.summary_wire.reserve(words);
            for (std::uint32_t i = 0; i < words && !in.failed(); ++i) {
                p.summary_wire.push_back(in.u64("summary-push.word"));
            }
            message.payload = std::move(p);
            break;
        }
        case MsgType::kSummaryPull: {
            message.payload = SummaryPull{};
            break;
        }
        case MsgType::kHandover: {
            Handover p;
            p.state_xml = in.string("handover.state_xml");
            message.payload = std::move(p);
            break;
        }
        case MsgType::kPublishBatch: {
            PublishBatch p;
            // A doc is at least 12 bytes (u64 pub_id + empty string's u32).
            const std::uint32_t docs = in.count("pub-batch.docs", 12);
            p.docs.reserve(docs);
            for (std::uint32_t i = 0; i < docs && !in.failed(); ++i) {
                PublishDoc doc;
                doc.pub_id = in.u64("pub-batch.pub_id");
                doc.document = in.string("pub-batch.document");
                p.docs.push_back(std::move(doc));
            }
            message.payload = std::move(p);
            break;
        }
        case MsgType::kSummaryBitmap: {
            SummaryBitmap p;
            p.from = in.u32("summary-bitmap.from");
            p.image = read_image(in, "summary-bitmap.image");
            message.payload = std::move(p);
            break;
        }
        case MsgType::kSummaryDelta: {
            SummaryDelta p;
            p.from = in.u32("summary-delta.from");
            p.image = read_image(in, "summary-delta.image");
            message.payload = std::move(p);
            break;
        }
    }

    if (in.failed()) return parse_error(in.context());
    if (in.remaining() != 0) {
        return parse_error("trailing bytes after payload (" +
                           std::to_string(in.remaining()) + ")");
    }
    return message;
}

}  // namespace sariadne::ariadne::wire
