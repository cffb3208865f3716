#include "replay.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "ariadne/protocol.hpp"
#include "ariadne/wire.hpp"
#include "description/amigos_io.hpp"
#include "description/resolved.hpp"
#include "directory/semantic_directory.hpp"
#include "net/topology.hpp"
#include "obs/metric_names.hpp"

namespace perfbench {

namespace {

using namespace sariadne;
namespace wire = sariadne::ariadne::wire;

enum Name : std::uint8_t {
    kOp,
    kWireDecode,
    kPrepare,
    kQuery,
    kPublish,
    kWireEncode,
    kParseRequest,
    kResolve,
    kParseService,
    kNameCount
};

constexpr std::array<const char*, kNameCount> kNames = {
    "op",
    "wire.decode",
    "ariadne.prepare",
    "directory.query",
    "directory.publish",
    "wire.encode",
    "description.parse_request",
    "description.resolve",
    "description.parse_service"};

constexpr std::uint32_t kNoSpan = 0xFFFFFFFFu;
/// Op tag bit of the set-up publishes; stream operations carry their
/// stream index.
constexpr std::uint64_t kSetupOp = std::uint64_t{1} << 63;
/// Distinct documents the description layer is timed on.
constexpr std::size_t kDocSample = 512;
/// The overhead measurement times the stream in chunks of this many
/// operations (milliseconds each), short enough that most chunks miss the
/// host's stalls.
constexpr std::uint64_t kChunkOps = 500;

/// Which chunks of a stream replay record spans.
enum class Tracing { kAll, kOddChunks, kEvenChunks };

struct Span {
    Name name = kOp;
    std::uint32_t parent = kNoSpan;
    std::uint64_t op = 0;
    Clock::time_point start;
    Clock::time_point end;
};

/// Fixed-capacity span buffer: reserved once, never reallocated while a
/// replay runs, written out after it.
class Tracer {
public:
    explicit Tracer(std::size_t capacity) : capacity_(capacity) {
        spans_.reserve(capacity);
    }

    void enable(bool enabled) noexcept { enabled_ = enabled; }

    /// Drops every span recorded after the first `size`.
    void truncate(std::size_t size) { spans_.resize(std::min(size, spans_.size())); }

    std::uint32_t begin(Name name, std::uint32_t parent, std::uint64_t op) {
        if (!enabled_ || spans_.size() == capacity_) return kNoSpan;
        spans_.push_back(Span{name, parent, op, Clock::now(), {}});
        return static_cast<std::uint32_t>(spans_.size() - 1);
    }

    void end(std::uint32_t id) {
        if (id != kNoSpan) spans_[id].end = Clock::now();
    }

    const std::vector<Span>& spans() const noexcept { return spans_; }

private:
    std::size_t capacity_;
    bool enabled_ = false;
    std::vector<Span> spans_;
};

class Scope {
public:
    Scope(Tracer& tracer, Name name, std::uint32_t parent, std::uint64_t op)
        : tracer_(tracer), id_(tracer.begin(name, parent, op)) {}
    ~Scope() { tracer_.end(id_); }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::uint32_t id() const noexcept { return id_; }

private:
    Tracer& tracer_;
    std::uint32_t id_;
};

/// Work counted while replaying the stream.
struct Totals {
    directory::MatchStats stats;
    std::uint64_t queries = 0;
    std::uint64_t hits = 0;
    std::uint64_t replies = 0;
    std::uint64_t reply_bytes = 0;
    std::uint64_t wrong = 0;
};

wire::WireMessage decode(const std::vector<std::uint8_t>& frame) {
    auto decoded = wire::try_decode(frame);
    if (!decoded) throw std::runtime_error("replay frame did not decode");
    return std::move(decoded).value();
}

/// The in-process path of a daemon request minus the sockets: decode ->
/// prepare -> query / publish -> encode, over one directory that the
/// set-up publishes fill and every stream replay then reuses.
class Replayer {
public:
    Replayer(Inputs& inputs, Tracer& tracer)
        : inputs_(inputs),
          tracer_(tracer),
          directory_(inputs.kb, {}, &registry_) {
        for (const std::string& doc : inputs.requests) {
            request_frames_.push_back(
                wire::encode({wire::MsgType::kRequest, wire::Request{0, 0, doc}}));
        }
        for (const std::string& doc : inputs.services) {
            service_frames_.push_back(
                wire::encode({wire::MsgType::kPublish, wire::PublishDoc{doc, 0}}));
        }
    }

    void set_up() {
        for (std::size_t i = 0; i < inputs_.services.size(); ++i) publish(i, kSetupOp | i);
    }

    /// The first kReplayOps operations of the stream, with a fresh parse
    /// memo (as a freshly set-up daemon has). Returns the wall time of
    /// each kChunkOps chunk.
    std::vector<double> replay_stream(Totals& totals, Tracing tracing) {
        network_ = std::make_unique<ariadne::DiscoveryNetwork>(
            net::Topology::grid(1, 1), ariadne::ProtocolConfig{}, inputs_.kb);
        std::vector<double> chunks;
        for (std::uint64_t first = 0; first < kReplayOps; first += kChunkOps) {
            const bool odd = (first / kChunkOps) % 2 == 1;
            tracer_.enable(tracing == Tracing::kAll ||
                           odd == (tracing == Tracing::kOddChunks));
            const auto start = Clock::now();
            for (std::uint64_t g = first; g < std::min(first + kChunkOps, kReplayOps);
                 ++g) {
                const Op op = inputs_.op(g);
                if (op.publish) {
                    publish(op.doc, g);
                    ++totals.replies;
                    totals.reply_bytes += last_reply_bytes_;
                } else {
                    query(op.doc, g, totals);
                }
            }
            chunks.push_back(seconds_between(start, Clock::now()));
        }
        return chunks;
    }

    const std::vector<double>& insert_ns() const noexcept { return insert_ns_; }

    double rebuilds_per_kpub() const {
        return insert_ns_.empty()
                   ? 0
                   : 1000.0 *
                         static_cast<double>(registry_.counter_value(
                             obs::names::kDirectorySummaryRebuilds)) /
                         static_cast<double>(insert_ns_.size());
    }

private:
    void publish(std::size_t service, std::uint64_t op) {
        Scope root(tracer_, kOp, kNoSpan, op);
        wire::WireMessage inbound;
        {
            Scope span(tracer_, kWireDecode, root.id(), op);
            inbound = decode(service_frames_[service]);
        }
        PublishReceipt receipt;
        {
            Scope span(tracer_, kPublish, root.id(), op);
            receipt = directory_.publish_xml(
                std::get<wire::PublishDoc>(inbound.payload).document);
        }
        insert_ns_.push_back(receipt.timing.insert_ms * 1e6);
        Scope span(tracer_, kWireEncode, root.id(), op);
        last_reply_bytes_ =
            wire::encode({wire::MsgType::kPubAck, wire::PubAck{op}}).size() + 4;
    }

    void query(std::size_t request, std::uint64_t op, Totals& totals) {
        Scope root(tracer_, kOp, kNoSpan, op);
        wire::WireMessage inbound;
        {
            Scope span(tracer_, kWireDecode, root.id(), op);
            inbound = decode(request_frames_[request]);
        }
        const ariadne::DiscoveryNetwork::PreparedRequest* prepared = nullptr;
        {
            Scope span(tracer_, kPrepare, root.id(), op);
            prepared = &network_->prepared_request(
                std::get<wire::Request>(inbound.payload).document);
        }
        {
            Scope span(tracer_, kQuery, root.id(), op);
            directory_.query_prepared(prepared->request, prepared->resolved, {},
                                      scratch_);
        }
        {
            Scope span(tracer_, kWireEncode, root.id(), op);
            wire::Response response;
            response.request_id = op;
            for (const auto& hits : scratch_.per_capability) {
                for (const auto& hit : hits) {
                    response.hits.push_back(wire::Hit{hit.service, hit.service_name,
                                                      hit.capability_name,
                                                      hit.semantic_distance});
                }
            }
            response.satisfied = !response.hits.empty();
            response.compute_ms = scratch_.timing.total_ms();
            totals.reply_bytes +=
                wire::encode({wire::MsgType::kResponse, std::move(response)}).size() + 4;
            ++totals.replies;
        }

        const directory::MatchStats& s = scratch_.stats;
        totals.stats.capability_matches += s.capability_matches;
        totals.stats.dags_visited += s.dags_visited;
        totals.stats.dags_pruned += s.dags_pruned;
        totals.stats.quick_rejects += s.quick_rejects;
        totals.stats.reachability_prunes += s.reachability_prunes;
        ++totals.queries;
        answer_.clear();
        for (const auto& hits : scratch_.per_capability) {
            for (const auto& hit : hits) {
                answer_.emplace_back(hit.service_name, hit.semantic_distance);
            }
        }
        totals.hits += answer_.size();
        if (!same_answer(inputs_.expected[request], !answer_.empty(), answer_)) {
            ++totals.wrong;
        }
    }

    Inputs& inputs_;
    Tracer& tracer_;
    obs::MetricsRegistry registry_;
    directory::SemanticDirectory directory_;
    std::unique_ptr<ariadne::DiscoveryNetwork> network_;
    std::vector<std::vector<std::uint8_t>> request_frames_;
    std::vector<std::vector<std::uint8_t>> service_frames_;
    directory::QueryResult scratch_;
    std::vector<std::pair<std::string_view, int>> answer_;
    std::vector<double> insert_ns_;
    std::size_t last_reply_bytes_ = 0;
};

/// Times the description layer once per distinct document (a sample of
/// at most kDocSample of each kind), as root spans.
void time_documents(Inputs& inputs, Tracer& tracer) {
    for (std::size_t d = 0; d < inputs.requests.size() && d < kDocSample; ++d) {
        desc::ServiceRequest request;
        {
            Scope span(tracer, kParseRequest, kNoSpan, d);
            request = desc::parse_request(inputs.requests[d]);
        }
        Scope span(tracer, kResolve, kNoSpan, d);
        const auto resolved = desc::resolve_request(request, inputs.kb);
        if (resolved.empty()) throw std::runtime_error("request resolved empty");
    }
    for (std::size_t i = 0; i < inputs.services.size() && i < kDocSample; ++i) {
        Scope span(tracer, kParseService, kNoSpan, i);
        const desc::ServiceDescription service =
            desc::parse_service(inputs.services[i]);
        if (service.profile.capabilities.empty()) {
            throw std::runtime_error("service parsed without capabilities");
        }
    }
}

double ns_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::nano>(to - from).count();
}

void write_chrome_trace(const std::vector<Span>& spans, const std::string& path) {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("cannot write " + path);
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
    const Clock::time_point origin = spans.empty() ? Clock::time_point{} : spans.front().start;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const bool setup = (s.op & kSetupOp) != 0;
        std::fprintf(out,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"setup\":%s}}%s\n",
                     kNames[s.name], ns_between(origin, s.start) / 1000.0,
                     ns_between(s.start, s.end) / 1000.0,
                     static_cast<unsigned long long>(s.op & ~kSetupOp),
                     setup ? "true" : "false", i + 1 < spans.size() ? "," : "");
    }
    std::fputs("]}\n", out);
    if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace

double run_replay(Inputs& inputs, const std::string& trace_path, Report& report) {
    Tracer tracer(4 * inputs.services.size() + 5 * kReplayOps + 3 * kDocSample);
    Replayer replayer(inputs, tracer);
    tracer.enable(true);
    replayer.set_up();
    const std::size_t setup_spans = tracer.spans().size();

    // Overhead: two replays trace alternate chunks (odd, then even), so
    // every chunk runs once with spans and once without; the overhead is
    // the median over chunks of traced / untraced time. A third replay,
    // traced throughout, gives the spans that are kept.
    Totals totals;
    std::vector<std::vector<double>> chunk_s;
    for (const Tracing tracing :
         {Tracing::kOddChunks, Tracing::kEvenChunks, Tracing::kAll}) {
        tracer.truncate(setup_spans);
        totals = Totals{};
        chunk_s.push_back(replayer.replay_stream(totals, tracing));
        report.attempted += totals.queries;
        report.failed += totals.wrong;
    }
    std::vector<double> ratios;
    for (std::size_t c = 0; c < chunk_s[0].size(); ++c) {
        const bool odd = c % 2 == 1;
        const double on = odd ? chunk_s[0][c] : chunk_s[1][c];
        const double off = odd ? chunk_s[1][c] : chunk_s[0][c];
        if (off > 0) ratios.push_back(on / off);
    }
    tracer.enable(true);
    time_documents(inputs, tracer);
    const std::vector<Span>& spans = tracer.spans();

    // Self time: a span's duration minus the time its children cover.
    std::vector<double> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
        if (s.parent != kNoSpan) child_ns[s.parent] += ns_between(s.start, s.end);
    }
    std::array<std::vector<double>, kNameCount> self_ns;
    std::vector<double> op_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const double duration = ns_between(s.start, s.end);
        const bool stream = (s.op & kSetupOp) == 0;
        if (s.name == kOp && stream) op_ns.push_back(duration);
        // Set-up publishes count toward the publish layer only; every
        // other layer is measured on the stream the daemon phases send.
        if (stream || s.name == kPublish) self_ns[s.name].push_back(duration - child_ns[i]);
    }
    for (std::size_t n = 0; n < kNameCount; ++n) {
        std::vector<double> values = self_ns[n];
        if (values.empty()) continue;
        const LatencySummary summary = summarize(values);
        report.note(std::string("span.") + kNames[n],
                    std::to_string(summary.samples) + " spans, self p50 " +
                        format("%.0f", summary.p50) + " ns, p99 " +
                        format("%.0f", summary.p99) + " ns");
    }

    const auto med = [&](Name name) { return median(self_ns[name]); };
    const double queries = totals.queries > 0 ? static_cast<double>(totals.queries) : 1;
    const auto per_query = [&](std::uint64_t count) {
        return static_cast<double>(count) / queries;
    };
    const directory::MatchStats& s = totals.stats;
    report.add(MetricKind::kLayer, "wire.decode_ns", med(kWireDecode), "ns");
    report.add(MetricKind::kLayer, "wire.encode_ns", med(kWireEncode), "ns");
    report.add(MetricKind::kLayer, "wire.reply_bytes",
               totals.replies > 0 ? static_cast<double>(totals.reply_bytes) /
                                        static_cast<double>(totals.replies)
                                  : 0,
               "bytes");
    report.add(MetricKind::kLayer, "ariadne.prepare_ns", med(kPrepare), "ns");
    report.add(MetricKind::kLayer, "description.parse_request_ns", med(kParseRequest), "ns");
    report.add(MetricKind::kLayer, "description.resolve_ns", med(kResolve), "ns");
    report.add(MetricKind::kLayer, "description.parse_service_ns", med(kParseService), "ns");
    std::vector<double> query_ns = self_ns[kQuery];
    report.add(MetricKind::kLayer, "directory.query_ns", med(kQuery), "ns");
    report.add(MetricKind::kLayer, "directory.query_p99_ns", percentile(query_ns, 99), "ns");
    report.add(MetricKind::kLayer, "directory.publish_ns", med(kPublish), "ns");
    report.add(MetricKind::kLayer, "directory.insert_ns", median(replayer.insert_ns()), "ns");
    report.add(MetricKind::kLayer, "directory.dags_visited_per_query",
               per_query(s.dags_visited), "count");
    report.add(MetricKind::kLayer, "directory.dags_pruned_per_query",
               per_query(s.dags_pruned), "count");
    report.add(MetricKind::kLayer, "matching.probed_per_query",
               per_query(s.capability_matches + s.quick_rejects + s.reachability_prunes),
               "count");
    report.add(MetricKind::kLayer, "matching.capability_matches_per_query",
               per_query(s.capability_matches), "count");
    report.add(MetricKind::kLayer, "matching.quick_rejects_per_query",
               per_query(s.quick_rejects), "count");
    report.add(MetricKind::kLayer, "matching.reachability_prunes_per_query",
               per_query(s.reachability_prunes), "count");
    report.add(MetricKind::kLayer, "matching.useful_ratio",
               s.capability_matches > 0 ? static_cast<double>(totals.hits) /
                                              static_cast<double>(s.capability_matches)
                                        : 0,
               "fraction");
    report.add(MetricKind::kLayer, "directory.summary_rebuilds_per_kpub",
               replayer.rebuilds_per_kpub(), "count");
    report.add(MetricKind::kLayer, "trace.overhead_pct", 100.0 * (median(ratios) - 1), "%");
    const double op_median = median(op_ns);
    report.add(MetricKind::kLayer, "trace.op_ns", op_median, "ns");

    write_chrome_trace(spans, trace_path);
    report.note("trace.file", trace_path + " (" + std::to_string(spans.size()) + " spans)");
    return op_median;
}

}  // namespace perfbench
