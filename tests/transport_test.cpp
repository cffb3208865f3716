// transport_test — the Transport seam. Socket-level behaviours of
// net::EventLoopTransport over real loopback connections (framing across
// partial reads, short writes of one large frame and of many small ones,
// peer close, oversized and malformed frame rejection, the send buffer's
// exact backpressure watermark), the SimTransport
// equivalence pin: DiscoveryNetwork built through the topology
// convenience constructor must behave identically — same outcomes, same
// TrafficStats, same sim.* counters — to one built over an explicit
// SimTransport, since the former is sugar for the latter, and a
// DiscoveryNetwork directory on the reactor: answering in the step that
// read the request, in one send for every reply of that step, on the
// connection that sent it, and surviving node ids a peer writes into
// payloads.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include "ariadne/protocol.hpp"
#include "bloom/bloom_filter.hpp"
#include "description/amigos_io.hpp"
#include "net/sim_transport.hpp"
#include "ariadne/wire.hpp"
#include "net/event_loop.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "test_helpers.hpp"

namespace sariadne::net {
namespace {

namespace th = sariadne::testing;
namespace wire = ariadne::wire;
using namespace std::chrono_literals;

/// Runs an EventLoopTransport's reactor on a background thread. Handlers
/// must be installed before start(); the destructor stops and joins.
struct LoopRunner {
    explicit LoopRunner(EventLoopConfig config) : transport(std::move(config)) {}

    ~LoopRunner() {
        transport.request_stop();
        if (thread.joinable()) thread.join();
    }

    void start() {
        thread = std::thread([this] { transport.run_until_stopped(200); });
    }

    EventLoopTransport transport;
    std::thread thread;
};

/// Minimal blocking wire-codec client — deliberately not the transport's
/// own code, so both framing implementations check each other.
class TestClient {
public:
    /// `rcvbuf_bytes` > 0 shrinks SO_RCVBUF before connecting, so less of
    /// what the peer sends fits in the kernel while this client does not
    /// read.
    explicit TestClient(std::uint16_t port, int rcvbuf_bytes = 0) {
        fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (rcvbuf_bytes > 0) {
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                         sizeof(rcvbuf_bytes));
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
        const int one = 1;
        if (fd_ >= 0) {
            ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            // A frame that never comes fails read_frame() instead of
            // hanging the suite.
            const timeval limit{10, 0};
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
        }
    }

    ~TestClient() { close(); }

    bool connected() const noexcept { return fd_ >= 0; }

    void close() {
        if (fd_ >= 0) ::close(fd_);
        fd_ = -1;
    }

    static std::vector<std::uint8_t> frame(
        const ariadne::wire::WireMessage& message) {
        const std::vector<std::uint8_t> body = ariadne::wire::encode(message);
        const auto len = static_cast<std::uint32_t>(body.size());
        std::vector<std::uint8_t> framed(4 + body.size());
        framed[0] = static_cast<std::uint8_t>(len & 0xFF);
        framed[1] = static_cast<std::uint8_t>((len >> 8) & 0xFF);
        framed[2] = static_cast<std::uint8_t>((len >> 16) & 0xFF);
        framed[3] = static_cast<std::uint8_t>((len >> 24) & 0xFF);
        std::memcpy(framed.data() + 4, body.data(), body.size());
        return framed;
    }

    void send_bytes(const std::uint8_t* data, std::size_t size) {
        std::size_t off = 0;
        while (off < size) {
            const ssize_t sent =
                ::send(fd_, data + off, size - off, MSG_NOSIGNAL);
            ASSERT_GT(sent, 0);
            off += static_cast<std::size_t>(sent);
        }
    }

    void send_frame(const ariadne::wire::WireMessage& message) {
        const auto bytes = frame(message);
        send_bytes(bytes.data(), bytes.size());
    }

    /// Sends every frame of `messages` with one write.
    void send_frames(const std::vector<ariadne::wire::WireMessage>& messages) {
        std::vector<std::uint8_t> bytes;
        for (const auto& message : messages) {
            const auto framed = frame(message);
            bytes.insert(bytes.end(), framed.begin(), framed.end());
        }
        send_bytes(bytes.data(), bytes.size());
    }

    /// Blocks for one frame; fails the test on peer close, on a read that
    /// times out or on bad framing.
    ariadne::wire::WireMessage read_frame() {
        while (!extractable()) {
            std::uint8_t chunk[65536];
            const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (got <= 0) {
                ADD_FAILURE() << "connection closed or read timed out while "
                                 "expecting a frame";
                return {};
            }
            buf_.insert(buf_.end(), chunk, chunk + got);
        }
        const std::uint32_t len = peek_len();
        auto decoded =
            ariadne::wire::try_decode({buf_.data() + 4, len});
        buf_.erase(buf_.begin(), buf_.begin() + 4 + len);
        if (!decoded) {
            ADD_FAILURE() << "malformed frame from transport: "
                          << decoded.error().message;
            return {};
        }
        return std::move(decoded).value();
    }

    /// True iff a buffered frame, new bytes or EOF are ready to read
    /// without blocking.
    bool readable() const {
        if (extractable()) return true;
        pollfd entry{fd_, POLLIN, 0};
        return ::poll(&entry, 1, 0) > 0;
    }

    /// True iff the peer closed the connection (EOF) within `wait`.
    bool closed_by_peer(std::chrono::milliseconds wait) {
        timeval tv{};
        tv.tv_sec = static_cast<long>(wait.count() / 1000);
        tv.tv_usec = static_cast<long>((wait.count() % 1000) * 1000);
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        std::uint8_t chunk[256];
        const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
        return got == 0;
    }

private:
    bool extractable() const {
        return buf_.size() >= 4 && buf_.size() - 4 >= peek_len();
    }

    std::uint32_t peek_len() const {
        return static_cast<std::uint32_t>(buf_[0]) |
               (static_cast<std::uint32_t>(buf_[1]) << 8) |
               (static_cast<std::uint32_t>(buf_[2]) << 16) |
               (static_cast<std::uint32_t>(buf_[3]) << 24);
    }

    int fd_ = -1;
    std::vector<std::uint8_t> buf_;
};

std::uint64_t counter_value(obs::MetricsRegistry& registry,
                            std::string_view name) {
    return registry.counter(name).value();
}

TEST(EventLoopTransport, DeliversRequestAndRoutesResponseBack) {
    LoopRunner runner{EventLoopConfig{}};
    auto& transport = runner.transport;
    transport.set_delivery_handler([&](NodeId self, const Message& message) {
        ASSERT_EQ(self, 0u);
        if (message.body.type != wire::MsgType::kRequest) return;
        const auto& request = std::get<wire::Request>(message.body.payload);
        transport.unicast(0, message.source,
                          make_message(wire::Response{request.request_id, {},
                                                      true, 0.0, 1}));
    });
    runner.start();

    TestClient client(transport.local_port());
    ASSERT_TRUE(client.connected());
    ariadne::wire::WireMessage request;
    request.type = ariadne::wire::MsgType::kRequest;
    request.payload = ariadne::wire::Request{42, 0, "<request/>"};
    client.send_frame(request);

    const auto reply = client.read_frame();
    ASSERT_EQ(reply.type, ariadne::wire::MsgType::kResponse);
    const auto& response = std::get<ariadne::wire::Response>(reply.payload);
    EXPECT_EQ(response.request_id, 42u);
    EXPECT_TRUE(response.satisfied);
}

TEST(EventLoopTransport, ReassemblesFrameFromPartialWrites) {
    // The test thread drives the reactor, so deliveries need no lock.
    EventLoopTransport transport{EventLoopConfig{}};
    std::vector<Message> delivered;
    transport.set_delivery_handler(
        [&](NodeId, const Message& message) { delivered.push_back(message); });

    TestClient client(transport.local_port());
    ASSERT_TRUE(client.connected());
    const std::string document(4096, 'd');
    ariadne::wire::WireMessage publish;
    publish.type = ariadne::wire::MsgType::kPublish;
    publish.payload = ariadne::wire::PublishDoc{document, 5};
    const auto bytes = TestClient::frame(publish);

    // Dribble the frame: a split inside the length prefix, then two body
    // chunks, with reactor steps between so each arrives as a separate read.
    client.send_bytes(bytes.data(), 2);
    transport.run_for(20);
    client.send_bytes(bytes.data() + 2, 100);
    transport.run_for(20);
    client.send_bytes(bytes.data() + 102, bytes.size() - 102);
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (delivered.empty() && std::chrono::steady_clock::now() < deadline) {
        transport.run_for(1);
    }

    ASSERT_EQ(delivered.size(), 1u);  // one frame, not one per chunk
    EXPECT_EQ(delivered[0].body.type, wire::MsgType::kPublish);
    const auto& doc = std::get<wire::PublishDoc>(delivered[0].body.payload);
    EXPECT_EQ(doc.document, document);
    EXPECT_EQ(doc.pub_id, 5u);
}

TEST(EventLoopTransport, LargeFrameSurvivesShortWrites) {
    LoopRunner runner{EventLoopConfig{}};
    auto& transport = runner.transport;
    // ~900 KB — larger than the default loopback socket send buffer, so
    // the reactor's flush necessarily takes several short writes while
    // the client is still asleep.
    const std::string state(900 * 1024, 's');
    transport.set_delivery_handler([&](NodeId, const Message& message) {
        if (message.body.type != wire::MsgType::kRequest) return;
        transport.unicast(0, message.source,
                          make_message(wire::Handover{state}));
    });
    runner.start();

    TestClient client(transport.local_port());
    ASSERT_TRUE(client.connected());
    ariadne::wire::WireMessage request;
    request.type = ariadne::wire::MsgType::kRequest;
    request.payload = ariadne::wire::Request{1, 0, "<request/>"};
    client.send_frame(request);
    std::this_thread::sleep_for(100ms);  // force the send buffer to fill

    const auto reply = client.read_frame();
    ASSERT_EQ(reply.type, ariadne::wire::MsgType::kHandover);
    EXPECT_EQ(std::get<ariadne::wire::Handover>(reply.payload).state_xml,
              state);
}

TEST(EventLoopTransport, PeerCloseReclaimsSlotForNewConnections) {
    obs::MetricsRegistry registry;
    EventLoopConfig config;
    config.max_connections = 1;  // a single slot: reuse is observable
    LoopRunner runner{config};
    runner.transport.set_metrics(registry);
    runner.transport.set_delivery_handler([](NodeId, const Message&) {});
    runner.start();

    auto& closed = registry.counter(obs::names::kTransportConnectionsClosed);
    auto& accepted =
        registry.counter(obs::names::kTransportConnectionsAccepted);
    {
        TestClient first(runner.transport.local_port());
        ASSERT_TRUE(first.connected());
        ariadne::wire::WireMessage ping;
        ping.type = ariadne::wire::MsgType::kSummaryPull;
        ping.payload = ariadne::wire::SummaryPull{};
        first.send_frame(ping);  // guarantees the accept has happened
        const auto deadline = std::chrono::steady_clock::now() + 2s;
        while (accepted.value() < 1 &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(1ms);
        }
        ASSERT_EQ(accepted.value(), 1u);
    }  // first closes

    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (closed.value() < 1 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(1ms);
    }
    ASSERT_EQ(closed.value(), 1u);

    // The slot must be free again: a second client fits into the single
    // connection slot instead of being rejected.
    TestClient second(runner.transport.local_port());
    ASSERT_TRUE(second.connected());
    ariadne::wire::WireMessage ping;
    ping.type = ariadne::wire::MsgType::kSummaryPull;
    ping.payload = ariadne::wire::SummaryPull{};
    second.send_frame(ping);
    const auto deadline2 = std::chrono::steady_clock::now() + 2s;
    while (accepted.value() < 2 &&
           std::chrono::steady_clock::now() < deadline2) {
        std::this_thread::sleep_for(1ms);
    }
    EXPECT_EQ(accepted.value(), 2u);
    EXPECT_EQ(
        registry.counter(obs::names::kTransportConnectionsRejected).value(),
        0u);
}

TEST(EventLoopTransport, OversizedFrameClosesConnection) {
    obs::MetricsRegistry registry;
    EventLoopConfig config;
    config.max_frame_bytes = 1024;
    LoopRunner runner{config};
    runner.transport.set_metrics(registry);
    runner.transport.set_delivery_handler([](NodeId, const Message&) {});
    runner.start();

    TestClient client(runner.transport.local_port());
    ASSERT_TRUE(client.connected());
    // A frame whose header claims 2 KB: must be rejected on the prefix
    // alone, before any payload-sized allocation.
    const std::uint8_t prefix[4] = {0x00, 0x08, 0x00, 0x00};
    client.send_bytes(prefix, sizeof(prefix));

    EXPECT_TRUE(client.closed_by_peer(2000ms));
    EXPECT_EQ(
        registry.counter(obs::names::kTransportOversizedFrames).value(), 1u);
}

TEST(EventLoopTransport, MalformedFrameClosesConnection) {
    obs::MetricsRegistry registry;
    LoopRunner runner{EventLoopConfig{}};
    runner.transport.set_metrics(registry);
    runner.transport.set_delivery_handler([](NodeId, const Message&) {});
    runner.start();

    TestClient client(runner.transport.local_port());
    ASSERT_TRUE(client.connected());
    const std::uint8_t garbage[8] = {0x04, 0x00, 0x00, 0x00,  // length 4
                                     0xDE, 0xAD, 0xBE, 0xEF};
    client.send_bytes(garbage, sizeof(garbage));

    EXPECT_TRUE(client.closed_by_peer(2000ms));
    EXPECT_EQ(registry.counter(obs::names::kTransportDecodeErrors).value(),
              1u);
}

TEST(EventLoopTransport, WriteQueueBackpressureShedsFrames) {
    // Frames of one size F (length prefix included) against a watermark of
    // kFit + 1 frames minus 2 bytes: exactly kFit frames fit. A watermark
    // that compared only the body would admit kFit + 1, since the first
    // kFit frames' prefixes went uncounted.
    constexpr std::size_t kBurst = 32;
    constexpr std::size_t kFit = 3;
    const auto state = [](std::size_t index) {
        std::string xml(16 * 1024, 'b');
        xml[0] = static_cast<char>('A' + index);
        return xml;
    };
    const std::size_t frame_bytes =
        wire::encoded_size(make_message(wire::Handover{state(0)}).body) + 4;

    obs::MetricsRegistry registry;
    EventLoopConfig config;
    config.write_queue_limit_bytes = (kFit + 1) * frame_bytes - 2;
    LoopRunner runner{config};
    auto& transport = runner.transport;
    transport.set_metrics(registry);
    transport.set_delivery_handler([&](NodeId, const Message& message) {
        if (message.body.type != wire::MsgType::kRequest) return;
        const auto id = std::get<wire::Request>(message.body.payload).request_id;
        if (id != 1) {
            // The sentinel: whatever the burst left queued arrives first.
            transport.unicast(0, message.source,
                              make_message(wire::Response{id, {}, true, 0, 1}));
            return;
        }
        // The whole burst is framed within one handler call, before the
        // reactor flushes anything, so every frame past the watermark must
        // be shed rather than queued without bound.
        for (std::size_t i = 0; i < kBurst; ++i) {
            transport.unicast(0, message.source,
                              make_message(wire::Handover{state(i)}));
        }
    });
    runner.start();

    TestClient client(transport.local_port());
    ASSERT_TRUE(client.connected());
    client.send_frame({wire::MsgType::kRequest, wire::Request{1, 0, "<r/>"}});
    for (std::size_t i = 0; i < kFit; ++i) {
        const auto reply = client.read_frame();
        ASSERT_EQ(reply.type, wire::MsgType::kHandover) << "frame " << i;
        EXPECT_EQ(std::get<wire::Handover>(reply.payload).state_xml, state(i))
            << "frame " << i;
    }
    client.send_frame({wire::MsgType::kRequest, wire::Request{2, 0, "<r/>"}});
    const auto sentinel = client.read_frame();
    ASSERT_EQ(sentinel.type, wire::MsgType::kResponse)
        << "a frame past the watermark was sent";
    EXPECT_EQ(std::get<wire::Response>(sentinel.payload).request_id, 2u);
    EXPECT_EQ(
        registry.counter(obs::names::kTransportBackpressureDrops).value(),
        kBurst - kFit);
    EXPECT_EQ(registry.counter(obs::names::kTransportFramesSent).value(),
              kFit + 1);
}

TEST(EventLoopTransport, ManySmallFramesResumeAfterShortWrites) {
    // Rounds of about 1 MB of small frames, each well under the default
    // 4 MB watermark, go to a client that shrank its receive buffer and
    // does not read. Loopback send buffers grow to megabytes, so rounds
    // continue until the kernel refuses bytes and the send buffer keeps
    // them. From then on sends go short, and each later send resumes
    // mid-frame at the front of a buffer of many frames.
    constexpr std::uint64_t kPerRound = 32 * 1024;
    constexpr std::uint64_t kMaxRounds = 64;
    obs::MetricsRegistry registry;
    LoopRunner runner{EventLoopConfig{}};
    auto& transport = runner.transport;
    transport.set_metrics(registry);
    transport.set_delivery_handler([&](NodeId, const Message& message) {
        if (message.body.type != wire::MsgType::kRequest) return;
        const std::uint64_t first =
            std::get<wire::Request>(message.body.payload).request_id *
            kPerRound;
        for (std::uint64_t id = first; id < first + kPerRound; ++id) {
            transport.unicast(0, message.source,
                              make_message(wire::Response{id, {}, true, 0, 1}));
        }
    });
    runner.start();

    TestClient client(transport.local_port(), 4096);
    ASSERT_TRUE(client.connected());
    auto& queued = registry.gauge(obs::names::kTransportWriteQueueBytes);
    auto& framed = registry.counter(obs::names::kTransportFramesSent);
    std::uint64_t rounds = 0;
    while (queued.value() == 0 && rounds < kMaxRounds) {
        client.send_frame(
            {wire::MsgType::kRequest, wire::Request{rounds, 0, "<r/>"}});
        ++rounds;
        const auto deadline = std::chrono::steady_clock::now() + 2s;
        while (framed.value() < rounds * kPerRound &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(1ms);
        }
        std::this_thread::sleep_for(20ms);  // the step's send
    }
    ASSERT_GT(queued.value(), 0) << "the kernel took all " << rounds
                                 << " rounds without a short send";

    const std::uint64_t frames = rounds * kPerRound;
    for (std::uint64_t id = 0; id < frames; ++id) {
        const auto reply = client.read_frame();
        ASSERT_EQ(reply.type, wire::MsgType::kResponse) << "frame " << id;
        ASSERT_EQ(std::get<wire::Response>(reply.payload).request_id, id);
    }
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (queued.value() != 0 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(1ms);
    }
    EXPECT_EQ(queued.value(), 0);
    EXPECT_EQ(
        registry.counter(obs::names::kTransportBackpressureDrops).value(), 0u);
    EXPECT_EQ(framed.value(), frames);
    EXPECT_GT(registry.counter(obs::names::kTransportSendCalls).value(),
              rounds);
    EXPECT_FALSE(client.readable());
}

// --- SimTransport equivalence -------------------------------------------

encoding::KnowledgeBase make_kb() {
    encoding::KnowledgeBase kb;
    kb.register_ontology(th::media_ontology());
    kb.register_ontology(th::server_ontology());
    return kb;
}

/// One deterministic publish/discover run; returns (satisfied, stats,
/// registry counters) for comparison.
struct RunResult {
    bool satisfied = false;
    TrafficStats stats;
    std::uint64_t sim_unicasts = 0;
    std::uint64_t sim_deliveries = 0;
    std::uint64_t sim_bytes = 0;
};

RunResult run_scenario(ariadne::DiscoveryNetwork& network,
                       obs::MetricsRegistry& registry) {
    network.appoint_directory(4);
    network.start();
    network.run_for(100);
    network.publish_service(
        0, desc::serialize_service(th::workstation_service()));
    network.run_for(500);
    desc::ServiceRequest request;
    request.requester = "pda";
    request.capabilities.push_back(th::get_video_stream());
    const auto id = network.discover(8, desc::serialize_request(request));
    network.run_for(5000);

    RunResult result;
    result.satisfied = network.outcome(id).satisfied;
    result.stats = network.traffic();
    result.sim_unicasts = counter_value(registry, obs::names::kSimUnicasts);
    result.sim_deliveries =
        counter_value(registry, obs::names::kSimDeliveries);
    result.sim_bytes =
        counter_value(registry, obs::names::kSimBytesTransmitted);
    return result;
}

TEST(SimTransportEquivalence, ConvenienceCtorMatchesExplicitTransport) {
    ariadne::ProtocolConfig config;
    config.adv_period_ms = 500;
    config.adv_timeout_ms = 1000;
    config.election_wait_ms = 30;

    auto kb_a = make_kb();
    obs::MetricsRegistry registry_a;
    ariadne::DiscoveryNetwork convenience(Topology::grid(3, 3), config, kb_a,
                                          &registry_a);
    const RunResult via_convenience = run_scenario(convenience, registry_a);

    auto kb_b = make_kb();
    obs::MetricsRegistry registry_b;
    ariadne::DiscoveryNetwork explicit_transport(
        std::make_unique<ariadne::SimTransport>(Topology::grid(3, 3)), config,
        kb_b, &registry_b);
    const RunResult via_explicit = run_scenario(explicit_transport, registry_b);

    EXPECT_TRUE(via_convenience.satisfied);
    EXPECT_TRUE(via_explicit.satisfied);
    // Byte-identical replay: the convenience constructor is nothing but
    // SimTransport construction sugar, so every traffic quantity matches.
    EXPECT_EQ(via_convenience.stats, via_explicit.stats);
    EXPECT_EQ(via_convenience.sim_unicasts, via_explicit.sim_unicasts);
    EXPECT_EQ(via_convenience.sim_deliveries, via_explicit.sim_deliveries);
    EXPECT_EQ(via_convenience.sim_bytes, via_explicit.sim_bytes);
}

TEST(SimTransportEquivalence, TransportAccessorsForwardToSimulator) {
    auto kb = make_kb();
    ariadne::DiscoveryNetwork network(Topology::grid(2, 2),
                                     ariadne::ProtocolConfig{}, kb);
    EXPECT_EQ(network.node_count(), 4u);
    EXPECT_TRUE(network.idle());
    EXPECT_EQ(network.now(), ariadne::sim(network).now());
    // The escape hatch reaches the simulator for fault/topology control.
    ariadne::sim(network).topology().set_up(3, false);
    EXPECT_FALSE(network.transport().is_up(3));
}

// --- DiscoveryNetwork on the reactor ---------------------------------------

/// A daemon-shaped directory: DiscoveryNetwork node 0 on a reactor that
/// the test drives from its own thread.
struct ReactorDirectory {
    ReactorDirectory() : kb(make_kb()) {
        auto owned = std::make_unique<EventLoopTransport>(EventLoopConfig{});
        loop = owned.get();
        ariadne::ProtocolConfig config;
        config.adv_period_ms = 1e9;  // no advertisement frames between replies
        network = std::make_unique<ariadne::DiscoveryNetwork>(std::move(owned),
                                                              config, kb);
        network->appoint_directory(0);
    }

    /// Steps the reactor until `client` has something to read, for at
    /// most two seconds; false if nothing arrived.
    bool step_until_readable(TestClient& client) {
        const auto deadline = std::chrono::steady_clock::now() + 2s;
        while (!client.readable() &&
               std::chrono::steady_clock::now() < deadline) {
            loop->run_for(1);
        }
        return client.readable();
    }

    /// Publishes the workstation service over `client` and waits for its
    /// ack.
    void publish_workstation(TestClient& client) {
        client.send_frame(
            {wire::MsgType::kPublish,
             wire::PublishDoc{
                 desc::serialize_service(th::workstation_service()), 1}});
        ASSERT_TRUE(step_until_readable(client));
        ASSERT_EQ(client.read_frame().type, wire::MsgType::kPubAck);
    }

    static std::string video_request() {
        desc::ServiceRequest request;
        request.capabilities.push_back(th::get_video_stream());
        return desc::serialize_request(request);
    }

    encoding::KnowledgeBase kb;
    EventLoopTransport* loop = nullptr;
    std::unique_ptr<ariadne::DiscoveryNetwork> network;
};

TEST(EventLoopDirectory, ReplyLeavesInTheStepThatReadTheRequest) {
    ReactorDirectory dir;
    TestClient client(dir.loop->local_port());
    ASSERT_TRUE(client.connected());
    dir.publish_workstation(client);

    // The request frame and a stop byte are both pending before the next
    // step, so run_until_stopped() runs exactly one step and then closes
    // every connection without another: the response reaches the client
    // only if no timer held it past that step.
    client.send_frame(
        {wire::MsgType::kRequest,
         wire::Request{11, 0, ReactorDirectory::video_request()}});
    dir.loop->request_stop();
    dir.loop->run_until_stopped(0);

    const auto reply = client.read_frame();
    ASSERT_EQ(reply.type, wire::MsgType::kResponse);
    const auto& response = std::get<wire::Response>(reply.payload);
    EXPECT_EQ(response.request_id, 11u);
    EXPECT_TRUE(response.satisfied);
}

TEST(EventLoopDirectory, RepliesOfOneStepLeaveInOneSend) {
    ReactorDirectory dir;
    TestClient client(dir.loop->local_port());
    ASSERT_TRUE(client.connected());
    dir.publish_workstation(client);
    obs::MetricsRegistry& registry = dir.network->metrics();
    auto& frames_sent = registry.counter(obs::names::kTransportFramesSent);
    auto& send_calls = registry.counter(obs::names::kTransportSendCalls);
    const std::uint64_t frames_before = frames_sent.value();
    const std::uint64_t sends_before = send_calls.value();

    // Sixteen requests and a stop byte are pending before the one step
    // run_until_stopped(0) takes, so every reply is framed in that step and
    // the step's one send carries them all.
    constexpr std::uint64_t kRequests = 16;
    std::vector<wire::WireMessage> requests;
    for (std::uint64_t id = 1; id <= kRequests; ++id) {
        requests.push_back(
            {wire::MsgType::kRequest,
             wire::Request{id, 0, ReactorDirectory::video_request()}});
    }
    client.send_frames(requests);
    dir.loop->request_stop();
    dir.loop->run_until_stopped(0);

    for (std::uint64_t id = 1; id <= kRequests; ++id) {
        const auto reply = client.read_frame();
        ASSERT_EQ(reply.type, wire::MsgType::kResponse);
        const auto& response = std::get<wire::Response>(reply.payload);
        EXPECT_EQ(response.request_id, id);
        EXPECT_TRUE(response.satisfied);
    }
    EXPECT_EQ(frames_sent.value() - frames_before, kRequests);
    EXPECT_EQ(send_calls.value() - sends_before, 1u);
}

TEST(EventLoopDirectory, AnswersOnTheConnectionThatSentTheRequest) {
    ReactorDirectory dir;
    TestClient client(dir.loop->local_port());
    TestClient bystander(dir.loop->local_port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(bystander.connected());
    dir.publish_workstation(client);

    // A spoofed client id: the peer claims to be node 999. The reply goes
    // to the connection the request came from, whatever the payload says.
    client.send_frame(
        {wire::MsgType::kRequest,
         wire::Request{7, 999, ReactorDirectory::video_request()}});
    ASSERT_TRUE(dir.step_until_readable(client));
    const auto reply = client.read_frame();
    ASSERT_EQ(reply.type, wire::MsgType::kResponse);
    EXPECT_EQ(std::get<wire::Response>(reply.payload).request_id, 7u);
    EXPECT_TRUE(std::get<wire::Response>(reply.payload).satisfied);
    EXPECT_FALSE(bystander.readable());
}

TEST(EventLoopDirectory, ForgedSummarySenderIdIsNotAnIndex) {
    // Regression: the directory keyed a peer's summary by the `from` field
    // of the summary-push and later indexed its node table with it, so a
    // forged id crashed the daemon (SIGSEGV) on the next request it could
    // not answer locally.
    ReactorDirectory dir;
    TestClient client(dir.loop->local_port());
    ASSERT_TRUE(client.connected());
    bloom::BloomFilter summary({256, 4});
    client.send_frame({wire::MsgType::kSummaryPush,
                       wire::SummaryPush{0x7FFFFFF0u, summary.serialize()}});
    // Nothing is published, so the request is unsatisfied locally and the
    // directory consults its peer summaries for forwarding targets.
    client.send_frame(
        {wire::MsgType::kRequest,
         wire::Request{3, 0, ReactorDirectory::video_request()}});
    ASSERT_TRUE(dir.step_until_readable(client));
    const auto reply = client.read_frame();
    ASSERT_EQ(reply.type, wire::MsgType::kResponse);
    EXPECT_EQ(std::get<wire::Response>(reply.payload).request_id, 3u);
    EXPECT_FALSE(std::get<wire::Response>(reply.payload).satisfied);
}

TEST(EventLoopDirectory, TwoConnectionsReusingARequestIdBothGetAnswers) {
    // Clients pick request ids independently. Two requests with the same
    // id handled in one reactor step must both be answered, each on its
    // own connection.
    ReactorDirectory dir;
    TestClient a(dir.loop->local_port());
    TestClient b(dir.loop->local_port());
    ASSERT_TRUE(a.connected());
    ASSERT_TRUE(b.connected());
    dir.publish_workstation(a);
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (dir.loop->live_connections() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
        dir.loop->run_for(1);
    }
    ASSERT_EQ(dir.loop->live_connections(), 2u);

    const wire::WireMessage request{
        wire::MsgType::kRequest,
        wire::Request{5, 0, ReactorDirectory::video_request()}};
    a.send_frame(request);
    b.send_frame(request);
    for (TestClient* client : {&a, &b}) {
        ASSERT_TRUE(dir.step_until_readable(*client));
        const auto reply = client->read_frame();
        ASSERT_EQ(reply.type, wire::MsgType::kResponse);
        EXPECT_EQ(std::get<wire::Response>(reply.payload).request_id, 5u);
        EXPECT_TRUE(std::get<wire::Response>(reply.payload).satisfied);
    }
}

}  // namespace
}  // namespace sariadne::net
