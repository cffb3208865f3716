// EventLoopTransport — the socket implementation of the Transport seam: a
// single-threaded poll(2) reactor moving the protocol's messages as
// wire-codec frames (ariadne/wire.hpp encode/try_decode of Message::body)
// over nonblocking TCP.
//
// Node model: a star. Node 0 is the hosted node (the daemon's directory);
// connection slots 1..max_connections are remote peers, assigned a NodeId
// on accept and released on close. Every inbound frame is delivered to
// node 0; unicast(0, k, ...) frames onto connection k; broadcast reaches
// every live connection (any ttl >= 1 — one hop covers the star).
//
// Framing: u32 little-endian length prefix + one wire datagram. Reads go
// through a per-connection bounded buffer into wire-codec decoding; a
// frame longer than max_frame_bytes or one that fails to decode closes
// the connection (counted under transport.oversized_frames /
// transport.decode_errors — a peer that corrupts its framing once can
// never resynchronize, so dropping the connection is the safe move).
//
// Ingress trust boundary: every inbound message's source is the
// connection's NodeId. The protocol replies to and keys peer state by
// source only, never by a node id in the payload, so a peer cannot direct
// another peer's responses (or spoof a third node) whatever it puts on
// the wire.
//
// Send path: each connection keeps one retained send buffer. A unicast
// encodes its frame in place at the buffer's end (wire::encode_append
// behind a reserved length prefix); a broadcast encodes once and copies
// the bytes. Each reactor step ends with one send(2) per connection with
// pending bytes (transport.send_calls); the sent prefix is compacted away.
//
// Backpressure: a frame is admitted only while the connection's pending
// bytes, its own prefix included, stay within write_queue_limit_bytes;
// past the watermark it is truncated away and counted under
// transport.backpressure_drops, so the reactor never blocks on a stalled
// peer and a buffer never exceeds the watermark plus one frame.
//
// Timers: schedule() runs on the steady clock. A timer already due when a
// delivery schedules it (delay 0, as every protocol reply on this clock)
// fires in the same step, after the reads and before the step's send, so
// the reply it sends goes out without another ppoll.
//
// Threading: run_for()/run_until_stopped() drive everything — accepts,
// reads, decode, delivery, timers, flushes — on the calling thread,
// satisfying the Transport contract's single-threaded reactor model. The
// transport holds no lock. The only cross-thread entry points are
// request_stop() and the async-signal-safe stop_fd() (a signal handler
// writes one byte to it — the SIGTERM drain path of sariadne_daemon);
// both wake the reactor through a self-pipe.
#pragma once

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "ariadne/transport.hpp"
#include "ariadne/transport_types.hpp"
#include "obs/metrics.hpp"

namespace sariadne::net {

struct EventLoopConfig {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; read back via local_port()
    /// Connection slots (NodeIds 1..max_connections). Accepts beyond this
    /// are closed immediately (transport.connections_rejected).
    std::size_t max_connections = 64;
    /// Frames longer than this close the connection before any allocation
    /// sized by the hostile length.
    std::size_t max_frame_bytes = 1u << 20;
    /// Per-connection send-buffer high watermark (backpressure shed
    /// point): the most pending bytes, length prefixes included.
    std::size_t write_queue_limit_bytes = 4u << 20;
};

class EventLoopTransport final : public ariadne::Transport {
public:
    /// Binds and listens immediately; throws support/errors.hpp Error on
    /// socket/bind/listen failure.
    explicit EventLoopTransport(EventLoopConfig config);
    ~EventLoopTransport() override;

    EventLoopTransport(const EventLoopTransport&) = delete;
    EventLoopTransport& operator=(const EventLoopTransport&) = delete;

    /// The bound TCP port (resolves an ephemeral-port request).
    std::uint16_t local_port() const noexcept { return local_port_; }

    /// Thread-safe: makes run_until_stopped() return after its drain.
    void request_stop();

    /// File descriptor a signal handler may write one byte to (write(2)
    /// is async-signal-safe) to trigger request_stop() semantics.
    int stop_fd() const noexcept { return wake_pipe_[1]; }

    /// Runs until request_stop() (or a byte on stop_fd()), then drains:
    /// stops accepting, flushes pending send buffers for at most
    /// `drain_grace_ms`, closes every connection and returns.
    void run_until_stopped(double drain_grace_ms = 500);

    /// Live connection count (drain/interest introspection).
    std::size_t live_connections() const noexcept { return live_count_; }

    // --- Transport -------------------------------------------------------

    void set_delivery_handler(DeliveryHandler handler) override;
    void set_metrics(obs::MetricsRegistry& registry) override;
    void unicast(NodeId from, NodeId to, Message msg) override;
    void broadcast(NodeId from, std::uint32_t ttl_hops, Message msg) override;
    SimTime now() const override;
    void schedule(SimTime delay_ms, std::function<void()> action) override;
    void run_for(SimTime duration_ms) override;
    bool idle() const override;
    std::size_t node_count() const override {
        return config_.max_connections + 1;
    }
    bool is_up(NodeId node) const override;
    std::vector<int> hop_distances(NodeId from) const override;
    bool is_infrastructure(NodeId node) const override {
        // The hosted daemon node is mains-powered infrastructure; remote
        // peers report as plain mobile nodes.
        return node == 0;
    }
    std::size_t degree(NodeId node) const override;

private:
    struct Connection {
        int fd = -1;
        /// Retained receive storage: bytes [read_pos, read_end) are
        /// received but not yet framed; recv() writes past read_end.
        std::vector<std::uint8_t> read_buf;
        std::size_t read_pos = 0;  ///< consumed prefix of read_buf
        std::size_t read_end = 0;  ///< received prefix of read_buf
        /// Retained send storage: every byte is framed but not yet sent;
        /// frames are appended at the end, send() starts at the front.
        std::vector<std::uint8_t> write_buf;

        bool live() const noexcept { return fd >= 0; }
    };

    struct Timer {
        SimTime due;
        std::uint64_t seq;
        std::function<void()> action;

        bool operator>(const Timer& other) const noexcept {
            return due != other.due ? due > other.due : seq > other.seq;
        }
    };

    /// Handles into the registry the transport counts into, all resolved
    /// by the constructor.
    struct Metrics {
        explicit Metrics(obs::MetricsRegistry& target);

        obs::Counter* connections_accepted;
        obs::Counter* connections_closed;
        obs::Counter* connections_rejected;
        obs::Gauge* connections_active;
        obs::Counter* frames_sent;
        obs::Counter* send_calls;
        obs::Counter* frames_received;
        obs::Counter* bytes_sent;
        obs::Counter* bytes_received;
        obs::Counter* decode_errors;
        obs::Counter* oversized_frames;
        obs::Counter* backpressure_drops;
        obs::Gauge* write_queue_bytes;
    };

    /// One reactor iteration: expire timers, drain local deliveries, poll
    /// with a timeout bounded by `max_wait_ms`, handle ready fds, then
    /// flush every connection with pending bytes.
    void step(SimTime max_wait_ms);
    void run_expired_timers();
    void drain_local();
    void accept_ready();
    void read_ready(NodeId slot);
    void flush_writes(NodeId slot);
    void close_connection(NodeId slot);
    /// Appends msg's frame to `out`; false, leaving `out` as it was, when
    /// the body exceeds max_frame_bytes.
    bool encode_frame(const Message& msg, std::vector<std::uint8_t>& out);
    /// Keeps the frame at [frame_start, end) of conn.write_buf if the
    /// buffer stays within the watermark, else truncates it away.
    void admit_frame(Connection& conn, std::size_t frame_start);
    void deliver_inbound(NodeId from, Message msg);
    SimTime next_timer_due() const;

    EventLoopConfig config_;
    int listen_fd_ = -1;
    std::uint16_t local_port_ = 0;
    int wake_pipe_[2] = {-1, -1};
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Connection> conns_;  ///< index = NodeId (slot 0 unused)
    std::size_t live_count_ = 0;
    DeliveryHandler handler_;
    std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
    std::uint64_t next_timer_seq_ = 0;
    std::uint64_t next_wire_seq_ = 0;
    std::vector<Message> local_;  ///< loopback deliveries to node 0
    /// step()'s poll set and the connection slot behind each entry past
    /// the wake pipe and listener; cleared and refilled every iteration.
    std::vector<pollfd> poll_fds_;
    std::vector<NodeId> poll_slots_;
    bool stop_requested_ = false;
    std::unique_ptr<obs::MetricsRegistry> own_registry_ =
        std::make_unique<obs::MetricsRegistry>();
    Metrics metrics_{*own_registry_};
};

}  // namespace sariadne::net
