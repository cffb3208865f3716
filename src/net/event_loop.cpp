#include "net/event_loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <span>
#include <utility>

#include "ariadne/wire.hpp"
#include "obs/metric_names.hpp"
#include "support/errors.hpp"

namespace sariadne::net {

namespace {

constexpr std::size_t kFramePrefixBytes = 4;
constexpr std::size_t kReadChunkBytes = 64 * 1024;

[[noreturn]] void throw_errno(const std::string& what) {
    throw Error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        throw_errno("fcntl(O_NONBLOCK)");
    }
}

std::uint32_t read_le32(const std::uint8_t* p) noexcept {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

void write_le32(std::uint8_t* p, std::uint32_t value) noexcept {
    p[0] = static_cast<std::uint8_t>(value);
    p[1] = static_cast<std::uint8_t>(value >> 8);
    p[2] = static_cast<std::uint8_t>(value >> 16);
    p[3] = static_cast<std::uint8_t>(value >> 24);
}

}  // namespace

EventLoopTransport::EventLoopTransport(EventLoopConfig config)
    : config_(std::move(config)),
      epoch_(std::chrono::steady_clock::now()),
      conns_(config_.max_connections + 1) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
        1) {
        ::close(listen_fd_);
        throw Error("invalid bind address: " + config_.bind_address);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0) {
        const int saved = errno;
        ::close(listen_fd_);
        errno = saved;
        throw_errno("bind " + config_.bind_address + ":" +
                    std::to_string(config_.port));
    }
    if (::listen(listen_fd_, 128) < 0) {
        const int saved = errno;
        ::close(listen_fd_);
        errno = saved;
        throw_errno("listen");
    }
    set_nonblocking(listen_fd_);

    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) == 0) {
        local_port_ = ntohs(bound.sin_port);
    }

    if (::pipe(wake_pipe_) < 0) {
        const int saved = errno;
        ::close(listen_fd_);
        errno = saved;
        throw_errno("pipe");
    }
    set_nonblocking(wake_pipe_[0]);
    set_nonblocking(wake_pipe_[1]);
}

EventLoopTransport::~EventLoopTransport() {
    for (NodeId slot = 1; slot < conns_.size(); ++slot) {
        if (conns_[slot].live()) ::close(conns_[slot].fd);
    }
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void EventLoopTransport::set_delivery_handler(DeliveryHandler handler) {
    handler_ = std::move(handler);
}

EventLoopTransport::Metrics::Metrics(obs::MetricsRegistry& target)
    : connections_accepted(
          &target.counter(obs::names::kTransportConnectionsAccepted)),
      connections_closed(
          &target.counter(obs::names::kTransportConnectionsClosed)),
      connections_rejected(
          &target.counter(obs::names::kTransportConnectionsRejected)),
      connections_active(
          &target.gauge(obs::names::kTransportConnectionsActive)),
      frames_sent(&target.counter(obs::names::kTransportFramesSent)),
      send_calls(&target.counter(obs::names::kTransportSendCalls)),
      frames_received(&target.counter(obs::names::kTransportFramesReceived)),
      bytes_sent(&target.counter(obs::names::kTransportBytesSent)),
      bytes_received(&target.counter(obs::names::kTransportBytesReceived)),
      decode_errors(&target.counter(obs::names::kTransportDecodeErrors)),
      oversized_frames(&target.counter(obs::names::kTransportOversizedFrames)),
      backpressure_drops(
          &target.counter(obs::names::kTransportBackpressureDrops)),
      write_queue_bytes(&target.gauge(obs::names::kTransportWriteQueueBytes)) {}

void EventLoopTransport::set_metrics(obs::MetricsRegistry& registry) {
    metrics_ = Metrics(registry);
}

SimTime EventLoopTransport::now() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void EventLoopTransport::schedule(SimTime delay_ms,
                                  std::function<void()> action) {
    timers_.push(Timer{now() + (delay_ms > 0 ? delay_ms : 0),
                       next_timer_seq_++, std::move(action)});
}

void EventLoopTransport::request_stop() {
    const char byte = 'q';
    [[maybe_unused]] const auto ignored =
        ::write(wake_pipe_[1], &byte, 1);
}

bool EventLoopTransport::is_up(NodeId node) const {
    if (node == 0) return true;
    return node < conns_.size() && conns_[node].live();
}

std::vector<int> EventLoopTransport::hop_distances(NodeId from) const {
    std::vector<int> dist(node_count(), -1);
    if (from >= node_count()) return dist;
    dist[from] = 0;
    if (from == 0) {
        for (NodeId slot = 1; slot < conns_.size(); ++slot) {
            if (conns_[slot].live()) dist[slot] = 1;
        }
    } else if (conns_[from].live()) {
        dist[0] = 1;
    }
    return dist;
}

std::size_t EventLoopTransport::degree(NodeId node) const {
    if (node == 0) return live_count_;
    return is_up(node) ? 1 : 0;
}

bool EventLoopTransport::idle() const {
    if (!timers_.empty() || !local_.empty()) return false;
    for (const Connection& conn : conns_) {
        if (conn.live() && !conn.write_buf.empty()) return false;
    }
    return true;
}

// --- send path -------------------------------------------------------------

bool EventLoopTransport::encode_frame(const Message& msg,
                                      std::vector<std::uint8_t>& out) {
    const std::size_t start = out.size();
    out.resize(start + kFramePrefixBytes);
    ariadne::wire::encode_append(msg.body, out);
    const std::size_t body = out.size() - start - kFramePrefixBytes;
    if (body > config_.max_frame_bytes) {
        out.resize(start);
        metrics_.oversized_frames->inc();
        return false;
    }
    write_le32(out.data() + start, static_cast<std::uint32_t>(body));
    return true;
}

void EventLoopTransport::admit_frame(Connection& conn,
                                     std::size_t frame_start) {
    // The whole frame counts against the watermark, prefix included.
    if (conn.write_buf.size() > config_.write_queue_limit_bytes) {
        conn.write_buf.resize(frame_start);
        metrics_.backpressure_drops->inc();
        return;
    }
    metrics_.write_queue_bytes->add(
        static_cast<std::int64_t>(conn.write_buf.size() - frame_start));
    metrics_.frames_sent->inc();
}

void EventLoopTransport::unicast(NodeId from, NodeId to, Message msg) {
    msg.source = from;
    msg.wire_seq = ++next_wire_seq_;
    if (to == 0) {
        // Loopback to the hosted node: queued, delivered on the next
        // reactor iteration (never re-entrantly inside the sender).
        local_.push_back(std::move(msg));
        return;
    }
    if (!is_up(to)) return;  // the peer hung up
    Connection& conn = conns_[to];
    const std::size_t start = conn.write_buf.size();
    if (encode_frame(msg, conn.write_buf)) admit_frame(conn, start);
}

void EventLoopTransport::broadcast(NodeId from, std::uint32_t ttl_hops,
                                   Message msg) {
    if (ttl_hops == 0) return;
    msg.source = from;
    msg.wire_seq = ++next_wire_seq_;
    if (from != 0) {
        // A remote peer's broadcast reaches only the hosted node.
        local_.push_back(std::move(msg));
        return;
    }
    std::vector<std::uint8_t> frame;
    if (!encode_frame(msg, frame)) return;
    for (NodeId slot = 1; slot < conns_.size(); ++slot) {
        Connection& conn = conns_[slot];
        if (!conn.live()) continue;
        const std::size_t start = conn.write_buf.size();
        conn.write_buf.insert(conn.write_buf.end(), frame.begin(),
                              frame.end());
        admit_frame(conn, start);
    }
}

void EventLoopTransport::flush_writes(NodeId slot) {
    Connection& conn = conns_[slot];
    ssize_t sent;
    do {
        sent = ::send(conn.fd, conn.write_buf.data(), conn.write_buf.size(),
                      MSG_NOSIGNAL);
    } while (sent < 0 && errno == EINTR);
    if (sent < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) close_connection(slot);
        return;
    }
    metrics_.send_calls->inc();
    metrics_.bytes_sent->inc(static_cast<std::uint64_t>(sent));
    metrics_.write_queue_bytes->sub(static_cast<std::int64_t>(sent));
    // Compact the sent prefix; a short write leaves the rest at the front
    // for the next step's send.
    conn.write_buf.erase(conn.write_buf.begin(),
                         conn.write_buf.begin() + sent);
}

// --- receive path ----------------------------------------------------------

void EventLoopTransport::deliver_inbound(NodeId from, Message msg) {
    // Trust boundary: the connection's identity is the sender, whatever
    // node ids the peer wrote into the payload.
    msg.source = from;
    msg.wire_seq = ++next_wire_seq_;
    metrics_.frames_received->inc();
    if (handler_) handler_(0, msg);
}

void EventLoopTransport::read_ready(NodeId slot) {
    Connection& conn = conns_[slot];
    while (conn.live()) {
        // Receive into retained storage; it grows (zero-filled once) only
        // when less than a chunk of room is left past the received bytes.
        if (conn.read_buf.size() - conn.read_end < kReadChunkBytes) {
            conn.read_buf.resize(conn.read_end + kReadChunkBytes);
        }
        const std::size_t room = conn.read_buf.size() - conn.read_end;
        const ssize_t got =
            ::recv(conn.fd, conn.read_buf.data() + conn.read_end, room, 0);
        if (got < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            close_connection(slot);
            return;
        }
        if (got == 0) {  // orderly peer close
            close_connection(slot);
            return;
        }
        conn.read_end += static_cast<std::size_t>(got);
        metrics_.bytes_received->inc(static_cast<std::uint64_t>(got));

        // Extract every complete frame in the buffer.
        while (conn.read_end - conn.read_pos >= kFramePrefixBytes) {
            const std::uint32_t frame_len =
                read_le32(conn.read_buf.data() + conn.read_pos);
            if (frame_len > config_.max_frame_bytes) {
                metrics_.oversized_frames->inc();
                close_connection(slot);
                return;
            }
            if (conn.read_end - conn.read_pos <
                kFramePrefixBytes + frame_len) {
                break;  // partial frame; wait for more bytes
            }
            const std::span<const std::uint8_t> datagram(
                conn.read_buf.data() + conn.read_pos + kFramePrefixBytes,
                frame_len);
            conn.read_pos += kFramePrefixBytes + frame_len;
            auto decoded = ariadne::wire::try_decode(datagram);
            if (!decoded) {
                metrics_.decode_errors->inc();
                close_connection(slot);
                return;
            }
            Message msg;
            msg.body = std::move(decoded).value();
            deliver_inbound(slot, std::move(msg));
            if (!conn.live()) return;  // handler may have closed us
        }
        // Compact the consumed prefix once per read burst.
        if (conn.read_pos > 0) {
            std::memmove(conn.read_buf.data(),
                         conn.read_buf.data() + conn.read_pos,
                         conn.read_end - conn.read_pos);
            conn.read_end -= conn.read_pos;
            conn.read_pos = 0;
        }
        if (static_cast<std::size_t>(got) < room) break;
    }
}

void EventLoopTransport::accept_ready() {
    while (true) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (errno == EINTR) continue;
            return;  // transient accept failure; poll again
        }
        NodeId slot = 0;
        for (NodeId candidate = 1; candidate < conns_.size(); ++candidate) {
            if (!conns_[candidate].live()) {
                slot = candidate;
                break;
            }
        }
        if (slot == 0) {
            metrics_.connections_rejected->inc();
            ::close(fd);
            continue;
        }
        set_nonblocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        Connection& conn = conns_[slot];
        conn.fd = fd;
        conn.read_pos = 0;
        conn.read_end = 0;
        conn.write_buf.clear();
        ++live_count_;
        metrics_.connections_accepted->inc();
        metrics_.connections_active->set(
            static_cast<std::int64_t>(live_count_));
    }
}

void EventLoopTransport::close_connection(NodeId slot) {
    Connection& conn = conns_[slot];
    if (!conn.live()) return;
    ::close(conn.fd);
    conn.fd = -1;
    metrics_.write_queue_bytes->sub(
        static_cast<std::int64_t>(conn.write_buf.size()));
    conn.read_pos = 0;
    conn.read_end = 0;
    conn.write_buf.clear();
    --live_count_;
    metrics_.connections_closed->inc();
    metrics_.connections_active->set(static_cast<std::int64_t>(live_count_));
}

// --- reactor ---------------------------------------------------------------

void EventLoopTransport::run_expired_timers() {
    const SimTime current = now();
    while (!timers_.empty() && timers_.top().due <= current) {
        // priority_queue::top() is const; the action is moved out via the
        // const_cast idiom the simulator also uses.
        auto action = std::move(const_cast<Timer&>(timers_.top()).action);
        timers_.pop();
        action();
    }
}

void EventLoopTransport::drain_local() {
    while (!local_.empty()) {
        std::vector<Message> batch;
        batch.swap(local_);
        for (Message& msg : batch) {
            if (handler_) handler_(0, msg);
        }
    }
}

SimTime EventLoopTransport::next_timer_due() const {
    return timers_.empty() ? -1 : timers_.top().due;
}

void EventLoopTransport::step(SimTime max_wait_ms) {
    run_expired_timers();
    drain_local();

    SimTime wait_ms = max_wait_ms;
    const SimTime due = next_timer_due();
    if (due >= 0) {
        const SimTime until_timer = due - now();
        if (until_timer < wait_ms) wait_ms = until_timer;
    }
    if (wait_ms < 0) wait_ms = 0;

    std::vector<pollfd>& fds = poll_fds_;
    fds.clear();
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    if (listen_fd_ >= 0) fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    std::vector<NodeId>& fd_slots = poll_slots_;
    fd_slots.clear();
    for (NodeId slot = 1; slot < conns_.size(); ++slot) {
        Connection& conn = conns_[slot];
        if (!conn.live()) continue;
        short events = POLLIN;
        if (!conn.write_buf.empty()) events |= POLLOUT;
        fds.push_back(pollfd{conn.fd, events, 0});
        fd_slots.push_back(slot);
    }

    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_ms / 1000.0);
    ts.tv_nsec = static_cast<long>((wait_ms - 1000.0 * ts.tv_sec) * 1e6);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0) {
        if (errno == EINTR) return;
        throw_errno("ppoll");
    }

    std::size_t index = 0;
    if (fds[index].revents & POLLIN) {
        char buf[256];
        ssize_t got;
        while ((got = ::read(wake_pipe_[0], buf, sizeof(buf))) > 0) {
            for (ssize_t i = 0; i < got; ++i) {
                if (buf[i] == 'q') stop_requested_ = true;
            }
        }
    }
    ++index;
    if (listen_fd_ >= 0) {
        if (fds[index].revents & POLLIN) accept_ready();
        ++index;
    }
    for (std::size_t i = 0; i < fd_slots.size(); ++i, ++index) {
        const NodeId slot = fd_slots[i];
        const short revents = fds[index].revents;
        if (revents == 0 || !conns_[slot].live()) continue;
        if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
            // Drain what the kernel buffered before honouring the hangup,
            // so a peer's final frames are not lost.
            if (revents & POLLIN) read_ready(slot);
            if (conns_[slot].live()) close_connection(slot);
            continue;
        }
        if (revents & POLLIN) read_ready(slot);
    }

    run_expired_timers();
    drain_local();

    // One send per connection carries everything this step framed for it,
    // together with whatever an earlier short write left; a connection that
    // polled POLLOUT is served here too.
    for (NodeId slot = 1; slot < conns_.size(); ++slot) {
        if (conns_[slot].live() && !conns_[slot].write_buf.empty()) {
            flush_writes(slot);
        }
    }
}

void EventLoopTransport::run_for(SimTime duration_ms) {
    const SimTime deadline = now() + duration_ms;
    while (true) {
        const SimTime remaining = deadline - now();
        if (remaining <= 0) break;
        step(remaining);
    }
    run_expired_timers();
    drain_local();
}

void EventLoopTransport::run_until_stopped(double drain_grace_ms) {
    while (!stop_requested_) {
        step(100);
    }
    // Drain: stop accepting, let queued writes flush within the grace
    // period, then close everything.
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    const SimTime drain_deadline = now() + drain_grace_ms;
    while (now() < drain_deadline) {
        bool pending = false;
        for (const Connection& conn : conns_) {
            if (conn.live() && !conn.write_buf.empty()) pending = true;
        }
        if (!pending) break;
        step(drain_deadline - now());
    }
    for (NodeId slot = 1; slot < conns_.size(); ++slot) {
        if (conns_[slot].live()) close_connection(slot);
    }
}

}  // namespace sariadne::net
