#include "daemon_load.hpp"

#include <array>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "ariadne/wire.hpp"

namespace perfbench {

namespace wire = sariadne::ariadne::wire;

// --- CPUs and /proc -----------------------------------------------------

CpuSplit split_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> allowed;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
        }
    }
    CpuSplit split;
    if (allowed.size() < 2) {
        split.daemon = allowed;
        split.client = allowed;
        return split;
    }
    const std::size_t half = allowed.size() / 2;
    split.daemon.assign(allowed.begin(), allowed.begin() + static_cast<long>(half));
    split.client.assign(allowed.begin() + static_cast<long>(half), allowed.end());
    return split;
}

namespace {

bool set_affinity(const std::vector<int>& cpus) {
    if (cpus.empty()) return true;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus) CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
}

double thread_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Time a process's main thread has spent on a CPU (/proc/PID/schedstat).
double on_cpu_seconds(int pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/schedstat");
    double ns = 0;
    in >> ns;
    return ns * 1e-9;
}

}  // namespace

void pin_current_thread(const std::vector<int>& cpus) {
    if (!set_affinity(cpus)) {
        throw std::runtime_error("sched_setaffinity failed: " +
                                 std::string(std::strerror(errno)));
    }
}

std::string describe_cpus(const std::vector<int>& cpus) {
    std::string out;
    for (const int cpu : cpus) {
        if (!out.empty()) out += ",";
        out += std::to_string(cpu);
    }
    return out.empty() ? "-" : out;
}

double vm_hwm_mb(int pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    return 0;
}

namespace {

// --- the daemon process -------------------------------------------------

/// One sariadne_daemon child: pinned to the daemon CPUs, killed with this
/// process (PR_SET_PDEATHSIG), its stdout read for the bound ports.
class DaemonProcess {
public:
    DaemonProcess(const std::string& path, std::uint64_t seed,
                  const std::vector<int>& cpus) {
        const std::vector<std::string> args = {
            path,
            "--port", "0",
            "--metrics-port", "0",
            "--universe", std::to_string(kOntologies),
            "--classes", std::to_string(kClassesPerOntology),
            "--seed", std::to_string(seed)};
        std::vector<char*> argv;
        for (const std::string& arg : args) {
            argv.push_back(const_cast<char*>(arg.c_str()));
        }
        argv.push_back(nullptr);

        int out[2];
        if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
        const pid_t parent = ::getpid();
        pid_ = ::fork();
        if (pid_ < 0) {
            ::close(out[0]);
            ::close(out[1]);
            throw std::runtime_error("fork failed");
        }
        if (pid_ == 0) {
            // Child: async-signal-safe calls only until exec.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent) ::_exit(126);
            if (!set_affinity(cpus)) ::_exit(125);
            ::dup2(out[1], STDOUT_FILENO);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        ::close(out[1]);
        out_fd_ = out[0];
        try {
            read_ports();
        } catch (...) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
            ::close(out_fd_);
            throw;
        }
    }

    ~DaemonProcess() {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        if (out_fd_ >= 0) ::close(out_fd_);
    }

    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;

    std::uint16_t port() const noexcept { return port_; }
    std::uint16_t metrics_port() const noexcept { return metrics_port_; }
    int pid() const noexcept { return pid_; }

    /// SIGTERM, then wait up to 5 s for the drain (SIGKILL after that).
    /// Returns the exit status, or -1 when it did not exit cleanly.
    int stop() {
        if (pid_ <= 0) return -1;
        ::kill(pid_, SIGTERM);
        const auto deadline = Clock::now() + std::chrono::seconds(5);
        int status = 0;
        for (;;) {
            const pid_t done = ::waitpid(pid_, &status, WNOHANG);
            if (done == pid_) break;
            if (Clock::now() > deadline) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                pid_ = -1;
                return -1;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

private:
    void read_ports() {
        std::string buffer;
        const auto deadline = Clock::now() + std::chrono::seconds(30);
        while (port_ == 0 || metrics_port_ == 0) {
            const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                                  deadline - Clock::now())
                                  .count();
            pollfd pfd{out_fd_, POLLIN, 0};
            if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) {
                throw std::runtime_error("daemon did not report its ports");
            }
            char chunk[512];
            const ssize_t got = ::read(out_fd_, chunk, sizeof(chunk));
            if (got <= 0) throw std::runtime_error("daemon exited at start-up");
            buffer.append(chunk, static_cast<std::size_t>(got));
            port_ = port_after(buffer, "listening on 127.0.0.1:");
            metrics_port_ = port_after(buffer, "metrics on 127.0.0.1:");
        }
    }

    static std::uint16_t port_after(const std::string& text, const char* marker) {
        const auto at = text.find(marker);
        if (at == std::string::npos) return 0;
        const auto eol = text.find('\n', at);
        if (eol == std::string::npos) return 0;
        return static_cast<std::uint16_t>(
            std::strtoul(text.c_str() + at + std::strlen(marker), nullptr, 10));
    }

    pid_t pid_ = -1;
    int out_fd_ = -1;
    std::uint16_t port_ = 0;
    std::uint16_t metrics_port_ = 0;
};

// --- one client connection ----------------------------------------------

int connect_loopback(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        throw std::runtime_error("cannot connect to 127.0.0.1:" +
                                 std::to_string(port));
    }
    return fd;
}

/// The daemon's own frame limit (net::EventLoopConfig::max_frame_bytes).
constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// A nonblocking wire-codec connection (u32-LE length prefix + datagram),
/// owned by exactly one thread.
class WireConn {
public:
    explicit WireConn(std::uint16_t port) : fd_(connect_loopback(port)) {
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    }

    ~WireConn() { ::close(fd_); }

    WireConn(const WireConn&) = delete;
    WireConn& operator=(const WireConn&) = delete;

    void stage(const wire::WireMessage& message) {
        const std::vector<std::uint8_t> body = wire::encode(message);
        const auto len = static_cast<std::uint32_t>(body.size());
        for (int shift = 0; shift < 32; shift += 8) {
            out_.push_back(static_cast<std::uint8_t>((len >> shift) & 0xFF));
        }
        out_.insert(out_.end(), body.begin(), body.end());
    }

    /// Writes every staged byte, waiting for socket space when needed.
    void flush() {
        std::size_t off = 0;
        while (off < out_.size()) {
            const ssize_t sent =
                ::send(fd_, out_.data() + off, out_.size() - off, MSG_NOSIGNAL);
            if (sent > 0) {
                off += static_cast<std::size_t>(sent);
                continue;
            }
            if (sent < 0 && errno == EINTR) continue;
            if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                pollfd pfd{fd_, POLLOUT, 0};
                if (::poll(&pfd, 1, 5000) <= 0) {
                    throw std::runtime_error("send stalled for 5 s");
                }
                continue;
            }
            throw std::runtime_error("send() failed: " +
                                     std::string(std::strerror(errno)));
        }
        out_.clear();
    }

    /// Reads what the socket holds, waiting up to `timeout_ms` for the
    /// first byte (0 = do not wait), and hands every complete frame to
    /// `on_frame(message, received_at)`. Returns false when nothing came.
    template <typename OnFrame>
    bool read_frames(int timeout_ms, OnFrame&& on_frame) {
        std::uint8_t chunk[65536];
        ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) && timeout_ms > 0) {
            pollfd pfd{fd_, POLLIN, 0};
            if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
            got = ::recv(fd_, chunk, sizeof(chunk), 0);
        }
        const Clock::time_point received_at = Clock::now();
        if (got == 0) throw std::runtime_error("daemon closed the connection");
        if (got < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return false;
            throw std::runtime_error("recv() failed: " +
                                     std::string(std::strerror(errno)));
        }
        in_.insert(in_.end(), chunk, chunk + got);
        std::size_t pos = 0;
        while (in_.size() - pos >= 4) {
            const std::uint32_t len = static_cast<std::uint32_t>(in_[pos]) |
                                      (static_cast<std::uint32_t>(in_[pos + 1]) << 8) |
                                      (static_cast<std::uint32_t>(in_[pos + 2]) << 16) |
                                      (static_cast<std::uint32_t>(in_[pos + 3]) << 24);
            if (len > kMaxFrameBytes) {
                throw std::runtime_error("daemon sent a frame of " + std::to_string(len) +
                                         " bytes");
            }
            if (in_.size() - pos - 4 < len) break;
            auto decoded = wire::try_decode({in_.data() + pos + 4, len});
            pos += 4 + len;
            if (!decoded) {
                throw std::runtime_error("daemon sent a malformed frame: " +
                                         decoded.error().message);
            }
            on_frame(std::move(decoded).value(), received_at);
        }
        in_.erase(in_.begin(), in_.begin() + static_cast<long>(pos));
        return true;
    }

private:
    int fd_;
    std::vector<std::uint8_t> out_;
    std::vector<std::uint8_t> in_;
};

// --- operations and replies ---------------------------------------------

/// Op ids carry their slot in the high bits so a late reply can never be
/// taken for an operation of the next slot.
constexpr int kPhaseShift = 40;
constexpr std::uint64_t kOpMask = (std::uint64_t{1} << kPhaseShift) - 1;

wire::WireMessage op_message(const Inputs& inputs, std::uint64_t g,
                             std::uint64_t id) {
    const Op op = inputs.op(g);
    wire::WireMessage message;
    if (op.publish) {
        message.type = wire::MsgType::kPublish;
        message.payload = wire::PublishDoc{inputs.services[op.doc], id};
    } else {
        // `client` is rewritten by the daemon to the connection's node id.
        message.type = wire::MsgType::kRequest;
        message.payload = wire::Request{id, 0, inputs.requests[op.doc]};
    }
    return message;
}

enum class Reply { kOther, kAnswer };

/// Classifies a frame; for an operation's reply sets `id` and `correct`.
Reply classify(const Inputs& inputs, std::uint64_t first_op,
               const wire::WireMessage& frame, std::uint64_t& id, bool& correct,
               std::vector<std::pair<std::string_view, int>>& scratch) {
    switch (frame.type) {
        case wire::MsgType::kPubAck:
            id = std::get<wire::PubAck>(frame.payload).pub_id;
            correct = inputs.op(first_op + (id & kOpMask)).publish;
            return Reply::kAnswer;
        case wire::MsgType::kPubNack:
            id = std::get<wire::PubNack>(frame.payload).pub_id;
            correct = false;
            return Reply::kAnswer;
        case wire::MsgType::kResponse: {
            const auto& response = std::get<wire::Response>(frame.payload);
            id = response.request_id;
            const Op op = inputs.op(first_op + (id & kOpMask));
            if (op.publish) {
                correct = false;
                return Reply::kAnswer;
            }
            scratch.clear();
            for (const wire::Hit& hit : response.hits) {
                scratch.emplace_back(hit.service_name, hit.semantic_distance);
            }
            correct = same_answer(inputs.expected[op.doc], response.satisfied,
                                  scratch);
            return Reply::kAnswer;
        }
        default:
            return Reply::kOther;  // directory advertisements and the like
    }
}

// --- phases -------------------------------------------------------------

constexpr unsigned kClientThreads = 2;
constexpr std::size_t kClosedWindow = 64;
constexpr auto kReplyTimeout = std::chrono::seconds(1);
/// Untimed warm-up at the mid rate before the first timed slot: shared
/// virtual machines often run 20-35% slow for the first second or two of
/// load.
constexpr double kWarmupSeconds = 2;
/// The timed phases run round-robin — low, mid, saturation, low, ... —
/// in this many rounds, so host contention that drifts over seconds lands
/// on every phase alike and each phase has many slots to pick its best
/// from (see PhaseStats).
constexpr std::size_t kRounds = 10;

enum class Phase { kWarmup, kLow, kMid, kSaturation };

const char* phase_name(Phase phase) {
    switch (phase) {
        case Phase::kWarmup:
            return "warmup";
        case Phase::kLow:
            return "low";
        case Phase::kMid:
            return "mid";
        case Phase::kSaturation:
            break;
    }
    return "saturation";
}

/// One slot: a stretch of one phase on both connections.
struct Slot {
    Phase phase = Phase::kLow;
    std::uint32_t id = 0;  ///< unique per slot, in every op id's high bits
    std::uint64_t first_op = 0;
    double rate = 0;  ///< open loop, ops/s over all connections
    double seconds = 0;
    Clock::time_point start;

    bool open_loop() const noexcept { return phase != Phase::kSaturation; }
};

struct SlotResult {
    std::vector<double> latency_us;
    std::vector<double> send_lag_us;  ///< open loop
    std::vector<double> cpu_share;    ///< per client thread
    std::uint64_t completed_in_slot = 0;
    std::uint64_t sent = 0;
    std::uint64_t wrong = 0;
    std::uint64_t missing = 0;

    void merge(SlotResult&& other) {
        latency_us.insert(latency_us.end(), other.latency_us.begin(),
                          other.latency_us.end());
        send_lag_us.insert(send_lag_us.end(), other.send_lag_us.begin(),
                           other.send_lag_us.end());
        cpu_share.insert(cpu_share.end(), other.cpu_share.begin(),
                         other.cpu_share.end());
        completed_in_slot += other.completed_in_slot;
        sent += other.sent;
        wrong += other.wrong;
        missing += other.missing;
    }
};

Clock::duration from_seconds(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/// Accepts a frame as the reply to one of `thread`'s operations of `slot`:
/// returns the operation's per-thread index and marks it done. Returns
/// nothing for frames that are no reply (directory advertisements) and for
/// replies to no outstanding operation (another slot's, another thread's,
/// a duplicate), which count in `wrong` like wrong answers do.
std::optional<std::uint64_t> claim_reply(
    const Inputs& inputs, const Slot& slot, unsigned thread,
    const wire::WireMessage& frame, std::uint64_t sent, std::vector<char>& done,
    std::uint64_t& wrong, std::vector<std::pair<std::string_view, int>>& scratch) {
    std::uint64_t id = 0;
    bool correct = false;
    if (classify(inputs, slot.first_op, frame, id, correct, scratch) == Reply::kOther) {
        return std::nullopt;
    }
    const std::uint64_t k = id & kOpMask;
    const std::uint64_t j = k / kClientThreads;
    if ((id >> kPhaseShift) != slot.id || k % kClientThreads != thread || j >= sent ||
        done[j] != 0) {
        ++wrong;
        return std::nullopt;
    }
    done[j] = 1;
    if (!correct) ++wrong;
    return j;
}

/// Open loop: operation k of the slot is due at start + k / rate and is
/// sent by thread k mod kClientThreads. The thread busy-polls its socket
/// and the clock, so a reply is timestamped when it arrives and a send
/// leaves when it is due; latency runs from the due time, so a stall
/// charges every operation it delays (no coordinated omission).
SlotResult run_open_loop(WireConn& conn, const Inputs& inputs, const Slot& slot,
                         unsigned thread) {
    SlotResult result;
    const auto total = static_cast<std::uint64_t>(slot.seconds * slot.rate);
    const std::uint64_t mine =
        total > thread ? (total - thread + kClientThreads - 1) / kClientThreads : 0;
    const double interval = 1.0 / slot.rate;
    const auto due = [&](std::uint64_t j) {
        return slot.start +
               from_seconds(static_cast<double>(thread + j * kClientThreads) * interval);
    };
    std::vector<char> done(mine, 0);
    std::vector<std::pair<std::string_view, int>> scratch;
    result.latency_us.reserve(mine);
    result.send_lag_us.reserve(mine);
    const auto end = slot.start + from_seconds(slot.seconds);
    std::uint64_t next = 0;
    std::uint64_t outstanding = 0;

    const auto on_frame = [&](const wire::WireMessage& frame, Clock::time_point at) {
        const auto j = claim_reply(inputs, slot, thread, frame, next, done, result.wrong,
                                   scratch);
        if (!j) return;
        --outstanding;
        if (at <= end) ++result.completed_in_slot;
        result.latency_us.push_back(us_between(due(*j), at));
    };

    const double cpu_start = thread_cpu_seconds();
    const auto wall_start = Clock::now();
    for (;;) {
        const auto now = Clock::now();
        if (next < mine && due(next) <= now) {
            const std::uint64_t first = next;
            while (next < mine && due(next) <= now) {
                const std::uint64_t k = thread + next * kClientThreads;
                conn.stage(op_message(inputs, slot.first_op + k,
                                      (std::uint64_t{slot.id} << kPhaseShift) | k));
                ++next;
            }
            const auto sent_at = Clock::now();
            conn.flush();
            for (std::uint64_t j = first; j < next; ++j) {
                result.send_lag_us.push_back(us_between(due(j), sent_at));
            }
            outstanding += next - first;
            result.sent += next - first;
            continue;
        }
        if (next == mine && (outstanding == 0 || now > end + kReplyTimeout)) break;
        conn.read_frames(0, on_frame);
    }
    result.missing = outstanding;
    const double wall = seconds_between(wall_start, Clock::now());
    result.cpu_share.push_back(wall > 0 ? (thread_cpu_seconds() - cpu_start) / wall : 0);
    return result;
}

/// Closed loop: each connection keeps kClosedWindow requests in flight and
/// sends the next one as soon as a reply arrives. The thread blocks in
/// poll(2) between replies, so its CPU share tells whether the generator
/// or the daemon set the rate.
SlotResult run_closed_loop(WireConn& conn, const Inputs& inputs, const Slot& slot,
                           unsigned thread) {
    SlotResult result;
    std::vector<Clock::time_point> sent_at;
    std::vector<char> done;
    std::vector<std::pair<std::string_view, int>> scratch;
    const auto end = slot.start + from_seconds(slot.seconds);
    std::uint64_t next = 0;
    std::uint64_t outstanding = 0;
    std::uint64_t staged = 0;

    const auto stage_next = [&] {
        const std::uint64_t k = thread + next * kClientThreads;
        conn.stage(op_message(inputs, slot.first_op + k,
                              (std::uint64_t{slot.id} << kPhaseShift) | k));
        ++next;
        ++staged;
    };
    const auto flush = [&] {
        if (staged == 0) return;
        const auto now = Clock::now();
        conn.flush();
        sent_at.resize(next, now);
        done.resize(next, 0);
        outstanding += staged;
        result.sent += staged;
        staged = 0;
    };
    const auto on_frame = [&](const wire::WireMessage& frame, Clock::time_point at) {
        const auto j = claim_reply(inputs, slot, thread, frame, sent_at.size(), done,
                                   result.wrong, scratch);
        if (!j) return;
        --outstanding;
        result.latency_us.push_back(us_between(sent_at[*j], at));
        if (at <= end) {
            ++result.completed_in_slot;
            stage_next();
        }
    };

    const double cpu_start = thread_cpu_seconds();
    const auto wall_start = Clock::now();
    while (Clock::now() < slot.start) {
    }
    for (std::size_t i = 0; i < kClosedWindow; ++i) stage_next();
    flush();
    for (;;) {
        const auto now = Clock::now();
        if (outstanding == 0 && now > end) break;
        if (now > end + kReplyTimeout) break;
        conn.read_frames(50, on_frame);
        flush();
    }
    result.missing = outstanding;
    const double wall = seconds_between(wall_start, Clock::now());
    result.cpu_share.push_back(wall > 0 ? (thread_cpu_seconds() - cpu_start) / wall : 0);
    return result;
}

/// Runs one slot on both connections: this thread drives connection 0,
/// one more thread drives connection 1; results merge at the join.
SlotResult run_slot(std::array<std::unique_ptr<WireConn>, kClientThreads>& conns,
                    const Inputs& inputs, Slot& slot) {
    slot.start = Clock::now() + std::chrono::milliseconds(2);
    const auto drive = [&](unsigned thread) {
        return slot.open_loop() ? run_open_loop(*conns[thread], inputs, slot, thread)
                                : run_closed_loop(*conns[thread], inputs, slot, thread);
    };
    SlotResult second;
    std::exception_ptr second_error;
    std::thread worker([&] {
        try {
            second = drive(1);
        } catch (...) {
            second_error = std::current_exception();
        }
    });
    SlotResult first;
    std::exception_ptr first_error;
    try {
        first = drive(0);
    } catch (...) {
        first_error = std::current_exception();
    }
    worker.join();
    if (first_error) std::rethrow_exception(first_error);
    if (second_error) std::rethrow_exception(second_error);
    first.merge(std::move(second));
    return first;
}

/// Everything one phase measured over its slots. The phase reports its
/// best slot: the lowest slot p50 (open loop) or the highest completion
/// rate (closed loop). Host interference only ever adds latency or takes
/// throughput away, so the best slot is the one the host disturbed least,
/// and it can never beat what the code can do. A late generator only adds
/// latency too (it is measured from the intended send time), but if the
/// best slot's send-lag p99 exceeds 10% of its p50, the generator rather
/// than the daemon may have set the number, and the run is flagged.
struct PhaseStats {
    std::vector<double> slot_p50;
    std::vector<double> slot_lag_p99;
    std::vector<double> slot_rate;
    std::vector<double> latency_us;
    std::vector<double> send_lag_us;
    std::vector<double> daemon_cpu;  ///< reactor on-CPU share per slot
    double busiest_cpu = 0;
    std::uint64_t sent = 0;

    void add(const Slot& slot, SlotResult& result) {
        std::vector<double> latency = result.latency_us;
        std::vector<double> lag = result.send_lag_us;
        slot_p50.push_back(percentile(latency, 50));
        slot_lag_p99.push_back(percentile(lag, 99));
        slot_rate.push_back(static_cast<double>(result.completed_in_slot) / slot.seconds);
        latency_us.insert(latency_us.end(), latency.begin(), latency.end());
        send_lag_us.insert(send_lag_us.end(), lag.begin(), lag.end());
        for (const double share : result.cpu_share) {
            busiest_cpu = std::max(busiest_cpu, share);
        }
        sent += result.sent;
    }

    std::size_t best_latency_slot() const {
        return static_cast<std::size_t>(
            std::min_element(slot_p50.begin(), slot_p50.end()) - slot_p50.begin());
    }

    double p50() const { return slot_p50.empty() ? 0 : slot_p50[best_latency_slot()]; }

    bool on_schedule() const {
        return slot_p50.empty() ||
               slot_lag_p99[best_latency_slot()] <= 0.1 * slot_p50[best_latency_slot()];
    }

    double rate() const {
        return slot_rate.empty() ? 0 : *std::max_element(slot_rate.begin(), slot_rate.end());
    }
};

// --- /metrics -----------------------------------------------------------

/// One Prometheus exposition from the daemon's metrics port, as
/// name -> value (labelled series keep their labels in the name).
std::map<std::string, double> scrape(std::uint16_t port) {
    const int fd = connect_loopback(port);
    const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
    (void)!::send(fd, request, sizeof(request) - 1, MSG_NOSIGNAL);
    std::string body;
    char chunk[8192];
    for (;;) {
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, 5000) <= 0) break;
        const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got <= 0) break;
        body.append(chunk, static_cast<std::size_t>(got));
    }
    ::close(fd);
    std::map<std::string, double> values;
    std::size_t pos = body.find("\r\n\r\n");
    pos = pos == std::string::npos ? 0 : pos + 4;
    while (pos < body.size()) {
        const auto eol = body.find('\n', pos);
        const std::string line =
            body.substr(pos, eol == std::string::npos ? std::string::npos : eol - pos);
        pos = eol == std::string::npos ? body.size() : eol + 1;
        const auto space = line.rfind(' ');
        if (space == std::string::npos || line.empty() || line[0] == '#') continue;
        values[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
    }
    return values;
}

// --- set-up -------------------------------------------------------------

/// Op-id tag of the priming pass (no slot uses it).
constexpr std::uint64_t kPrimeTag = std::uint64_t{0xFFFFF} << kPhaseShift;

/// Sends every distinct request once, kClosedWindow in flight, and checks
/// each answer, so the daemon holds its per-document state (the parse
/// memo) before its memory is read.
void prime(WireConn& conn, const Inputs& inputs, Report& report) {
    const std::size_t n = inputs.requests.size();
    std::vector<char> answered(n, 0);
    std::vector<std::pair<std::string_view, int>> scratch;
    std::size_t sent = 0;
    std::size_t received = 0;
    const auto on_frame = [&](const wire::WireMessage& frame, Clock::time_point) {
        if (frame.type != wire::MsgType::kResponse) return;
        const auto& response = std::get<wire::Response>(frame.payload);
        const std::uint64_t i = (response.request_id & kOpMask) - 1;
        if ((response.request_id & ~kOpMask) != kPrimeTag || i >= n || answered[i] != 0) {
            ++report.failed;
            return;
        }
        answered[i] = 1;
        ++received;
        scratch.clear();
        for (const wire::Hit& hit : response.hits) {
            scratch.emplace_back(hit.service_name, hit.semantic_distance);
        }
        if (!same_answer(inputs.expected[i], response.satisfied, scratch)) ++report.failed;
    };
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (received < n && Clock::now() < deadline) {
        while (sent < n && sent - received < kClosedWindow) {
            wire::WireMessage message;
            message.type = wire::MsgType::kRequest;
            message.payload = wire::Request{kPrimeTag | (sent + 1), 0, inputs.requests[sent]};
            conn.stage(message);
            ++sent;
        }
        conn.flush();
        conn.read_frames(100, on_frame);
    }
    report.attempted += n;
    report.failed += n - received;
}

struct SetupSample {
    double seconds = 0;  ///< spawn to the last publish ack
    double rss_mb = 0;   ///< daemon VmHWM after the priming pass
};

/// Starts a daemon and publishes every service over one connection, all
/// acknowledged, then primes it (untimed) and reads its peak memory.
SetupSample set_up(const Inputs& inputs, const DaemonRunOptions& options,
                   const CpuSplit& cpus, std::unique_ptr<DaemonProcess>& daemon,
                   Report& report) {
    const auto start = Clock::now();
    daemon = std::make_unique<DaemonProcess>(options.daemon_path, inputs.seed,
                                             cpus.daemon);
    WireConn conn(daemon->port());
    const std::size_t n = inputs.services.size();
    std::vector<char> acked(n, 0);
    std::size_t received = 0;
    std::uint64_t wrong = 0;
    const auto on_frame = [&](const wire::WireMessage& frame, Clock::time_point) {
        if (frame.type != wire::MsgType::kPubAck) {
            if (frame.type == wire::MsgType::kPubNack) ++wrong;
            return;
        }
        const std::uint64_t id = std::get<wire::PubAck>(frame.payload).pub_id;
        if (id == 0 || id > n || acked[id - 1] != 0) {
            ++wrong;
            return;
        }
        acked[id - 1] = 1;
        ++received;
    };
    constexpr std::size_t kChunk = 256;
    for (std::size_t i = 0; i < n; ++i) {
        wire::WireMessage message;
        message.type = wire::MsgType::kPublish;
        message.payload = wire::PublishDoc{inputs.services[i], i + 1};
        conn.stage(message);
        if ((i + 1) % kChunk == 0 || i + 1 == n) {
            conn.flush();
            while (conn.read_frames(0, on_frame)) {
            }
        }
    }
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (received < n && Clock::now() < deadline) conn.read_frames(100, on_frame);
    SetupSample sample;
    sample.seconds = seconds_between(start, Clock::now());
    report.attempted += n;
    report.failed += wrong + (n - received);
    prime(conn, inputs, report);
    sample.rss_mb = vm_hwm_mb(daemon->pid());
    return sample;
}

void note_phase(Report& report, Phase phase, double rate, const PhaseStats& stats) {
    std::vector<double> latency = stats.latency_us;
    std::vector<double> lag = stats.send_lag_us;
    const LatencySummary l = summarize(latency);
    std::string line =
        (phase == Phase::kSaturation
             ? format("closed loop 2x%.0f in flight", kClosedWindow)
             : format("open loop %.0f ops/s", rate)) +
        ", " + std::to_string(stats.slot_p50.size()) + " slots, " +
        std::to_string(l.samples) + " samples: p50 " + format("%.1f", l.p50) +
        " us, p99 " + format("%.1f", l.p99) + " us, p99.9 " + format("%.1f", l.p999) +
        " us, max " + format("%.0f", l.max) + " us";
    if (phase == Phase::kSaturation) {
        line += "; best slot " + format("%.0f", stats.rate()) + " ops/s";
    } else {
        const LatencySummary g = summarize(lag);
        line += "; best slot p50 " + format("%.1f", stats.p50()) + " us, its send-lag p99 " +
                format("%.2f", stats.slot_lag_p99[stats.best_latency_slot()]) +
                " us; send lag p50 " + format("%.2f", g.p50) + " us, p99 " +
                format("%.2f", g.p99) + " us";
    }
    line += "; busiest client thread " + format("%.0f%%", 100 * stats.busiest_cpu);
    line += phase == Phase::kSaturation ? "; slot rates" : "; slot p50s";
    for (const double v : phase == Phase::kSaturation ? stats.slot_rate : stats.slot_p50) {
        line += format(" %.1f", v);
    }
    line += "; daemon cpu";
    for (const double v : stats.daemon_cpu) line += format(" %.2f", v);
    report.note(std::string("phase.") + phase_name(phase), line);
}

}  // namespace

void run_daemon_workload(const Inputs& inputs, const DaemonRunOptions& options,
                         const CpuSplit& cpus, Report& report) {
    // Set-up, repeated; the daemon of the last set-up serves the phases.
    std::unique_ptr<DaemonProcess> daemon;
    std::vector<double> setups;
    std::vector<double> rss;
    while (want_another_setup(setups, options.traced)) {
        if (daemon) {
            if (daemon->stop() != 0) report.fail_run("daemon did not exit cleanly");
            daemon.reset();
        }
        const SetupSample sample = set_up(inputs, options, cpus, daemon, report);
        setups.push_back(sample.seconds);
        rss.push_back(sample.rss_mb);
    }
    std::string setup_list;
    for (std::size_t i = 0; i < setups.size(); ++i) {
        setup_list += format("%.4f s", setups[i]) + format(" (%.2f MiB) ", rss[i]);
    }
    report.note("setup.samples", setup_list);

    std::array<std::unique_ptr<WireConn>, kClientThreads> conns;
    for (auto& conn : conns) conn = std::make_unique<WireConn>(daemon->port());

    // The schedule: warm-up, then kRounds rounds of (low, mid, saturation)
    // slots drawing consecutive slices of the one operation stream.
    const double slot_s = options.seconds / (3.0 * kRounds);
    const double mid_rate = inputs.spec->mid_rate;
    std::vector<Slot> schedule;
    schedule.push_back({Phase::kWarmup, 1, 0, mid_rate, kWarmupSeconds, {}});
    for (std::size_t r = 0; r < kRounds; ++r) {
        schedule.push_back({Phase::kLow, 0, 0, kLowRate, slot_s, {}});
        schedule.push_back({Phase::kMid, 0, 0, mid_rate, slot_s, {}});
        schedule.push_back({Phase::kSaturation, 0, 0, 0, slot_s, {}});
    }
    std::uint64_t offset = 0;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        Slot& slot = schedule[i];
        slot.id = static_cast<std::uint32_t>(i + 1);
        slot.first_op = offset;
        // A closed-loop slot sends as fast as the daemon answers; its
        // slice is bounded by what two connections can complete.
        const double bound = slot.open_loop() ? slot.rate : 2e6;
        offset += static_cast<std::uint64_t>(slot.seconds * bound) + 1;
    }

    std::map<Phase, PhaseStats> phases;
    std::map<std::string, double> first_scrape;
    for (Slot& slot : schedule) {
        if (slot.phase != Phase::kWarmup && first_scrape.empty()) {
            first_scrape = scrape(daemon->metrics_port());
        }
        const double cpu_before = on_cpu_seconds(daemon->pid());
        const auto wall_before = Clock::now();
        SlotResult result = run_slot(conns, inputs, slot);
        phases[slot.phase].daemon_cpu.push_back(
            (on_cpu_seconds(daemon->pid()) - cpu_before) /
            seconds_between(wall_before, Clock::now()));
        report.attempted += result.sent;
        report.failed += result.wrong + result.missing;
        phases[slot.phase].add(slot, result);
    }
    const std::map<std::string, double> last_scrape = scrape(daemon->metrics_port());

    for (const Phase phase : {Phase::kWarmup, Phase::kLow, Phase::kMid, Phase::kSaturation}) {
        note_phase(report, phase, phase == Phase::kLow ? kLowRate : mid_rate,
                   phases[phase]);
    }
    for (const Phase phase : {Phase::kLow, Phase::kMid}) {
        PhaseStats& stats = phases[phase];
        const std::string name = phase_name(phase);
        report.add(MetricKind::kEndToEnd, "p50_us_" + name, stats.p50(), "us");
        std::vector<double> latency = stats.latency_us;
        std::vector<double> lag = stats.send_lag_us;
        report.add(MetricKind::kInfo, "p99_us_" + name, percentile(latency, 99), "us");
        report.add(MetricKind::kInfo, "p999_us_" + name, percentile(latency, 99.9), "us");
        report.add(MetricKind::kInfo, "loadgen.send_lag_us_p50_" + name,
                   percentile(lag, 50), "us");
        report.add(MetricKind::kInfo, "loadgen.send_lag_us_p99_" + name,
                   percentile(lag, 99), "us");
        if (!stats.on_schedule()) {
            report.note("validity." + name,
                        "the best slot's send-lag p99 exceeds 10% of its p50");
            report.generator_late = true;
        }
    }
    PhaseStats& saturation = phases[Phase::kSaturation];
    report.add(MetricKind::kEndToEnd, "capacity_ops_s", saturation.rate(),
               "ops/s");
    report.add(MetricKind::kInfo, "loadgen.cpu_util_saturation", saturation.busiest_cpu,
               "fraction");
    if (saturation.busiest_cpu > 0.8) {
        report.note("validity.saturation",
                    "a client thread used " + format("%.0f%%", 100 * saturation.busiest_cpu) +
                        " of a core: the generator, not the daemon, set the rate");
        report.generator_late = true;
    }
    report.add(MetricKind::kEndToEnd, "setup_s", median(setups), "s");
    report.add(MetricKind::kEndToEnd, "rss_mb", median(rss), "MiB");
    report.add(MetricKind::kInfo, "rss_mb_after_load", vm_hwm_mb(daemon->pid()), "MiB");

    // Transport counters over the timed slots, per operation sent.
    std::uint64_t timed_ops = 0;
    for (const auto& [phase, stats] : phases) {
        if (phase != Phase::kWarmup) timed_ops += stats.sent;
    }
    const double ops = timed_ops > 0 ? static_cast<double>(timed_ops) : 1;
    const auto delta = [&](const std::string& series) {
        const auto a = last_scrape.find(series);
        const auto b = first_scrape.find(series);
        return (a == last_scrape.end() ? 0 : a->second) -
               (b == first_scrape.end() ? 0 : b->second);
    };
    report.add(MetricKind::kLayer, "transport.frames_received_per_op",
               delta("sariadne_transport_frames_received_total") / ops, "count");
    report.add(MetricKind::kLayer, "transport.frames_sent_per_op",
               delta("sariadne_transport_frames_sent_total") / ops, "count");
    report.add(MetricKind::kLayer, "transport.bytes_sent_per_op",
               delta("sariadne_transport_bytes_sent_total") / ops, "bytes");
    report.add(MetricKind::kLayer, "protocol.forwards_per_request",
               delta("sariadne_protocol_forwards_total") / ops, "count");
    report.add(MetricKind::kLayer, "protocol.bloom_false_positives_per_request",
               delta("sariadne_protocol_bloom_false_positives_total") / ops, "count");
    report.add(MetricKind::kInfo, "transport.backpressure_drops",
               delta("sariadne_transport_backpressure_drops_total"), "count");
    report.add(MetricKind::kInfo, "transport.decode_errors",
               delta("sariadne_transport_decode_errors_total"), "count");

    for (auto& conn : conns) conn.reset();
    const int status = daemon->stop();
    if (status != 0) {
        report.fail_run("daemon exited with status " + std::to_string(status));
    }
}

}  // namespace perfbench
