// sariadne_daemon — a networked S-Ariadne directory node. Hosts
// DiscoveryNetwork node 0 (appointed directory) on an EventLoopTransport:
// remote peers connect over TCP, speak the wire codec (u32-LE length
// prefix + ariadne/wire datagram), publish Amigo-S descriptions and issue
// requests; the daemon answers on the same connection. A second,
// optional listener serves the metrics registry in Prometheus text
// exposition.
//
// Usage:
//   sariadne_daemon [options]
//     --port P          TCP port to serve (default 0 = ephemeral; the
//                       bound port is printed on stdout either way)
//     --metrics-port P  serve GET /metrics in Prometheus text format
//                       (default: off)
//     --connections N   peer slots (default 64)
//     --universe N      ontologies in the synthetic universe (default 6)
//     --classes N       classes per ontology (default 24)
//     --seed S          universe generation seed (default 20060426);
//                       a client must use the same universe flags so its
//                       requests resolve against the daemon's ontologies
//     --drain-ms D      shutdown write-flush grace (default 500)
//
// Shutdown: SIGTERM or SIGINT triggers the transport's drain — the
// listener closes, pending send buffers flush for at most --drain-ms,
// connections close, and the process exits 0 after printing its
// transport.* frame, send-call and byte counters. The signal handler only
// write(2)s one byte to the transport's stop fd (async-signal-safe); all
// real work happens on the loop thread.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>

#include "ariadne/protocol.hpp"
#include "reasoner/knowledge_base.hpp"
#include "net/event_loop.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "support/errors.hpp"
#include "workload/ontology_gen.hpp"
#include "workload/service_gen.hpp"

namespace {

using namespace sariadne;

// Written once before signals are installed, then only read from the
// handler. volatile sig_atomic_t is not needed for the fd value itself —
// it is constant by the time a signal can arrive — but keeps the intent
// obvious.
volatile int g_stop_fd = -1;

void on_signal(int) {
    const char byte = 'q';
    if (g_stop_fd >= 0) {
        // Best effort: a full pipe means a stop is already pending.
        (void)!write(g_stop_fd, &byte, 1);
    }
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--port P] [--metrics-port P] [--connections N] "
                 "[--universe N] [--classes N] [--seed S] [--drain-ms D]\n",
                 argv0);
    return 2;
}

/// Minimal blocking HTTP/1.0 responder for the metrics port: accepts,
/// ignores the request bytes, answers one Prometheus exposition, closes.
/// Runs on its own thread; MetricsRegistry::to_prometheus() locks
/// internally (rank kMetricsRegistry), so concurrent reads against the
/// loop thread's counter updates are safe.
class MetricsServer {
public:
    MetricsServer(std::uint16_t port, const obs::MetricsRegistry& registry)
        : registry_(registry) {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (listen_fd_ < 0) throw Error("metrics: socket() failed");
        const int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listen_fd_, 8) != 0) {
            ::close(listen_fd_);
            throw Error("metrics: cannot listen on port " +
                        std::to_string(port));
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
        port_ = ntohs(bound.sin_port);
        thread_ = std::thread([this] { serve(); });
    }

    ~MetricsServer() {
        stop_ = true;
        if (thread_.joinable()) thread_.join();
        if (listen_fd_ >= 0) ::close(listen_fd_);
    }

    std::uint16_t port() const noexcept { return port_; }

private:
    void serve() {
        while (!stop_) {
            pollfd pfd{listen_fd_, POLLIN, 0};
            const int ready = ::poll(&pfd, 1, 200);
            if (ready <= 0) continue;  // timeout -> re-check stop_
            const int client = ::accept(listen_fd_, nullptr, nullptr);
            if (client < 0) continue;
            char sink[1024];
            (void)!::recv(client, sink, sizeof(sink), MSG_DONTWAIT);
            const std::string body = registry_.to_prometheus();
            std::string reply =
                "HTTP/1.0 200 OK\r\n"
                "Content-Type: text/plain; version=0.0.4\r\n"
                "Content-Length: " +
                std::to_string(body.size()) + "\r\n\r\n" + body;
            std::size_t off = 0;
            while (off < reply.size()) {
                const ssize_t sent = ::send(client, reply.data() + off,
                                            reply.size() - off, MSG_NOSIGNAL);
                if (sent <= 0) break;
                off += static_cast<std::size_t>(sent);
            }
            ::close(client);
        }
    }

    const obs::MetricsRegistry& registry_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::thread thread_;
    // Plain bool: written by the destructor, read by the poll loop whose
    // 200 ms timeout bounds staleness; atomicity is irrelevant for a
    // monotone shutdown flag on this scale, and the join provides the
    // needed ordering for destruction.
    volatile bool stop_ = false;
};

}  // namespace

int main(int argc, char** argv) {
    std::uint16_t port = 0;
    std::uint16_t metrics_port = 0;
    bool serve_metrics = false;
    std::size_t connections = 64;
    std::size_t universe = 6;
    std::size_t classes = 24;
    std::uint64_t seed = 20060426;
    double drain_ms = 500;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag.c_str());
                std::exit(usage(argv[0]));
            }
            return argv[++i];
        };
        if (flag == "--port") {
            port = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 10));
        } else if (flag == "--metrics-port") {
            metrics_port =
                static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 10));
            serve_metrics = true;
        } else if (flag == "--connections") {
            connections = std::strtoul(next(), nullptr, 10);
        } else if (flag == "--universe") {
            universe = std::strtoul(next(), nullptr, 10);
        } else if (flag == "--classes") {
            classes = std::strtoul(next(), nullptr, 10);
        } else if (flag == "--seed") {
            seed = std::strtoull(next(), nullptr, 10);
        } else if (flag == "--drain-ms") {
            drain_ms = std::strtod(next(), nullptr);
        } else {
            return usage(argv[0]);
        }
    }

    try {
        obs::MetricsRegistry registry;

        // The daemon's semantic universe mirrors the CLI's --simulate
        // scenario: a deterministic ontology set both sides can
        // regenerate from the seed, so a client with matching flags
        // produces documents the directory resolves.
        workload::OntologyGenConfig onto_config;
        onto_config.class_count = classes;
        workload::ServiceWorkload workload(
            workload::generate_universe(universe, onto_config, seed));
        encoding::KnowledgeBase kb;
        for (const auto& ontology : workload.ontologies()) {
            kb.register_ontology(ontology);
        }

        net::EventLoopConfig loop_config;
        loop_config.port = port;
        loop_config.max_connections = connections;
        auto transport = std::make_unique<net::EventLoopTransport>(loop_config);
        net::EventLoopTransport& loop = *transport;

        // Directory behaviour only — elections, advertisement timeouts and
        // client-side retry machinery are the mesh deployment's concern
        // (network.start()), not the hosted star's: node 0 is appointed
        // once and every peer slot is a remote client.
        ariadne::ProtocolConfig config;
        ariadne::DiscoveryNetwork network(std::move(transport), config, kb,
                                          &registry);
        network.appoint_directory(0);

        g_stop_fd = loop.stop_fd();
        struct sigaction action {};
        action.sa_handler = on_signal;
        ::sigaction(SIGTERM, &action, nullptr);
        ::sigaction(SIGINT, &action, nullptr);
        // A peer resetting mid-write must surface as EPIPE, not kill us.
        ::signal(SIGPIPE, SIG_IGN);

        std::unique_ptr<MetricsServer> metrics_server;
        if (serve_metrics) {
            metrics_server =
                std::make_unique<MetricsServer>(metrics_port, registry);
        }

        std::printf("sariadne_daemon: listening on 127.0.0.1:%u "
                    "(%zu peer slots, %zu ontologies)\n",
                    loop.local_port(), connections, universe);
        if (metrics_server) {
            std::printf("sariadne_daemon: metrics on 127.0.0.1:%u\n",
                        metrics_server->port());
        }
        std::fflush(stdout);

        loop.run_until_stopped(drain_ms);
        metrics_server.reset();

        const auto count = [&registry](std::string_view name) {
            return static_cast<unsigned long long>(
                registry.counter_value(name));
        };
        std::printf(
            "sariadne_daemon: stopped; %llu frames received, %llu frames "
            "sent in %llu send calls, %llu bytes received, %llu bytes "
            "sent\n",
            count(obs::names::kTransportFramesReceived),
            count(obs::names::kTransportFramesSent),
            count(obs::names::kTransportSendCalls),
            count(obs::names::kTransportBytesReceived),
            count(obs::names::kTransportBytesSent));
        return 0;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "sariadne_daemon: %s\n", error.what());
        return 1;
    }
}
