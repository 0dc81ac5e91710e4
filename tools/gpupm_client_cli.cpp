/**
 * @file
 * gpupm-client: load generator and protocol checker for `gpupm serve`.
 *
 * Opens N tenant sessions spread round-robin over C TCP connections,
 * keeps exactly one Step in flight per session (the same closed-loop
 * discipline as the in-process fleet driver), and measures client-side
 * request latency. On exit it asks the server for its counters and
 * prints p50/p95/p99 step latency plus the reject breakdown.
 *
 * --verify turns the generator into a determinism checker: sessions
 * that opened the same benchmark with the same run count must stream
 * bit-identical decisions (the wire carries IEEE-754 bit patterns, so
 * equality is exact, not approximate). Any divergence - or any
 * protocol error - makes the exit code nonzero, which is what the CI
 * serve-smoke job keys off.
 *
 * Single-threaded: one poll() loop owns every socket. Rejects with
 * reason QueueFull are retried on the next round trip, so a shedding
 * server slows the client down instead of failing it.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/flags.hpp"
#include "serve/wire.hpp"
#include "workload/benchmarks.hpp"

using namespace gpupm;
using namespace gpupm::serve;

namespace {

using Clock = std::chrono::steady_clock;

struct ClientSession
{
    std::uint64_t tenant = 0;
    std::string bench;
    /** Catalog hardware-model name; empty = server default. */
    std::string hwModel;
    /** Deadline slack factor; 0 = uniform-alpha QoS. */
    double deadline = 0.0;
    std::size_t conn = 0;
    std::uint64_t id = 0; ///< Server-assigned; 0 until Opened.
    std::uint32_t remaining = 0;
    bool inflight = false;
    bool done = false;
    Clock::time_point stepSent{};
    /** Decision stream for --verify (session field zeroed). */
    std::vector<wire::DecisionMsg> decisions;
};

struct Conn
{
    int fd = -1;
    wire::FrameReader reader;
    std::vector<std::uint8_t> writeBuf;
};

int
connectTo(const std::string &host, std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        std::cerr << "socket() failed: " << std::strerror(errno)
                  << "\n";
        return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        std::cerr << "invalid host '" << host << "'\n";
        ::close(fd);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        std::cerr << "connect(" << host << ":" << port
                  << ") failed: " << std::strerror(errno) << "\n";
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

double
percentileNs(std::vector<std::uint64_t> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank =
        p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return static_cast<double>(sorted[lo]) * (1.0 - frac) +
           static_cast<double>(sorted[hi]) * frac;
}

/** Decision equality for --verify: exact, including float bits. */
bool
sameDecision(const wire::DecisionMsg &a, const wire::DecisionMsg &b)
{
    const auto bits = [](double v) {
        std::uint64_t u;
        std::memcpy(&u, &v, sizeof(u));
        return u;
    };
    return a.run == b.run && a.index == b.index &&
           a.configIndex == b.configIndex &&
           a.kernelTag == b.kernelTag && a.degraded == b.degraded &&
           bits(a.kernelTime) == bits(b.kernelTime) &&
           bits(a.overheadTime) == bits(b.overheadTime) &&
           bits(a.cpuEnergy) == bits(b.cpuEnergy) &&
           bits(a.gpuEnergy) == bits(b.gpuEnergy) &&
           a.evaluations == b.evaluations;
}

std::vector<std::string>
splitCommaList(const std::string &s)
{
    std::vector<std::string> out;
    std::string item;
    for (char c : s) {
        if (c == ',') {
            if (!item.empty())
                out.push_back(item);
            item.clear();
        } else {
            item.push_back(c);
        }
    }
    if (!item.empty())
        out.push_back(item);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagParser flags(
        "gpupm-client: closed-loop load generator for gpupm serve");
    flags.addString("connect", "127.0.0.1:7070", "server host:port");
    flags.addInt("sessions", 8, "tenant sessions to open", 1, 1 << 20);
    flags.addInt("connections", 2, "TCP connections to spread over", 1,
                 4096);
    flags.addString("bench", "all",
                    "benchmark name, comma list, or 'all' (assigned "
                    "round-robin over sessions)");
    flags.addInt("runs", 2, "MPC executions after profiling", 1, 10000);
    flags.addInt("steps", 0,
                 "cap steps per session (0 = play every session to "
                 "completion)",
                 0, 1 << 24);
    flags.addBool("verify",
                  "require bit-identical decision streams from "
                  "same-benchmark sessions (exit nonzero on mismatch)");
    flags.addString("hw-models", "",
                    "comma list of catalog hardware-model names "
                    "assigned round-robin over sessions (empty = "
                    "server default; heterogeneous fleets)");
    flags.addString("deadlines", "",
                    "comma list of deadline slack factors assigned "
                    "round-robin over sessions (0 entries keep "
                    "uniform-alpha QoS)");
    flags.addBool("legacy-open",
                  "send version-1 Open frames (no model/QoS tail; "
                  "protocol-compatibility testing)");
    flags.addBool("quiet", "suppress the per-run summary");
    if (!flags.parse(argc, argv)) {
        std::cerr << (flags.helpRequested() ? "" : flags.error() + "\n")
                  << flags.usage();
        return flags.helpRequested() ? 0 : 2;
    }

    const std::string target = flags.getString("connect");
    const auto colon = target.rfind(':');
    if (colon == std::string::npos) {
        std::cerr << "--connect wants host:port\n";
        return 2;
    }
    const std::string host = target.substr(0, colon);
    const int port = std::atoi(target.c_str() + colon + 1);
    if (port <= 0 || port > 65535) {
        std::cerr << "invalid port in --connect '" << target << "'\n";
        return 2;
    }

    std::vector<std::string> benches;
    if (flags.getString("bench") == "all")
        benches = workload::benchmarkNames();
    else
        benches = splitCommaList(flags.getString("bench"));
    if (benches.empty()) {
        std::cerr << "no benchmarks given\n";
        return 2;
    }

    const auto nSessions =
        static_cast<std::size_t>(flags.getInt("sessions"));
    const auto nConns = std::min(
        static_cast<std::size_t>(flags.getInt("connections")),
        nSessions);
    const auto stepCap =
        static_cast<std::uint32_t>(flags.getInt("steps"));
    const bool verify = flags.getBool("verify");

    std::vector<Conn> conns(nConns);
    for (std::size_t i = 0; i < nConns; ++i) {
        conns[i].fd =
            connectTo(host, static_cast<std::uint16_t>(port));
        if (conns[i].fd < 0)
            return 1;
    }

    const auto hwModels =
        splitCommaList(flags.getString("hw-models"));
    std::vector<double> deadlines;
    for (const auto &d : splitCommaList(flags.getString("deadlines"))) {
        char *end = nullptr;
        const double factor = std::strtod(d.c_str(), &end);
        if (end == d.c_str() || *end != '\0' || factor < 0.0) {
            std::cerr << "--deadlines entries must be non-negative "
                         "numbers, got '"
                      << d << "'\n";
            return 2;
        }
        deadlines.push_back(factor);
    }
    const bool legacyOpen = flags.getBool("legacy-open");
    if (legacyOpen && (!hwModels.empty() || !deadlines.empty())) {
        std::cerr << "--legacy-open cannot carry --hw-models or "
                     "--deadlines (v1 frames have no tail)\n";
        return 2;
    }

    std::vector<ClientSession> sessions(nSessions);
    std::map<std::uint64_t, std::size_t> byId; // server id -> index
    for (std::size_t i = 0; i < nSessions; ++i) {
        auto &s = sessions[i];
        s.tenant = i + 1;
        s.bench = benches[i % benches.size()];
        if (!hwModels.empty())
            s.hwModel = hwModels[i % hwModels.size()];
        if (!deadlines.empty())
            s.deadline = deadlines[i % deadlines.size()];
        s.conn = i % nConns;
        wire::OpenMsg open;
        open.tenant = s.tenant;
        open.optimizedRuns =
            static_cast<std::uint32_t>(flags.getInt("runs"));
        open.bench = s.bench;
        if (legacyOpen)
            open.version = 1;
        open.hwModel = s.hwModel;
        if (s.deadline > 0.0) {
            open.qosKind = wire::WireQosKind::Deadline;
            open.qosValue = s.deadline;
        }
        wire::encodeOpen(conns[s.conn].writeBuf, open);
    }

    std::vector<std::uint64_t> latencies;
    std::uint64_t rejectsQueueFull = 0;
    std::uint64_t decisionsSeen = 0;
    bool protocolFailure = false;
    bool statsRequested = false;
    wire::StatsMsg serverStats;
    bool statsReceived = false;
    std::size_t doneSessions = 0;
    const auto started = Clock::now();

    auto sendStep = [&](ClientSession &s) {
        wire::StepMsg step;
        step.session = s.id;
        wire::encodeStep(conns[s.conn].writeBuf, step);
        s.inflight = true;
        s.stepSent = Clock::now();
    };

    auto finishSession = [&](ClientSession &s) {
        if (!s.done) {
            s.done = true;
            ++doneSessions;
        }
    };

    auto handleFrame = [&](std::size_t connIdx,
                           const wire::Frame &frame) {
        switch (frame.type) {
        case wire::MsgType::Opened: {
            const auto m = wire::decodeOpened(frame.payload);
            if (!m || m->tenant == 0 ||
                m->tenant > sessions.size()) {
                protocolFailure = true;
                return;
            }
            auto &s = sessions[m->tenant - 1];
            s.id = m->session;
            s.remaining = stepCap > 0
                              ? std::min(stepCap, m->totalDecisions)
                              : m->totalDecisions;
            byId[s.id] = m->tenant - 1;
            if (s.remaining == 0)
                finishSession(s);
            else
                sendStep(s);
            return;
        }
        case wire::MsgType::Decision: {
            const auto m = wire::decodeDecision(frame.payload);
            if (!m || byId.count(m->session) == 0) {
                protocolFailure = true;
                return;
            }
            auto &s = sessions[byId[m->session]];
            latencies.push_back(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - s.stepSent)
                    .count()));
            s.inflight = false;
            ++decisionsSeen;
            if (s.remaining > 0)
                --s.remaining;
            if (verify) {
                wire::DecisionMsg d = *m;
                d.session = 0;
                s.decisions.push_back(d);
            }
            if (s.remaining > 0)
                sendStep(s);
            else
                finishSession(s);
            return;
        }
        case wire::MsgType::Reject: {
            const auto m = wire::decodeReject(frame.payload);
            if (!m) {
                protocolFailure = true;
                return;
            }
            if (m->reason == wire::RejectReason::QueueFull &&
                byId.count(m->session) != 0) {
                // Load shed at admission: retry on the next loop.
                ++rejectsQueueFull;
                sendStep(sessions[byId[m->session]]);
                return;
            }
            if (m->reason == wire::RejectReason::Finished &&
                byId.count(m->session) != 0) {
                auto &s = sessions[byId[m->session]];
                s.inflight = false;
                finishSession(s);
                return;
            }
            std::cerr << "fatal reject: session " << m->session
                      << " reason "
                      << static_cast<int>(m->reason) << "\n";
            protocolFailure = true;
            return;
        }
        case wire::MsgType::Stats: {
            const auto m = wire::decodeStats(frame.payload);
            if (!m) {
                protocolFailure = true;
                return;
            }
            serverStats = *m;
            statsReceived = true;
            return;
        }
        case wire::MsgType::Error: {
            const auto m = wire::decodeError(frame.payload);
            std::cerr << "server error: "
                      << (m ? m->message : "<undecodable>") << "\n";
            protocolFailure = true;
            return;
        }
        default:
            (void)connIdx;
            protocolFailure = true;
            return;
        }
    };

    // One poll loop drives opens, steps, the final stats exchange.
    while (!protocolFailure) {
        if (doneSessions == sessions.size() && !statsRequested) {
            wire::encodeStatsReq(conns[0].writeBuf);
            statsRequested = true;
        }
        if (statsReceived)
            break;

        std::vector<pollfd> fds(conns.size());
        for (std::size_t i = 0; i < conns.size(); ++i) {
            fds[i].fd = conns[i].fd;
            fds[i].events = POLLIN;
            if (!conns[i].writeBuf.empty())
                fds[i].events |= POLLOUT;
        }
        const int n = ::poll(fds.data(),
                             static_cast<nfds_t>(fds.size()), 10000);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            std::cerr << (n == 0 ? "timeout waiting for the server\n"
                                 : "poll() failed\n");
            protocolFailure = true;
            break;
        }
        for (std::size_t i = 0; i < conns.size(); ++i) {
            if ((fds[i].revents & (POLLERR | POLLHUP)) != 0) {
                std::cerr << "connection " << i << " dropped\n";
                protocolFailure = true;
                break;
            }
            if ((fds[i].revents & POLLOUT) != 0 &&
                !conns[i].writeBuf.empty()) {
                const ssize_t w = ::send(
                    conns[i].fd, conns[i].writeBuf.data(),
                    conns[i].writeBuf.size(), MSG_NOSIGNAL);
                if (w > 0)
                    conns[i].writeBuf.erase(
                        conns[i].writeBuf.begin(),
                        conns[i].writeBuf.begin() + w);
                else if (w < 0 && errno != EAGAIN &&
                         errno != EWOULDBLOCK) {
                    protocolFailure = true;
                    break;
                }
            }
            if ((fds[i].revents & POLLIN) != 0) {
                std::uint8_t buf[65536];
                const ssize_t r =
                    ::recv(conns[i].fd, buf, sizeof(buf), 0);
                if (r <= 0) {
                    std::cerr << "connection " << i << " closed\n";
                    protocolFailure = true;
                    break;
                }
                conns[i].reader.append(
                    buf, static_cast<std::size_t>(r));
                while (auto frame = conns[i].reader.next()) {
                    handleFrame(i, *frame);
                    if (protocolFailure)
                        break;
                }
                if (conns[i].reader.corrupt())
                    protocolFailure = true;
            }
            if (protocolFailure)
                break;
        }
    }

    const double wall =
        std::chrono::duration<double>(Clock::now() - started).count();
    for (auto &c : conns)
        if (c.fd >= 0)
            ::close(c.fd);

    // --verify: same (bench, runs) => bit-identical decision stream.
    bool verifyFailed = false;
    if (verify && !protocolFailure) {
        // Identical streams are only promised for sessions with the
        // same benchmark AND the same hardware model and QoS.
        std::map<std::string, std::size_t> reference;
        for (std::size_t i = 0; i < sessions.size(); ++i) {
            const auto &s = sessions[i];
            const std::string key = s.bench + "|" + s.hwModel + "|" +
                                    std::to_string(s.deadline);
            auto [it, fresh] = reference.emplace(key, i);
            if (fresh)
                continue;
            const auto &ref = sessions[it->second];
            bool same = ref.decisions.size() == s.decisions.size();
            for (std::size_t k = 0; same && k < s.decisions.size();
                 ++k)
                same = sameDecision(ref.decisions[k], s.decisions[k]);
            if (!same) {
                std::cerr << "verify FAILED: sessions " << ref.id
                          << " and " << s.id << " (bench " << s.bench
                          << ") diverged\n";
                verifyFailed = true;
            }
        }
    }

    if (!flags.getBool("quiet")) {
        std::sort(latencies.begin(), latencies.end());
        std::cout << "client: " << decisionsSeen << " decisions over "
                  << sessions.size() << " sessions, "
                  << rejectsQueueFull << " queue-full retries\n";
        std::cout << "latency: p50 "
                  << percentileNs(latencies, 50.0) / 1e3 << " us, p95 "
                  << percentileNs(latencies, 95.0) / 1e3 << " us, p99 "
                  << percentileNs(latencies, 99.0) / 1e3 << " us\n";
        if (wall > 0.0)
            std::cout << "throughput: "
                      << static_cast<double>(decisionsSeen) / wall
                      << " decisions/s\n";
        if (statsReceived) {
            std::cout << "server counters:\n";
            std::map<std::string, std::uint64_t> counters;
            for (const auto &[key, value] : serverStats.entries) {
                std::cout << "  " << key << " = " << value << "\n";
                counters[key] = value;
            }
            if (serverStats.fleetBudgetWatts > 0.0) {
                std::cout << "powercap: budget "
                          << serverStats.fleetBudgetWatts
                          << " W, violations "
                          << counters["powercap.violations"]
                          << ", arbiter ticks "
                          << counters["powercap.arbiter_ticks"] << "\n";
            }
            if (const auto misses = counters["serve.deadline_misses"])
                std::cout << "deadline misses: " << misses << "\n";
        }
        if (verify && !verifyFailed && !protocolFailure)
            std::cout << "verify: OK (same-benchmark sessions are "
                         "bit-identical)\n";
    }

    return (protocolFailure || verifyFailed) ? 1 : 0;
}
