/**
 * @file
 * The wire-served workloads, serve-steady and serve-churn.
 *
 * Both host the sharded FleetServer and its epoll NetServer in this
 * process (2 workers, 1 event loop) and drive them over loopback from
 * one client loop on the main thread, speaking the wire protocol
 * exactly as gpupm-client does.
 *
 * serve-steady is an open loop: 64 long-lived tenants on the regular
 * repeating apps mandelbulbGPU and NBody, each stepping on its own
 * fixed cadence (evenly spaced phases) for a fixed offered rate. A step's
 * latency counts from when it was due. Measurement starts after every
 * tenant has played its profiling run and first optimized run, so the
 * per-session memos answer almost every query and the latency is the
 * wire, the event loop, the request queue and session checkout.
 *
 * serve-churn is a closed loop: each of 32 slots plays a fresh tenant
 * (a seeded draw from the 15 paper benchmarks, profiling run plus two
 * optimized runs) and opens the next one when it finishes. A fleet
 * power budget below the live tenants' uncapped demand and load
 * shedding are armed. Measurement starts once the session LRU is full
 * and evicting, so memos miss and cold hill climbs, forest walks,
 * broker coalescing, inline Opens, eviction and cap arbitration carry
 * the load.
 *
 * Served quality: every decision of an optimized run is charged its
 * energy and time (kernel plus exposed decision overhead) against the
 * same invocation under Turbo Core, simulated here once before set-up.
 * serve-steady takes it from the warm-up's first optimized runs, which
 * are deterministic; serve-churn from the measured phase.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.hpp"
#include "common/rng.hpp"
#include "hw/model.hpp"
#include "policy/turbo_core.hpp"
#include "serve/net_server.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/simulator.hpp"
#include "trace/decision.hpp"
#include "trace/trace.hpp"
#include "workload/benchmarks.hpp"

namespace perfbench {
namespace {

using namespace gpupm;
using serve::SessionId;
namespace wire = serve::wire;

/** Client connections, and server workers draining the queue. */
constexpr std::size_t kConnections = 2;
constexpr std::size_t kWorkers = 2;

struct ServeShape
{
    bool churn = false;
    /** Tenants (steady) or tenant slots (churn). */
    std::size_t tenants = 0;
    /** Optimized runs each tenant plays after its profiling run. */
    std::uint32_t runs = 0;
    /** Open-loop offered rate in decisions per second (steady). */
    double rate = 0.0;
    /** Per-shard resident-session LRU cap. */
    std::size_t maxSessions = 4096;
    /** Fleet power budget in watts; 0 = uncapped. */
    double budgetWatts = 0.0;
    bool shed = false;
};

ServeShape
steadyShape()
{
    ServeShape s;
    s.tenants = 64;
    // Far more runs than any measurement reaches: tenants never finish.
    s.runs = 100000;
    // A sixth of the closed-loop capacity of 2 workers on a shared
    // 4-core host (75k/s), so latency reflects service time rather
    // than backlog even while the host is slowed: at 30k/s, runs on a
    // slowed host fell behind and queued.
    s.rate = 12000.0;
    return s;
}

ServeShape
churnShape()
{
    ServeShape s;
    s.churn = true;
    s.tenants = 32;
    s.runs = 2;
    s.maxSessions = 256;
    // About 0.7x the uncapped demand of 32 live paper-apu tenants (the
    // 15 benchmarks' Turbo Core baselines average about 43 W).
    s.budgetWatts = 960.0;
    s.shed = true;
    return s;
}

/**
 * Open-loop (serve-steady) window of the end-to-end measurement, 2400
 * steps. On a shared host, stalls come in bursts that spoil a few
 * short windows at a time; the median over many short windows reads
 * the service, not the neighbours.
 */
constexpr double kWindowSeconds = 0.2;
/**
 * Steps in a closed-loop (serve-churn) window: each window's p99 then
 * has 20 steps beyond it however fast the host runs.
 */
constexpr std::uint64_t kWindowSteps = 2000;
/** Open-loop chunk of the traced run's halves (closed-loop chunks are
 *  kWindowSteps steps, about as long). */
constexpr double kChunkSeconds = 0.5;
/**
 * Unmeasured lead-in of a traced chunk: every thread records its first
 * span, and so allocates its span ring, before the measured window.
 */
constexpr double kPrimeSeconds = 0.02;
/** Per-thread span ring of a traced chunk (a serve-steady chunk
 *  records about 12k spans on the client thread). */
constexpr std::size_t kTraceCapacity = std::size_t{1} << 17;
/** A window with no frame for this long is a stall (a failed run). */
constexpr double kStallSeconds = 10.0;

/** FleetServer + NetServer, the event loop on its own thread. */
struct ServerRig
{
    ServerRig(std::shared_ptr<const ml::PerfPowerPredictor> model,
              const ServeShape &shape)
    {
        serve::FleetServerOptions sopts;
        sopts.jobs = kWorkers;
        sopts.shards = 1;
        sopts.sessions.maxSessions = shape.maxSessions;
        sopts.shed.enabled = shape.shed;
        if (shape.budgetWatts > 0.0) {
            sopts.powercap.budgetWatts = shape.budgetWatts;
            // As `gpupm serve`: live tenants come and go.
            sopts.powercap.liveUsage = true;
        }
        server = std::make_unique<serve::FleetServer>(std::move(model),
                                                      sopts);
        serve::NetServerOptions nopts;
        nopts.host = "127.0.0.1";
        nopts.port = 0;
        net = std::make_unique<serve::NetServer>(*server, nopts);
        loop = std::thread([this] { net->run(); });
    }

    ~ServerRig()
    {
        net->stop();
        loop.join();
        net.reset(); // Drains and stops the FleetServer too.
        server.reset();
    }

    std::unique_ptr<serve::FleetServer> server;
    std::unique_ptr<serve::NetServer> net;
    std::thread loop;
};

/** One tenant (steady) or tenant slot (churn) of the client. */
struct Tenant
{
    std::uint64_t tenantId = 0;
    std::string bench;
    std::size_t conn = 0;
    SessionId session = 0; ///< 0 until Opened.
    /** Decisions per run of the tenant's application. */
    std::uint32_t runLength = 0;
    std::uint32_t remaining = 0;
    std::uint64_t received = 0;
    bool opening = false;
    double openSent = 0.0;
    bool inflight = false;
    /** Actual first send of the outstanding step. */
    double firstSend = 0.0;
    StepClock clock;        ///< Closed loop.
    OpenLoopTenant sched;   ///< Open loop.
};

struct Conn
{
    int fd = -1;
    wire::FrameReader reader;
    std::vector<std::uint8_t> out;
};

/** One invocation under Turbo Core, as a Decision frame counts it. */
struct TurboCost
{
    double joules = 0.0;
    double seconds = 0.0;
};

using TurboCosts = std::map<std::string, std::vector<TurboCost>>;

/**
 * Turbo Core costs per invocation of each benchmark in @p names: all
 * energy components of the invocation, and kernel time plus exposed
 * decision overhead (Turbo Core decides for free).
 */
TurboCosts
turboCosts(const std::vector<std::string> &names)
{
    TurboCosts out;
    const hw::HardwareModelPtr apu = hw::paperApu();
    for (const auto &name : names) {
        sim::Simulator sim(apu);
        policy::TurboCoreGovernor turbo(apu);
        const sim::RunResult run = sim.run(workload::makeBenchmark(name),
                                           turbo);
        auto &costs = out[name];
        for (const auto &k : run.records) {
            if (k.index >= costs.size())
                costs.resize(k.index + 1);
            costs[k.index].joules =
                k.kernelCpuEnergy + k.overheadCpuEnergy +
                k.cpuPhaseCpuEnergy + k.transitionCpuEnergy +
                k.kernelGpuEnergy + k.overheadGpuEnergy +
                k.cpuPhaseGpuEnergy + k.transitionGpuEnergy;
            costs[k.index].seconds = k.kernelTime + k.overheadTime;
        }
    }
    return out;
}

/** What one measurement window saw. */
struct Window
{
    /** Per answered step: from due time (open) or first send (closed). */
    std::vector<double> latencyUs;
    /** Per answered step: from its actual first send. */
    std::vector<double> sendLatencyUs;
    /** Open loop: how late each step went out. */
    std::vector<double> lateUs;
    std::vector<double> openUs;
    std::uint64_t attempted = 0;
    std::uint64_t decisions = 0;
    std::uint64_t governed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t rejects = 0;
    std::uint64_t bytes = 0;
    double wall = 0.0;
    /** Optimized-run decisions: served energy and time, and the same
     *  invocations' under Turbo Core. */
    double servedJ = 0.0;
    double turboJ = 0.0;
    double servedS = 0.0;
    double turboS = 0.0;

    /** Energy saved versus Turbo Core, in percent. */
    double savingsPct() const { return 100.0 * (1.0 - servedJ / turboJ); }
    /** Slowdown versus Turbo Core, in percent. */
    double lossPct() const { return 100.0 * (1.0 - turboS / servedS); }

    void
    merge(const Window &o)
    {
        const auto cat = [](std::vector<double> &a,
                            const std::vector<double> &b) {
            a.insert(a.end(), b.begin(), b.end());
        };
        cat(latencyUs, o.latencyUs);
        cat(sendLatencyUs, o.sendLatencyUs);
        cat(lateUs, o.lateUs);
        cat(openUs, o.openUs);
        attempted += o.attempted;
        decisions += o.decisions;
        governed += o.governed;
        degraded += o.degraded;
        evaluations += o.evaluations;
        rejects += o.rejects;
        bytes += o.bytes;
        wall += o.wall;
        servedJ += o.servedJ;
        turboJ += o.turboJ;
        servedS += o.servedS;
        turboS += o.turboS;
    }
};

enum class Mode
{
    Warm,  ///< Closed loop until every tenant played two runs.
    Open,  ///< Open loop at the offered rate.
    Churn, ///< Closed loop; finished tenants are replaced.
};

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

/**
 * The load generator: one thread, one ppoll loop over every
 * connection. Correctness violations go to the report; a broken
 * protocol stream also ends the run.
 */
class FleetClient
{
  public:
    FleetClient(std::uint16_t port, const ServeShape &shape,
                std::uint64_t seed, const TurboCosts &turbo,
                Report &report)
        : _shape(shape), _report(report), _turbo(turbo),
          _rng(seed, 0x5e7e), _epoch(Clock::now())
    {
        // Open-loop due times need sub-millisecond wakeups.
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
        for (std::size_t c = 0; c < kConnections; ++c) {
            Conn conn;
            conn.fd = connectTo(port);
            _conns.push_back(std::move(conn));
        }
        _tenants.resize(shape.tenants);
        // Steady: half the tenants on each app, seeded assignment. The
        // open-loop phases are evenly spaced, so steps arrive at a
        // constant rate: random phases bunch some steps together, and
        // how much depends on the seed, which moved the p99 by 2x from
        // seed to seed.
        std::vector<std::string> steady;
        for (std::size_t i = 0; i < shape.tenants; ++i)
            steady.push_back(i % 2 == 0 ? "mandelbulbGPU" : "NBody");
        shuffle(steady);
        for (std::size_t i = 0; i < shape.tenants; ++i) {
            Tenant &t = _tenants[i];
            t.conn = i % kConnections;
            t.bench = shape.churn ? nextChurnBench() : steady[i];
            _phase.push_back(static_cast<double>(i) /
                             static_cast<double>(shape.tenants));
        }
    }

    ~FleetClient()
    {
        for (auto &c : _conns)
            if (c.fd >= 0)
                ::close(c.fd);
    }

    FleetClient(const FleetClient &) = delete;
    FleetClient &operator=(const FleetClient &) = delete;

    /** Open every tenant and wait for all Opened frames (set-up). */
    Window
    openAll()
    {
        Window w;
        _w = &w;
        _mode = Mode::Warm;
        for (Tenant &t : _tenants)
            sendOpen(t);
        drive([&] { return _outstanding == 0; });
        _w = nullptr;
        return w;
    }

    /**
     * Run one window of @p mode: new steps go out for @p seconds, or in
     * a closed loop until @p maxSteps were sent (Warm: until every
     * tenant played two runs); then the window drains.
     */
    Window
    run(Mode mode, double seconds,
        std::uint64_t maxSteps = std::numeric_limits<std::uint64_t>::max())
    {
        Window w;
        _w = &w;
        _mode = mode;
        const double t0 = now();
        _sendUntil = t0 + seconds;
        _maxSteps = maxSteps;
        _lastReply = t0;
        const std::uint64_t bytes0 = _bytes;
        if (mode == Mode::Open) {
            const double period =
                static_cast<double>(_tenants.size()) / _shape.rate;
            for (std::size_t i = 0; i < _tenants.size(); ++i)
                _tenants[i].sched =
                    OpenLoopTenant(t0 + _phase[i] * period, period);
        } else {
            for (Tenant &t : _tenants)
                kickClosed(t, t0);
        }
        drive([&] {
            if (_outstanding != 0)
                return false;
            if (mode != Mode::Open)
                return mode == Mode::Warm || !sending(now());
            for (const Tenant &t : _tenants)
                if (t.sched.nextDue() < _sendUntil)
                    return false;
            return true;
        });
        w.wall = _lastReply - t0;
        w.bytes = _bytes - bytes0;
        _w = nullptr;
        return w;
    }

    /** Tenants opened and not yet finished (churn). */
    std::size_t
    liveTenants() const
    {
        std::size_t n = 0;
        for (const Tenant &t : _tenants)
            n += t.session != 0 && t.remaining > 0 ? 1 : 0;
        return n;
    }

    bool broken() const { return _broken; }

  private:
    double now() const { return secondsSince(_epoch); }

    int
    connectTo(std::uint16_t port)
    {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                                sizeof(addr)) != 0) {
            breakRun(std::string("connect failed: ") +
                     std::strerror(errno));
            return fd;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        return fd;
    }

    /** Seeded Fisher-Yates shuffle. */
    void
    shuffle(std::vector<std::string> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[_rng.nextBounded(
                                    static_cast<std::uint32_t>(i))]);
    }

    /**
     * The next churn tenant's benchmark: every 15 tenants play each
     * paper benchmark once, in a seeded order, so the seed changes the
     * order but not the mix.
     */
    std::string
    nextChurnBench()
    {
        if (_bag.empty()) {
            _bag = workload::benchmarkNames();
            shuffle(_bag);
        }
        std::string name = std::move(_bag.back());
        _bag.pop_back();
        return name;
    }

    void
    breakRun(const std::string &why)
    {
        if (!_broken)
            _report.fail(why);
        _broken = true;
    }

    void
    sendOpen(Tenant &t)
    {
        t.tenantId = ++_nextTenant;
        _byTenant[t.tenantId] = static_cast<std::size_t>(&t - _tenants.data());
        wire::OpenMsg open;
        open.tenant = t.tenantId;
        open.optimizedRuns = _shape.runs;
        open.kernelCacheCap = 0; // Server default.
        open.bench = t.bench;
        wire::encodeOpen(_conns[t.conn].out, open);
        t.opening = true;
        t.openSent = now();
        ++_outstanding;
    }

    void
    sendStep(Tenant &t, double at, bool retry)
    {
        {
            trace::Span span(trace::Category::Bench, "bench.wire.encode");
            wire::encodeStep(_conns[t.conn].out, {t.session});
        }
        if (retry)
            return;
        t.inflight = true;
        t.firstSend = at;
        ++_outstanding;
        ++_w->attempted;
        if (_mode == Mode::Open)
            _w->lateUs.push_back(1e6 * t.sched.onSend(at));
        else
            t.clock.begin(at);
    }

    /** Whether a closed-loop window still sends new steps at @p at. */
    bool
    sending(double at) const
    {
        return at < _sendUntil && _w->attempted < _maxSteps;
    }

    /** Closed loop: give @p t its next step (or its next tenant). */
    void
    kickClosed(Tenant &t, double at)
    {
        if (t.inflight || t.opening)
            return;
        if (t.session != 0 && t.remaining > 0) {
            if (_mode == Mode::Warm && t.received >= 2u * t.runLength)
                return;
            if (_mode != Mode::Warm && !sending(at))
                return;
            sendStep(t, at, false);
            return;
        }
        if (_mode == Mode::Churn && sending(at)) {
            // The slot's tenant finished: the next one arrives.
            if (t.session != 0)
                _bySession.erase(t.session);
            t.session = 0;
            t.bench = nextChurnBench();
            sendOpen(t);
        }
    }

    void
    onOpened(const wire::OpenedMsg &m, double at)
    {
        const auto it = _byTenant.find(m.tenant);
        if (it == _byTenant.end() || !_tenants[it->second].opening) {
            breakRun("Opened for an unknown tenant");
            return;
        }
        Tenant &t = _tenants[it->second];
        _byTenant.erase(it);
        t.opening = false;
        --_outstanding;
        t.session = m.session;
        t.remaining = m.totalDecisions;
        t.runLength = m.totalDecisions / (1 + _shape.runs);
        t.received = 0;
        _bySession[m.session] = static_cast<std::size_t>(&t - _tenants.data());
        _w->openUs.push_back(1e6 * (at - t.openSent));
        if (_mode == Mode::Churn)
            kickClosed(t, at);
    }

    void
    onDecision(const wire::DecisionMsg &m, double at)
    {
        const auto it = _bySession.find(m.session);
        if (it == _bySession.end()) {
            breakRun("Decision for an unknown session");
            return;
        }
        Tenant &t = _tenants[it->second];
        if (!t.inflight) {
            // A second reply to one Step.
            breakRun("Decision without a Step in flight");
            return;
        }
        t.inflight = false;
        --_outstanding;
        _lastReply = at;
        const double lat = _mode == Mode::Open ? t.sched.onReply(at)
                                               : t.clock.finish(at);
        _w->latencyUs.push_back(1e6 * lat);
        _w->sendLatencyUs.push_back(1e6 * (at - t.firstSend));
        ++_w->decisions;
        if (m.degraded) {
            ++_w->degraded;
        } else {
            ++_w->governed;
            _w->evaluations += m.evaluations;
        }
        if (m.run >= 1)
            charge(t, m);
        if (!_shape.churn)
            verify(t, m);
        ++t.received;
        if (t.remaining > 0)
            --t.remaining;
        if (_mode != Mode::Open)
            kickClosed(t, at);
    }

    /** Charge an optimized-run decision against Turbo Core. */
    void
    charge(const Tenant &t, const wire::DecisionMsg &m)
    {
        const auto it = _turbo.find(t.bench);
        if (it == _turbo.end() || m.index >= it->second.size()) {
            breakRun("Decision index " + std::to_string(m.index) +
                     " outside " + t.bench);
            return;
        }
        const TurboCost &ref = it->second[m.index];
        _w->servedJ += m.cpuEnergy + m.gpuEnergy;
        _w->turboJ += ref.joules;
        _w->servedS += m.kernelTime + m.overheadTime;
        _w->turboS += ref.seconds;
    }

    /**
     * Tenants with the same (benchmark, runs) must stream bit-identical
     * decisions: the k-th decision of every mandelbulbGPU tenant is the
     * same, whichever tenant reached k first.
     */
    void
    verify(const Tenant &t, wire::DecisionMsg m)
    {
        m.session = 0;
        auto &stream = _canonical[t.bench];
        if (t.received == stream.size())
            stream.push_back(m);
        else if (!sameDecision(stream[t.received], m))
            breakRun("tenants of " + t.bench +
                     " diverged at decision " +
                     std::to_string(t.received));
    }

    void
    onReject(const wire::RejectMsg &m, double at)
    {
        ++_w->rejects;
        const auto it = _bySession.find(m.session);
        if (m.reason == wire::RejectReason::QueueFull &&
            it != _bySession.end() && _tenants[it->second].inflight) {
            // Shed at admission: send again; the step keeps its start.
            sendStep(_tenants[it->second], at, true);
            return;
        }
        breakRun("Reject reason " +
                 std::to_string(static_cast<int>(m.reason)) +
                 " for session " + std::to_string(m.session));
    }

    void
    onFrame(const wire::Frame &f, double at)
    {
        switch (f.type) {
        case wire::MsgType::Opened:
            if (auto m = wire::decodeOpened(f.payload))
                return onOpened(*m, at);
            break;
        case wire::MsgType::Reject:
            if (auto m = wire::decodeReject(f.payload))
                return onReject(*m, at);
            break;
        case wire::MsgType::Error: {
            ++_w->rejects;
            const auto m = wire::decodeError(f.payload);
            breakRun("Error frame: " +
                     (m ? m->message : std::string("<undecodable>")));
            return;
        }
        default:
            break;
        }
        breakRun("malformed or unexpected frame");
    }

    /** Read everything a connection has and dispatch its frames. */
    void
    readConn(Conn &c)
    {
        std::uint8_t buf[65536];
        for (;;) {
            const ssize_t r = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
            if (r > 0) {
                _bytes += static_cast<std::uint64_t>(r);
                c.reader.append(buf, static_cast<std::size_t>(r));
                continue;
            }
            if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            if (r < 0 && errno == EINTR)
                continue;
            breakRun("connection closed by the server");
            return;
        }
        const double at = now();
        while (!_broken) {
            // Decode timing per frame: the frame split plus the typed
            // decode of the hot frame, Decision.
            const bool traced = trace::Tracer::enabled();
            const std::uint64_t t0 = traced ? trace::Tracer::nowNs() : 0;
            auto frame = c.reader.next();
            if (!frame)
                break;
            if (frame->type == wire::MsgType::Decision) {
                const auto m = wire::decodeDecision(frame->payload);
                if (traced)
                    trace::Tracer::emit(trace::Category::Bench,
                                        "bench.wire.decode", t0,
                                        trace::Tracer::nowNs() - t0);
                if (!m) {
                    breakRun("undecodable Decision frame");
                    break;
                }
                onDecision(*m, at);
                continue;
            }
            onFrame(*frame, at);
        }
        if (c.reader.corrupt())
            breakRun("corrupt frame stream from the server");
    }

    void
    flushConn(Conn &c)
    {
        std::size_t off = 0;
        while (off < c.out.size()) {
            const ssize_t w = ::send(c.fd, c.out.data() + off,
                                     c.out.size() - off,
                                     MSG_NOSIGNAL | MSG_DONTWAIT);
            if (w > 0) {
                off += static_cast<std::size_t>(w);
                _bytes += static_cast<std::uint64_t>(w);
                continue;
            }
            if (w < 0 && errno == EINTR)
                continue;
            if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            breakRun("send failed");
            break;
        }
        c.out.erase(c.out.begin(), c.out.begin() + static_cast<long>(off));
    }

    /** The poll loop; returns once @p done holds (or the run broke). */
    template <typename Done>
    void
    drive(Done done)
    {
        double lastFrame = now();
        while (!_broken) {
            double tnow = now();
            double wake = tnow + kStallSeconds;
            if (_mode == Mode::Open) {
                for (Tenant &t : _tenants) {
                    if (t.sched.nextDue() >= _sendUntil || t.inflight)
                        continue;
                    if (t.sched.ready(tnow))
                        sendStep(t, tnow, false);
                    else
                        wake = std::min(wake, t.sched.nextDue());
                }
            }
            for (Conn &c : _conns)
                if (!c.out.empty())
                    flushConn(c);
            if (done())
                return;
            std::vector<pollfd> fds(_conns.size());
            for (std::size_t i = 0; i < _conns.size(); ++i) {
                fds[i].fd = _conns[i].fd;
                fds[i].events = POLLIN;
                if (!_conns[i].out.empty())
                    fds[i].events |= POLLOUT;
            }
            const double wait = std::max(0.0, wake - tnow);
            timespec ts;
            ts.tv_sec = static_cast<time_t>(wait);
            ts.tv_nsec = static_cast<long>(
                (wait - static_cast<double>(ts.tv_sec)) * 1e9);
            const int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
            if (n < 0 && errno != EINTR) {
                breakRun("ppoll failed");
                return;
            }
            tnow = now();
            if (n <= 0) {
                if (tnow - lastFrame > kStallSeconds)
                    breakRun("no reply from the server for " +
                             std::to_string(kStallSeconds) + " s");
                continue;
            }
            lastFrame = tnow;
            for (std::size_t i = 0; i < _conns.size() && !_broken; ++i) {
                if ((fds[i].revents & (POLLERR | POLLHUP)) != 0)
                    breakRun("connection dropped");
                else if ((fds[i].revents & POLLIN) != 0)
                    readConn(_conns[i]);
            }
        }
    }

    const ServeShape _shape;
    Report &_report;
    const TurboCosts &_turbo;
    Pcg32 _rng;
    const Clock::time_point _epoch;
    std::vector<Conn> _conns;
    std::vector<Tenant> _tenants;
    /** Open-loop phase of each tenant, as a fraction of its period. */
    std::vector<double> _phase;
    /** Churn benchmarks not yet drawn in the current round. */
    std::vector<std::string> _bag;
    std::unordered_map<std::uint64_t, std::size_t> _byTenant;
    std::unordered_map<SessionId, std::size_t> _bySession;
    std::map<std::string, std::vector<wire::DecisionMsg>> _canonical;
    std::uint64_t _nextTenant = 0;
    std::size_t _outstanding = 0;
    std::uint64_t _bytes = 0;
    Mode _mode = Mode::Warm;
    Window *_w = nullptr;
    double _sendUntil = 0.0;
    std::uint64_t _maxSteps = 0;
    double _lastReply = 0.0;
    bool _broken = false;
};

/** Counts governor decisions the arbiter's cap altered. */
class CapLimitCounter : public trace::DecisionSink
{
  public:
    void
    record(trace::DecisionRecord &&rec) override
    {
        decisions.fetch_add(1, std::memory_order_relaxed);
        if (rec.capLimited)
            limited.fetch_add(1, std::memory_order_relaxed);
    }

    std::atomic<std::uint64_t> decisions{0};
    std::atomic<std::uint64_t> limited{0};
};

/** Server counters and histograms, summed over measured windows. */
class ServerDelta
{
  public:
    /** Add what changed between two snapshots around one window. */
    void
    add(const telemetry::Snapshot &before, const telemetry::Snapshot &after)
    {
        for (const auto &[name, v] : after.counters) {
            const auto it = before.counters.find(name);
            _counters[name] += static_cast<double>(
                v - (it == before.counters.end() ? 0 : it->second));
        }
        for (const auto &[name, h] : after.histograms) {
            const auto it = before.histograms.find(name);
            const bool seen = it != before.histograms.end();
            Hist &acc = _hists[name];
            acc.count += static_cast<double>(
                h.count - (seen ? it->second.count : 0));
            acc.sum += static_cast<double>(h.sum -
                                           (seen ? it->second.sum : 0));
        }
    }

    double
    counter(const std::string &name) const
    {
        const auto it = _counters.find(name);
        return it == _counters.end() ? 0.0 : it->second;
    }

    /** Samples a histogram recorded. */
    double
    histCount(const std::string &name) const
    {
        const auto it = _hists.find(name);
        return it == _hists.end() ? 0.0 : it->second.count;
    }

    /** Mean of the samples a histogram recorded. */
    double
    histMean(const std::string &name) const
    {
        const auto it = _hists.find(name);
        return it == _hists.end() || it->second.count == 0.0
                   ? 0.0
                   : it->second.sum / it->second.count;
    }

  private:
    struct Hist
    {
        double count = 0.0;
        double sum = 0.0;
    };
    std::map<std::string, double> _counters;
    std::map<std::string, Hist> _hists;
};

double
share(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

/** Cap violations per capped decision across the shards. */
double
capViolationShare(const ServerDelta &d, std::size_t shards)
{
    double violations = 0.0;
    double capped = 0.0;
    for (std::size_t s = 0; s < shards; ++s) {
        const std::string prefix = "powercap.shard" + std::to_string(s);
        violations += d.counter(prefix + ".violations");
        capped += d.counter(prefix + ".capped_decisions");
    }
    return share(violations, capped);
}

/** The spans on one step's path; their self times per step are the
 *  part of its latency the layers account for. */
const char *const kStepSpans[] = {
    "bench.wire.encode", "bench.wire.decode",
    "serve.queueWait",   "serve.step",
    "mpc.decide",        "mpc.observe",
    "ml.predictBatch",   "ml.predictRows",
    "ml.flatForest.predictBatch", "serve.brokerFlush",
};

} // namespace

void
runServe(const Options &opts, Report &report)
{
    const ServeShape shape =
        opts.workload == "serve-churn" ? churnShape() : steadyShape();
    const Mode mode = shape.churn ? Mode::Churn : Mode::Open;

    // The benchmark's own reference for served quality, not set-up.
    const TurboCosts turbo = turboCosts(
        shape.churn ? workload::benchmarkNames()
                    : std::vector<std::string>{"mandelbulbGPU", "NBody"});

    // Declared first: sessions keep the sink pointer until destroyed.
    CapLimitCounter capLimits;
    std::unique_ptr<ServerRig> rig;
    std::unique_ptr<FleetClient> client;
    std::shared_ptr<const ml::RandomForestPredictor> model;
    std::vector<double> setups;
    std::vector<double> loads;
    double tracedSetup = 0.0;
    std::uint64_t dropped = 0;
    SpanTable setupTable;
    Window opens;

    // Set-up: model load, server construction, every Open (each runs
    // its tenant's Turbo Core baseline on the event loop). Repeated;
    // the last set-up serves the measurement. In the traced run the
    // middle one is traced, for its overhead.
    for (int i = 0; i < kSetups && (!client || !client->broken()); ++i) {
        client.reset();
        rig.reset();
        model.reset();
        const bool traced = opts.trace && i == 1;
        if (traced)
            beginTraceChunk(kSetupTraceCapacity);
        const auto t0 = Clock::now();
        double load = 0.0;
        model = loadModel(opts.modelPath, &load);
        rig = std::make_unique<ServerRig>(model, shape);
        client = std::make_unique<FleetClient>(rig->net->port(), shape,
                                               opts.seed, turbo, report);
        opens = client->openAll();
        const double s = secondsSince(t0);
        if (traced) {
            tracedSetup = s;
            const TraceChunk chunk = endTraceChunk();
            dropped += chunk.dropped;
            addToTable(setupTable, chunk.events, chunk.nested);
        } else {
            setups.push_back(s);
        }
        loads.push_back(load);
    }
    report.note(configStamp(opts, *model));
    report.note(setupNote(setups, loads));
    serve::FleetServer &server = *rig->server;

    // Warm-up, not measured.
    Window cold;
    if (!shape.churn) {
        // Every tenant's profiling run and first optimized run, all
        // tenants at once: the cold start that the steady p99 excludes.
        cold = client->run(Mode::Warm, 0.0);
        std::vector<double> coldUs = cold.latencyUs;
        const LatencySummary c = summarize(coldUs);
        std::ostringstream os;
        os << "# cold start (first two runs, closed loop): " << c.count
           << " steps, p50 " << c.p50 << " us, p99 " << c.p99 << " us";
        report.note(os.str());
        client->run(Mode::Open, 0.5);
    } else {
        while (!client->broken() &&
               server.shardSessions(0).lruEvictions() == 0)
            client->run(Mode::Churn, 0.2);
    }

    // One phase: windows until it has lasted @p seconds. An open-loop
    // window lasts @p window seconds; a closed-loop one sends
    // kWindowSteps steps. In the traced run each window is a chunk with
    // a lead-in (both halves alike, so they pause alike).
    const auto measure = [&](double seconds, double window, bool traced,
                             SpanTable *table,
                             std::vector<double> *queueWaitUs,
                             ServerDelta *delta) {
        std::vector<Window> out;
        double elapsed = 0.0;
        while (elapsed < seconds && !client->broken()) {
            std::uint64_t since = 0;
            if (opts.trace) {
                if (traced)
                    beginTraceChunk(kTraceCapacity);
                client->run(mode, kPrimeSeconds);
                since = trace::Tracer::nowNs();
            }
            const telemetry::Snapshot before = server.metrics();
            out.push_back(shape.churn
                              ? client->run(mode, seconds, kWindowSteps)
                              : client->run(mode, window));
            delta->add(before, server.metrics());
            elapsed += out.back().wall;
            if (!traced)
                continue;
            const TraceChunk chunk =
                endTraceChunk({"serve.queueWait"}, since);
            dropped += chunk.dropped;
            addToTable(*table, chunk.events, chunk.nested);
            for (const auto &e : chunk.events)
                if (std::strcmp(e.name, "serve.queueWait") == 0)
                    queueWaitUs->push_back(
                        static_cast<double>(e.durNs) / 1e3);
        }
        return out;
    };
    const auto merged = [](const std::vector<Window> &ws) {
        Window total;
        for (const Window &w : ws)
            total.merge(w);
        return total;
    };
    // The end-to-end metrics of one phase: step latency and rates per
    // window, reduced to medians across windows. pooled: one latency
    // sample for all windows (the traced run's halves, whose short
    // chunks only pace the tracer). Served quality comes from the
    // phase itself on serve-churn and from the warm-up on serve-steady.
    const auto endToEnd = [&](std::vector<Window> &ws, bool pooled,
                              double setup, double rss) {
        std::vector<std::vector<double>> latencies;
        std::vector<double> governed;
        std::vector<double> simulated;
        for (Window &w : ws) {
            if (!pooled || latencies.empty())
                latencies.emplace_back();
            latencies.back().insert(latencies.back().end(),
                                    w.latencyUs.begin(), w.latencyUs.end());
            governed.push_back(static_cast<double>(w.governed) / w.wall);
            // Every decision, governed or shed, simulates one kernel
            // invocation on the server.
            simulated.push_back(static_cast<double>(w.decisions) / w.wall);
        }
        const WindowedSummary sum = summarizeWindows(latencies, governed);
        if (!sum.tailSupported())
            report.fail("a window has fewer than 10 steps beyond p99");
        const Window quality = shape.churn ? merged(ws) : cold;
        if (!(quality.turboJ > 0.0 && quality.servedS > 0.0))
            report.fail("no optimized-run decision to charge");
        EndToEnd e;
        e.setupS = setup;
        e.stepP50Us = sum.p50;
        e.stepP99Us = sum.p99;
        e.governedPerS = sum.rate;
        e.simPerS = median(simulated);
        e.energySavingsPct = quality.savingsPct();
        e.perfLossPct = quality.lossPct();
        e.peakRssMb = rss;
        return std::make_pair(e, sum);
    };

    if (!opts.trace) {
        ServerDelta d;
        std::vector<Window> ws =
            measure(opts.seconds, kWindowSeconds, false, nullptr, nullptr, &d);
        Window w = merged(ws);
        const auto [e, sum] = endToEnd(ws, false, median(setups),
                                       peakRssMb());
        std::ostringstream os;
        const LatencySummary pooled = summarize(w.latencyUs);
        os << "# steps " << sum.samples << " in " << sum.windows
           << " windows (each >= " << sum.minBeyondP99
           << " beyond its p99), pooled p50 " << pooled.p50
           << " us, pooled p99 " << pooled.p99 << " us, "
           << w.decisions / w.wall << " decisions/s over " << w.wall
           << " s";
        if (mode == Mode::Open) {
            std::sort(w.lateUs.begin(), w.lateUs.end());
            os << ", offered " << shape.rate
               << "/s, generator late p99 "
               << percentile(w.lateUs, 99.0) << " us";
        }
        report.note(os.str());
        report.attempted = w.attempted;
        report.failed = w.rejects;
        reportEndToEnd(report, e);
        return;
    }

    // Traced run: half the time untraced, half traced, in equal chunks;
    // the difference between the halves is the tracing overhead.
    ServerDelta du;
    std::vector<Window> wus = measure(opts.seconds / 2, kChunkSeconds, false,
                                      nullptr, nullptr, &du);
    const double rss0 = peakRssMb();
    SpanTable table;
    std::vector<double> queueWaitUs;
    ServerDelta dt;
    std::vector<Window> wts = measure(opts.seconds / 2, kChunkSeconds, true,
                                      &table, &queueWaitUs, &dt);
    const double rss1 = peakRssMb();
    const powercap::FleetCapArbiter *arbiter = server.capArbiter();
    const double stale =
        arbiter ? static_cast<double>(arbiter->sessionCount()) -
                      static_cast<double>(client->liveTenants())
                : 0.0;

    double capLimitedShare = 0.0;
    if (arbiter) {
        // Provenance window, untimed: cap-limited decisions are only
        // visible in decision records, which cost the governors work.
        server.telemetry().setDecisionSink(&capLimits);
        client->run(mode, kChunkSeconds);
        server.telemetry().setDecisionSink(nullptr);
        capLimitedShare =
            share(static_cast<double>(capLimits.limited.load()),
                  static_cast<double>(capLimits.decisions.load()));
    }

    Window wu = merged(wus);
    Window wt = merged(wts);
    const auto [eu, sumU] = endToEnd(wus, true, median(setups), rss0);
    const auto [et, sumT] = endToEnd(wts, true, tracedSetup, rss1);
    report.attempted = wu.attempted + wt.attempted;
    report.failed = wu.rejects + wt.rejects;
    const double decisions = static_cast<double>(wt.decisions);
    const auto perDecisionUs = [&](const char *span) {
        return lookup(table, span).selfNs / 1e3 / std::max(1.0, decisions);
    };
    const auto meanSelfUs = [&](const SpanTotals &t) {
        return t.count ? t.selfNs / 1e3 / static_cast<double>(t.count) : 0.0;
    };
    const auto meanDurUs = [&](const SpanTotals &t) {
        return t.count ? t.durNs / 1e3 / static_cast<double>(t.count) : 0.0;
    };
    const auto measured = [&](const char *span) {
        return lookup(table, span);
    };
    // Turbo Core baselines run at Open: in the traced set-up, and on
    // serve-churn in the measured chunks too.
    const auto withOpens = [&](const char *span) {
        SpanTotals t = lookup(table, span);
        const SpanTotals s = lookup(setupTable, span);
        t.count += s.count;
        t.durNs += s.durNs;
        t.selfNs += s.selfNs;
        return t;
    };
    std::sort(queueWaitUs.begin(), queueWaitUs.end());
    double stepSpansUs = 0.0;
    for (const char *span : kStepSpans)
        stepSpansUs += perDecisionUs(span);
    const double flushes = dt.histCount("broker.batch_requests");
    const SpanTotals walks = measured("ml.flatForest.predictBatch");

    report.add("ml.model_load_s", median(loads), "s");
    report.add("ml.forest_walk_us",
               perDecisionUs("ml.flatForest.predictBatch"), "us");
    report.add("ml.rows_per_walk",
               walks.count ? walks.arg0 / static_cast<double>(walks.count)
                           : 0.0,
               "count");
    report.add("mpc.decide_self_us", meanSelfUs(measured("mpc.decide")),
               "us");
    report.add("mpc.observe_us", meanDurUs(measured("mpc.observe")), "us");
    report.add("mpc.evaluations_per_decision",
               share(static_cast<double>(wt.evaluations),
                     static_cast<double>(wt.governed)),
               "count");
    report.add("sim.invocation_self_us", meanSelfUs(withOpens("sim.invocation")),
               "us");
    report.add("policy.turbo_run_ms", meanDurUs(withOpens("sim.run")) / 1e3,
               "ms");
    // Sessions run MPC step by step; no whole PPK or MPC run here.
    reportNotExercised(report, {"policy.ppk_run_ms", "policy.mpc_run_ms"});
    // The pool's workers are busy exactly while they step a session.
    report.add("exec.worker_idle_share",
               1.0 - measured("serve.step").durNs /
                         (1e9 * static_cast<double>(kWorkers) * wt.wall),
               "ratio");
    report.add("serve.wire.encode_ns",
               1e3 * meanDurUs(measured("bench.wire.encode")), "ns");
    report.add("serve.wire.decode_ns",
               1e3 * meanDurUs(measured("bench.wire.decode")), "ns");
    report.add("serve.wire.bytes_per_step",
               share(static_cast<double>(wt.bytes), decisions), "bytes");
    report.add("serve.net_server.self_us",
               mean(wt.sendLatencyUs) -
                   dt.histMean("serve.decision_latency_ns") / 1e3,
               "us");
    report.add("serve.net_server.open_us",
               mean(shape.churn ? wt.openUs : opens.openUs), "us");
    report.add("serve.server.queue_wait_p50_us",
               percentile(queueWaitUs, 50.0), "us");
    report.add("serve.server.queue_wait_p99_us",
               percentile(queueWaitUs, 99.0), "us");
    report.add("serve.server.queue_depth_mean",
               dt.histMean("serve.queue_depth"), "count");
    report.add("serve.server.steals_per_decision",
               share(dt.counter("serve.queue_steals"), decisions), "count");
    report.add("serve.server.rejected", dt.counter("serve.rejected_requests"),
               "count");
    report.add("serve.session.step_self_us", meanSelfUs(measured("serve.step")),
               "us");
    report.add("serve.session_manager.evictions_per_s",
               share(dt.counter("serve.session_evictions"), wt.wall), "1/s");
    const double hits = dt.counter("serve.cache_hit_queries");
    report.add("serve.session_predictor.hit_ratio",
               share(hits, hits + dt.counter("serve.cache_miss_queries")),
               "ratio");
    report.add("serve.broker.flush_self_us",
               meanSelfUs(measured("serve.brokerFlush")), "us");
    report.add("serve.broker.batch_requests_mean",
               dt.histMean("broker.batch_requests"), "count");
    report.add("serve.broker.flush_all_waiting_share",
               share(dt.counter("broker.flush_all_waiting"), flushes),
               "ratio");
    report.add("serve.broker.flush_deadline_share",
               share(dt.counter("broker.flush_deadline"), flushes), "ratio");
    report.add("serve.broker.flush_full_share",
               share(dt.counter("broker.flush_full"), flushes), "ratio");
    report.add("serve.broker.flush_stolen_share",
               share(dt.counter("broker.flush_stolen"), flushes), "ratio");
    report.add("serve.shed.degraded_share",
               share(static_cast<double>(wt.degraded), decisions), "ratio");
    report.add("serve.shed.enters", dt.counter("serve.shed_enters"),
               "count");
    if (arbiter) {
        double capped = 0.0;
        for (std::size_t s = 0; s < server.shardCount(); ++s)
            capped += dt.counter("powercap.shard" + std::to_string(s) +
                                 ".capped_decisions");
        report.add("powercap.capped_share", share(capped, decisions),
                   "ratio");
        report.add("powercap.violation_share",
                   capViolationShare(dt, server.shardCount()), "ratio");
        report.add("powercap.cap_limited_share", capLimitedShare, "ratio");
        report.add("powercap.ticks_per_kdecision",
                   1e3 * share(dt.counter("powercap.arbiter_ticks"),
                               decisions),
                   "count");
        report.add("powercap.stale_registrations", stale, "count");
    } else {
        reportNotExercised(report,
                           {"powercap.capped_share", "powercap.violation_share",
                            "powercap.cap_limited_share",
                            "powercap.ticks_per_kdecision",
                            "powercap.stale_registrations"});
    }
    reportTraceOverhead(report, eu, et);
    report.add("trace.dropped", static_cast<double>(dropped), "count");
    if (dropped != 0)
        report.fail("the tracer dropped spans");
    report.add("unattributed_us", mean(wt.sendLatencyUs) - stepSpansUs,
               "us");
    std::ostringstream os;
    os << "# traced steps " << sumT.samples << ", untraced steps "
       << sumU.samples << "; per-step self time of the step-path spans "
       << stepSpansUs << " us";
    if (mode == Mode::Open) {
        std::sort(wt.lateUs.begin(), wt.lateUs.end());
        os << "; generator late p99 " << percentile(wt.lateUs, 99.0)
           << " us";
    }
    report.note(os.str());
}

} // namespace perfbench
