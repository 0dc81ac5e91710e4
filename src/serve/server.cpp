#include "serve/server.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/logging.hpp"
#include "exec/sweep.hpp"
#include "ml/simd.hpp"
#include "trace/trace.hpp"
#include "workload/benchmarks.hpp"
#include "workload/training.hpp"

namespace gpupm::serve {

FleetServer::FleetServer(
    std::shared_ptr<const ml::PerfPowerPredictor> predictor,
    const FleetServerOptions &opts)
    : _opts(opts), _telemetry(std::make_unique<telemetry::Registry>())
{
    GPUPM_ASSERT(predictor != nullptr, "fleet server needs a predictor");
    GPUPM_ASSERT(_opts.shards > 0, "fleet server needs at least one shard");

    auto rf = std::dynamic_pointer_cast<const ml::RandomForestPredictor>(
        predictor);
    GPUPM_ASSERT(!_opts.forestHandle || rf,
                 "online learning requires a Random Forest predictor");

    if (!_opts.model)
        _opts.model = hw::paperApu();

    _decisions = &_telemetry->counter("serve.decisions");
    _rejected = &_telemetry->counter("serve.rejected_requests");
    _lost = &_telemetry->counter("serve.lost_sessions");
    _steals = &_telemetry->counter("serve.queue_steals");
    _shedDegraded =
        &_telemetry->counter("serve.shed_degraded_decisions");
    _depthHist = &_telemetry->histogram("serve.queue_depth");
    _latencyHist = &_telemetry->histogram("serve.decision_latency_ns");

    if (_opts.powercap.enabled()) {
        _arbiter = std::make_unique<powercap::FleetCapArbiter>(
            _opts.powercap, _telemetry.get());
    }

    const std::size_t jobs = exec::ThreadPool::resolveJobs(_opts.jobs);
    // A lone worker can never have two decisions in flight, so the
    // broker could only ever flush batches of one: every memo miss
    // would pay the coalescing round trip with nothing to coalesce
    // (~7% of fleet throughput on the dev host). Route misses straight
    // at the predictor instead - the trace is invariant either way
    // (pinned by BatchingOnAndOffProduceTheSameTrace). Online learning
    // keeps the broker regardless: it is also the generation-following
    // evaluation point for hot-swapped forests.
    const bool batch = _opts.batching && (jobs > 1 || _opts.forestHandle);

    _shards.resize(_opts.shards);
    for (Shard &shard : _shards) {
        if (batch && _opts.forestHandle) {
            shard.broker = std::make_unique<InferenceBroker>(
                *_opts.forestHandle, _opts.broker, _telemetry.get());
        } else if (batch && rf) {
            shard.broker = std::make_unique<InferenceBroker>(
                rf, _opts.broker, _telemetry.get());
        }
        shard.sessions = std::make_unique<SessionManager>(
            predictor, shard.broker.get(), _opts.sessions, _opts.model,
            _telemetry.get(), _opts.forestHandle, _arbiter.get(),
            &_table);
        shard.queue = std::make_unique<RequestQueue<DecisionRequest>>(
            _opts.queueCapacity);
        shard.shed = std::make_unique<ShedController>(
            _opts.shed, _telemetry.get());
        if (_arbiter) {
            // Per-shard cap accounting: which shard's tenants are
            // hitting their caps is what a rack operator asks first.
            const std::size_t idx =
                static_cast<std::size_t>(&shard - _shards.data());
            char name[64];
            std::snprintf(name, sizeof(name),
                          "powercap.shard%zu.violations", idx);
            shard.capViolations = &_telemetry->counter(name);
            std::snprintf(name, sizeof(name),
                          "powercap.shard%zu.capped_decisions", idx);
            shard.cappedDecisions = &_telemetry->counter(name);
        }
    }

    _pool = std::make_unique<exec::ThreadPool>(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
        if (_shards.size() == 1) {
            // Single shard: the classic blocking drain loop - no
            // steal scans, no timed waits, identical behavior to the
            // pre-sharding server.
            _pool->post([this] {
                while (auto req = _shards[0].queue->pop())
                    process(*req);
            });
        } else {
            _pool->post([this, j] { workerLoop(j); });
        }
    }
}

FleetServer::~FleetServer() { stop(); }

void
FleetServer::stop()
{
    if (_stopped)
        return;
    _stopped = true;
    // Closing the queues lets workers drain what was admitted and then
    // exit their loops; the pool destructor joins them.
    for (Shard &shard : _shards)
        shard.queue->close();
    _pool.reset();
}

SessionManager &
FleetServer::sessions()
{
    GPUPM_ASSERT(_shards.size() == 1,
                 "sessions() is single-shard only; use shardSessions()");
    return *_shards[0].sessions;
}

SessionId
FleetServer::createSession(const workload::Application &app,
                           const SessionOptions &opts)
{
    // Global allocation first, then placement: identity depends only
    // on creation order, never on the shard count.
    const SessionId id = _nextId.fetch_add(1, std::memory_order_relaxed);
    return _shards[shardOf(id)].sessions->createWithId(id, app, opts);
}

bool
FleetServer::trySubmit(DecisionRequest req)
{
    req.submitted = std::chrono::steady_clock::now();
    Shard &shard = _shards[shardOf(req.session)];
    const std::size_t depth = shard.queue->depth();
    _depthHist->record(depth);
    shard.shed->sample(depth);
    if (shard.queue->tryPush(std::move(req)))
        return true;
    _rejected->add();
    return false;
}

bool
FleetServer::submit(DecisionRequest req)
{
    req.submitted = std::chrono::steady_clock::now();
    Shard &shard = _shards[shardOf(req.session)];
    const std::size_t depth = shard.queue->depth();
    _depthHist->record(depth);
    shard.shed->sample(depth);
    if (shard.queue->push(std::move(req)))
        return true;
    _rejected->add(); // closed while (or before) waiting for space
    return false;
}

std::size_t
FleetServer::queueDepth() const
{
    std::size_t depth = 0;
    for (const Shard &shard : _shards)
        depth += shard.queue->depth();
    return depth;
}

std::size_t
FleetServer::rejectedRequests() const
{
    return static_cast<std::size_t>(_rejected->value());
}

void
FleetServer::workerLoop(std::size_t worker)
{
    const std::size_t nshards = _shards.size();
    const std::size_t home = worker % nshards;
    while (true) {
        if (auto req = _shards[home].queue->tryPop()) {
            process(*req);
            continue;
        }
        // Steal queued work from sibling shards before idling: the
        // tenant hash balances only in expectation, and a hot shard's
        // backlog is as good as home work (sessions carry their shard
        // with them - process() routes by id, so a stolen request
        // checks out of its own shard's manager).
        bool worked = false;
        for (std::size_t k = 1; k < nshards && !worked; ++k) {
            if (auto req = _shards[(home + k) % nshards].queue->tryPop()) {
                _steals->add();
                process(*req);
                worked = true;
            }
        }
        if (worked)
            continue;
        // No queued requests anywhere: offer to run a loaded shard's
        // ripening broker flush so its blocked deciders wake sooner.
        for (std::size_t k = 0; k < nshards && !worked; ++k) {
            Shard &shard = _shards[(home + k) % nshards];
            if (shard.broker && shard.broker->stealFlush())
                worked = true;
        }
        if (worked)
            continue;
        if (auto req = _shards[home].queue->popFor(
                std::chrono::microseconds(500))) {
            process(*req);
            continue;
        }
        // Exit only when every queue is closed and drained; a timed-out
        // wait with open queues just re-runs the steal scan.
        bool done = true;
        for (const Shard &shard : _shards) {
            if (!shard.queue->closed() || shard.queue->depth() != 0) {
                done = false;
                break;
            }
        }
        if (done)
            return;
    }
}

void
FleetServer::process(const DecisionRequest &req)
{
    if (trace::Tracer::enabled()) [[unlikely]] {
        // Backdated span covering the request's time in the queue, so
        // the timeline shows admission-to-dispatch waits per session.
        const auto wait =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - req.submitted)
                .count();
        const std::uint64_t wait_ns =
            wait > 0 ? static_cast<std::uint64_t>(wait) : 0;
        const std::uint64_t now = trace::Tracer::nowNs();
        trace::Tracer::emit(trace::Category::Serve, "serve.queueWait",
                            now > wait_ns ? now - wait_ns : 0, wait_ns,
                            "session",
                            static_cast<double>(req.session));
    }
    Shard &shard = _shards[shardOf(req.session)];
    Session *s = shard.sessions->checkout(req.session);
    if (!s) {
        // Unknown (evicted) or concurrently busy; the admission
        // contract is at most one in-flight request per session.
        _lost->add();
        if (req.onDone)
            req.onDone(req.session, nullptr);
        return;
    }
    if (s->finished()) {
        // A network client can legally race its last Decision reply
        // with another Step; answer null instead of dying.
        shard.sessions->checkin(req.session);
        _lost->add();
        if (req.onDone)
            req.onDone(req.session, nullptr);
        return;
    }
    const bool degraded = shard.shed->degraded();
    const DecisionRecord rec = s->step(degraded);
    shard.sessions->checkin(req.session);
    if (degraded)
        _shedDegraded->add();
    if (_arbiter) {
        // The session already fed its measured power into its own
        // violation window inside step(); here the shard rolls up its
        // tenants' cap pressure and the fleet-wide decision stream
        // drives the arbiter's re-split tick.
        if (rec.cap >= 0.0) {
            shard.cappedDecisions->add();
            if (rec.measuredPower > rec.cap)
                shard.capViolations->add();
        }
        _arbiter->onDecision();
    }

    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - req.submitted)
                        .count();
    _latencyHist->record(ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
    _decisions->add();
    if (req.onDone)
        req.onDone(req.session, &rec);
}

FleetResult
runFleet(std::shared_ptr<const ml::PerfPowerPredictor> predictor,
         const FleetOptions &opts)
{
    GPUPM_ASSERT(opts.sessionCount > 0, "fleet needs at least one session");

    // Size the server so the driver's invariants hold: one in-flight
    // request per session always fits its shard's queue (workers
    // re-enqueue through blocking submit; a shard queue that could
    // fill with every worker stuck submitting to it would deadlock),
    // and the LRU cap never evicts a live session mid-run.
    FleetServerOptions sopts = opts.server;
    sopts.queueCapacity =
        std::max(sopts.queueCapacity, opts.sessionCount);
    if (sopts.sessions.maxSessions > 0) {
        sopts.sessions.maxSessions =
            std::max(sopts.sessions.maxSessions, opts.sessionCount);
    }
    // The handle is declared before the server because the server (and
    // every session memo inside it) reads generations from it for its
    // whole lifetime.
    std::optional<online::ForestHandle> handle;
    if (opts.onlineLearn) {
        auto rf =
            std::dynamic_pointer_cast<const ml::RandomForestPredictor>(
                predictor);
        GPUPM_ASSERT(rf != nullptr,
                     "--online-learn requires a Random Forest predictor");
        handle.emplace(std::move(rf));
        sopts.forestHandle = &*handle;
    }
    FleetServer server(std::move(predictor), sopts);
    // Sessions read the sink from the registry at creation; install it
    // first so every governor reports from its very first decision.
    // The learner wraps the caller's sink: records still reach it
    // unchanged (observer-until-trigger determinism contract).
    std::optional<online::OnlineLearner> learner;
    if (opts.onlineLearn) {
        learner.emplace(*handle, opts.online, opts.decisionSink,
                        &server.telemetry());
        server.telemetry().setDecisionSink(&*learner);
    } else if (opts.decisionSink) {
        server.telemetry().setDecisionSink(opts.decisionSink);
    }

    std::vector<workload::Application> apps;
    if (opts.syntheticKernels > 0) {
        // Massive-fleet mode: sessions share a pool of synthetic apps
        // so a 100k-session fleet does not pay 100k distinct traces.
        // Pool membership depends only on the seed.
        const std::size_t pool =
            std::min<std::size_t>(opts.sessionCount, 64);
        const std::size_t kernels =
            std::max<std::size_t>(opts.syntheticKernels, 2);
        apps.reserve(pool);
        for (std::size_t i = 0; i < pool; ++i)
            apps.push_back(workload::randomApplication(
                exec::mix64(opts.seed ^ (0xf1ee7ULL + i)), kernels));
    } else if (opts.apps.empty()) {
        apps = workload::allBenchmarks();
    } else {
        apps.reserve(opts.apps.size());
        for (const auto &name : opts.apps)
            apps.push_back(workload::makeBenchmark(name));
    }

    struct Slot
    {
        std::vector<DecisionRecord> records;
        std::size_t expected = 0;
    };
    std::vector<Slot> slots(opts.sessionCount);
    std::unordered_map<SessionId, std::size_t> slotOf;
    std::vector<SessionId> ids;
    ids.reserve(opts.sessionCount);
    slotOf.reserve(opts.sessionCount);
    std::map<std::string, std::size_t> out_sessions_per_model;

    for (std::size_t i = 0; i < opts.sessionCount; ++i) {
        workload::Application app = apps[i % apps.size()];
        if (opts.cpuPhaseJitter > 0.0) {
            // Per-session stream: the fraction depends only on
            // (seed, session index), never on scheduling.
            Pcg32 rng(exec::mix64(opts.seed ^ (i + 1)),
                      exec::mix64(i ^ 0x5e55ULL) | 1);
            app = workload::withCpuPhases(
                std::move(app), rng.uniform(0.0, opts.cpuPhaseJitter));
        }
        SessionOptions session_opts = opts.session;
        if (!opts.capWeights.empty()) {
            session_opts.capWeight =
                opts.capWeights[i % opts.capWeights.size()];
        }
        if (!opts.hwModels.empty()) {
            session_opts.model = hw::HardwareCatalog::instance().get(
                opts.hwModels[i % opts.hwModels.size()]);
        }
        if (!opts.deadlines.empty()) {
            const double slack =
                opts.deadlines[i % opts.deadlines.size()];
            // 0 keeps this session on the uniform alpha objective so a
            // cycled list can mix QoS kinds; negative is fatal inside
            // QosSpec::deadline.
            if (slack != 0.0)
                session_opts.mpc.qos = mpc::QosSpec::deadline(slack);
        }
        const auto &model_for_count =
            session_opts.model ? session_opts.model : sopts.model;
        out_sessions_per_model[model_for_count
                                   ? model_for_count->name()
                                   : std::string(hw::paperApuName)] += 1;
        const SessionId id = server.createSession(app, session_opts);
        ids.push_back(id);
        slotOf.emplace(id, i);
        slots[i].expected =
            (1 + opts.session.optimizedRuns) * app.trace.size();
        slots[i].records.reserve(slots[i].expected);
    }
    // One policy-aware split over the complete fleet before any
    // decision: later ticks idempotently reproduce it (registration
    // assigns only provisional equal shares), so capped traces are
    // byte-identical at any (shards, jobs).
    if (auto *arbiter = server.capArbiter())
        arbiter->rebalance();

    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::size_t remaining = opts.sessionCount;

    // A worker finishing a step re-enqueues that session's next one, so
    // exactly one request per unfinished session is in flight; the
    // per-session record order is therefore the session's own step
    // order at any worker count.
    std::function<void(SessionId, const DecisionRecord *)> on_done =
        [&](SessionId id, const DecisionRecord *rec) {
            GPUPM_ASSERT(rec != nullptr, "fleet session vanished");
            Slot &slot = slots[slotOf.at(id)];
            slot.records.push_back(*rec);
            if (slot.records.size() < slot.expected) {
                server.submit({id, on_done, {}});
            } else {
                {
                    std::lock_guard lock(done_mutex);
                    --remaining;
                }
                done_cv.notify_one();
            }
        };

    const auto simd0 = ml::simdRowStats();
    const auto t0 = std::chrono::steady_clock::now();
    for (const SessionId id : ids)
        server.submit({id, on_done, {}});
    {
        std::unique_lock lock(done_mutex);
        done_cv.wait(lock, [&] { return remaining == 0; });
    }
    const auto t1 = std::chrono::steady_clock::now();

    FleetResult out;
    out.sessions = opts.sessionCount;
    out.sessionsPerModel = std::move(out_sessions_per_model);
    if (learner) {
        // Let an in-flight refit land before the final snapshot so the
        // reported stats and generation reflect every trigger.
        learner->drain();
        out.online = learner->stats();
        out.forestGeneration = handle->ordinal();
    }
    // Fold this run's forest-row deltas into the registry so the
    // metrics snapshot says which inference engine actually served the
    // fleet (the process-wide stats also cover other predictors; the
    // delta across the run is what this fleet evaluated).
    const auto simd1 = ml::simdRowStats();
    auto &telem = server.telemetry();
    telem.counter("ml.rows_scalar").add(simd1.scalar - simd0.scalar);
    telem.counter("ml.rows_fallback")
        .add(simd1.fallback - simd0.fallback);
    telem.counter("ml.rows_avx2").add(simd1.avx2 - simd0.avx2);
    out.metrics = server.metrics();
    if (const auto *arbiter = server.capArbiter()) {
        out.capViolations = arbiter->violations();
        out.arbiterTicks = arbiter->ticks();
    }
    server.stop();
    for (Slot &slot : slots) {
        out.decisions += slot.records.size();
        for (const DecisionRecord &rec : slot.records) {
            out.degradedDecisions += rec.degraded ? 1 : 0;
            out.capLimitedDecisions += rec.capLimited ? 1 : 0;
            out.deadlineMisses += rec.deadlineMissed ? 1 : 0;
        }
        out.trace.insert(out.trace.end(), slot.records.begin(),
                         slot.records.end());
    }
    out.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    out.decisionsPerSecond =
        out.wallSeconds > 0.0
            ? static_cast<double>(out.decisions) / out.wallSeconds
            : 0.0;
    return out;
}

std::string
serializeFleetTrace(const std::vector<DecisionRecord> &trace)
{
    std::string out;
    out.reserve(trace.size() * 160);
    char buf[512];
    for (const auto &r : trace) {
        // Cap fields only on capped records, mirroring "dg": uncapped
        // traces stay byte-identical to the pre-powercap format. The
        // same conditional scheme covers "hw" (non-default hardware
        // model) and "dm" (deadline miss on a run's last record).
        char cap[64];
        cap[0] = '\0';
        if (r.cap >= 0.0) {
            std::snprintf(cap, sizeof(cap), ",\"cap\":%.17g%s", r.cap,
                          r.capLimited ? ",\"cl\":1" : "");
        }
        char hw[96];
        hw[0] = '\0';
        if (!r.hwModel.empty()) {
            std::snprintf(hw, sizeof(hw), ",\"hw\":\"%s\"",
                          r.hwModel.c_str());
        }
        std::snprintf(
            buf, sizeof(buf),
            "{\"s\":%llu,\"r\":%zu,\"i\":%zu,\"t\":\"%c\",\"c\":%zu,"
            "\"kt\":%.17g,\"oh\":%.17g,\"ce\":%.17g,\"ge\":%.17g,"
            "\"ev\":%zu%s%s%s%s}\n",
            static_cast<unsigned long long>(r.session), r.run, r.index,
            r.tag, r.configIndex, r.kernelTime, r.overheadTime,
            r.cpuEnergy, r.gpuEnergy, r.evaluations,
            r.degraded ? ",\"dg\":1" : "", cap, hw,
            r.deadlineMissed ? ",\"dm\":1" : "");
        out += buf;
    }
    return out;
}

} // namespace gpupm::serve
