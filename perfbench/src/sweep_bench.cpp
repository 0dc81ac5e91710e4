/**
 * @file
 * The sweep-paper workload: the paper's evaluation, in process.
 *
 * All 15 benchmarks x {Turbo Core, PPK, MPC} run on exec::SweepEngine
 * with the Random Forest predictor; MPC plays one profiling run and
 * kMpcRuns optimized runs. Set-up loads the model and measures each
 * benchmark's Turbo Core baseline (the PPK and MPC performance
 * target); the measured phase repeats the whole 45-job sweep. There is
 * no serve layer here: the time goes to sim, policy, mpc, ml and exec.
 * The paper's quality numbers ride along - MPC energy savings and
 * slowdown versus Turbo Core, as bench_fig8_mpc_vs_turbo defines them -
 * and a pure speed-up must leave them bit-identical.
 *
 * A step here is one MPC-governed kernel invocation: each MPC job is
 * timed on its own, and its wall time per simulated invocation is one
 * step-latency sample. Governed decisions are the PPK and MPC
 * invocations.
 */

#include <atomic>
#include <functional>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "exec/sweep.hpp"
#include "exec/sweep_jobs.hpp"
#include "hw/model.hpp"
#include "sim/metrics.hpp"
#include "trace/decision.hpp"
#include "trace/trace.hpp"
#include "workload/benchmarks.hpp"

namespace perfbench {
namespace {

using namespace gpupm;
using Policy = exec::SimJob::Policy;

/**
 * Optimized MPC runs per benchmark: a sweep takes 0.6 to 1 s on a
 * 4-core host and a traced sweep records about 0.7M spans.
 */
constexpr int kMpcRuns = 100;
/** Per-thread span ring of a traced sweep (one sweep per chunk). */
constexpr std::size_t kTraceCapacity = std::size_t{1} << 19;

/** Bit-exact text of a run: every record field, doubles as hex. */
std::string
digest(const sim::RunResult &r)
{
    std::string out = r.appName + "|" + r.governorName;
    char buf[512];
    for (const auto &k : r.records) {
        std::snprintf(buf, sizeof(buf), "|%zu:%zu:%a:%a:%a:%a:%a:%a:%a",
                      k.index, hw::denseConfigIndex(k.config),
                      k.kernelTime, k.kernelCpuEnergy, k.kernelGpuEnergy,
                      k.overheadTime, k.overheadCpuEnergy,
                      k.transitionTime, k.instructions);
        out += buf;
    }
    std::snprintf(buf, sizeof(buf), "|%a:%a:%a", r.totalTime(),
                  r.cpuEnergy, r.gpuEnergy);
    return out + buf;
}

/** The sweep's jobs, MPC first so the longest jobs start first. */
struct Sweep
{
    std::vector<workload::Application> apps;
    std::vector<exec::SimJob> jobs;
    /** Simulated kernel invocations per full sweep. */
    double invocations = 0.0;
    /** Governed (PPK and MPC) invocations per full sweep. */
    double governed = 0.0;

    std::size_t mpc(std::size_t app) const { return app; }
    std::size_t ppk(std::size_t app) const { return apps.size() + app; }
    std::size_t turbo(std::size_t app) const
    {
        return 2 * apps.size() + app;
    }
};

/** Build the jobs; the Turbo Core baselines run here (set-up work). */
Sweep
buildSweep(exec::SweepEngine &engine,
           const std::shared_ptr<const ml::PerfPowerPredictor> &model)
{
    Sweep s;
    s.apps = workload::allBenchmarks();
    std::vector<exec::SimJob> turbo;
    for (const auto &app : s.apps) {
        exec::SimJob job;
        job.app = app;
        job.policy = Policy::Turbo;
        turbo.push_back(job);
    }
    const auto baselines = exec::runSweep(engine, turbo, hw::paperApu());
    for (const Policy p : {Policy::Mpc, Policy::Ppk}) {
        for (std::size_t i = 0; i < s.apps.size(); ++i) {
            exec::SimJob job;
            job.app = s.apps[i];
            job.policy = p;
            job.predictor = model;
            job.mpcRuns = kMpcRuns;
            job.target = baselines[i].throughput();
            s.jobs.push_back(job);
        }
    }
    s.jobs.insert(s.jobs.end(), turbo.begin(), turbo.end());
    for (const auto &app : s.apps) {
        const double n = static_cast<double>(app.trace.size());
        s.invocations += n * (1 + 1 + (1 + kMpcRuns));
        s.governed += n * (1 + (1 + kMpcRuns));
    }
    return s;
}

/** One measured sweep: its wall time and MPC step latencies. */
struct SweepTiming
{
    double wall = 0.0;
    double stepP50Us = 0.0;
    double stepP99Us = 0.0;
};

/** Counts MPC decisions and their charged predictor evaluations. */
class EvaluationCounter : public trace::DecisionSink
{
  public:
    void
    record(trace::DecisionRecord &&rec) override
    {
        decisions.fetch_add(1, std::memory_order_relaxed);
        evaluations.fetch_add(rec.evaluations, std::memory_order_relaxed);
    }

    std::atomic<std::uint64_t> decisions{0};
    std::atomic<std::uint64_t> evaluations{0};
};

} // namespace

void
runSweepPaper(const Options &opts, Report &report)
{
    // The calling thread drives sweep jobs alongside the pool, so a
    // pool of nproc - 1 keeps the process at nproc running threads.
    const std::size_t jobs = std::max<std::size_t>(
        2, std::thread::hardware_concurrency() - 1);
    const std::size_t workers = jobs + 1;

    std::shared_ptr<const ml::RandomForestPredictor> model;
    std::unique_ptr<exec::SweepEngine> engine;
    Sweep sweep;
    std::vector<double> setups;
    std::vector<double> loads;
    double tracedSetup = 0.0;
    std::uint64_t dropped = 0;
    for (int i = 0; i < kSetups; ++i) {
        engine.reset();
        model.reset();
        const bool traced = opts.trace && i == 1;
        if (traced)
            beginTraceChunk(kSetupTraceCapacity);
        const auto t0 = Clock::now();
        double load = 0.0;
        model = loadModel(opts.modelPath, &load);
        engine = std::make_unique<exec::SweepEngine>(
            exec::SweepOptions{jobs, opts.seed});
        sweep = buildSweep(*engine, model);
        const double s = secondsSince(t0);
        if (traced) {
            tracedSetup = s;
            dropped += endTraceChunk().dropped;
        } else {
            setups.push_back(s);
        }
        loads.push_back(load);
    }
    report.note(configStamp(opts, *model));
    report.note(setupNote(setups, loads));

    // Every repeat of the sweep must reproduce the first bit for bit.
    std::vector<std::string> reference;
    std::vector<sim::RunResult> results;
    std::uint64_t sweepsRun = 0;
    const hw::HardwareModelPtr apu = hw::paperApu();
    std::vector<double> jobSeconds(sweep.jobs.size());
    const auto runOnce = [&] {
        const auto t0 = Clock::now();
        {
            // exec::runSweep, with each job timed.
            trace::Span span(trace::Category::Bench, "bench.runSweep");
            results = engine->map<sim::RunResult>(
                sweep.jobs.size(), [&](std::size_t j, Pcg32 &) {
                    const auto j0 = Clock::now();
                    sim::RunResult r = exec::runSimJob(sweep.jobs[j], apu);
                    jobSeconds[j] = secondsSince(j0);
                    return r;
                });
        }
        SweepTiming timing;
        timing.wall = secondsSince(t0);
        std::vector<double> stepUs;
        for (std::size_t i = 0; i < sweep.apps.size(); ++i)
            stepUs.push_back(
                1e6 * jobSeconds[sweep.mpc(i)] /
                static_cast<double>(sweep.apps[i].trace.size() *
                                    (1 + kMpcRuns)));
        const LatencySummary steps = summarize(stepUs);
        timing.stepP50Us = steps.p50;
        timing.stepP99Us = steps.p99;
        ++sweepsRun;
        for (std::size_t j = 0; j < results.size(); ++j) {
            const auto &r = results[j];
            if (!(std::isfinite(r.totalEnergy()) && r.totalEnergy() > 0.0 &&
                  std::isfinite(r.totalTime()) && r.totalTime() > 0.0))
                report.fail("job " + std::to_string(j) +
                            " has a non-positive or non-finite result");
        }
        if (reference.empty()) {
            for (const auto &r : results)
                reference.push_back(digest(r));
        } else {
            for (std::size_t j = 0; j < results.size(); ++j)
                if (digest(results[j]) != reference[j])
                    report.fail("sweep repeat changed job " +
                                std::to_string(j));
        }
        return timing;
    };
    // Complete sweeps until the phase has lasted its length.
    const auto phase = [&](double seconds, bool traced,
                           const std::function<void(const TraceChunk &)>
                               &onChunk) {
        std::vector<SweepTiming> sweeps;
        double total = 0.0;
        do {
            if (traced)
                beginTraceChunk(kTraceCapacity);
            sweeps.push_back(runOnce());
            total += sweeps.back().wall;
            if (traced) {
                // The calling thread also runs jobs inside its wait.
                const TraceChunk chunk = endTraceChunk({"bench.runSweep"});
                dropped += chunk.dropped;
                onChunk(chunk);
            }
        } while (total < seconds);
        return sweeps;
    };
    const auto totalWall = [](const std::vector<SweepTiming> &sweeps) {
        double total = 0.0;
        for (const auto &t : sweeps)
            total += t.wall;
        return total;
    };

    double savings = 0.0;
    double speedup = 0.0;
    const auto quality = [&] {
        std::vector<double> sv;
        std::vector<double> sp;
        for (std::size_t i = 0; i < sweep.apps.size(); ++i) {
            const auto &turbo = results[sweep.turbo(i)];
            const auto &mpc = results[sweep.mpc(i)];
            sv.push_back(sim::energySavingsPct(turbo, mpc));
            sp.push_back(sim::speedup(turbo, mpc));
        }
        savings = mean(sv);
        speedup = mean(sp);
    };

    // One benchmark, chosen by the seed, must give byte-identical
    // results on the serial path and on the pool.
    const auto checkSerial = [&] {
        const std::size_t app = opts.seed % sweep.apps.size();
        const std::vector<std::size_t> picks = {
            sweep.mpc(app), sweep.ppk(app), sweep.turbo(app)};
        std::vector<exec::SimJob> subset;
        for (const std::size_t j : picks)
            subset.push_back(sweep.jobs[j]);
        exec::SweepEngine serial({1, opts.seed});
        const auto r1 = exec::runSweep(serial, subset, hw::paperApu());
        for (std::size_t k = 0; k < picks.size(); ++k)
            if (digest(r1[k]) != reference[picks[k]])
                report.fail("jobs=1 and jobs=" + std::to_string(jobs) +
                            " differ on " + sweep.apps[app].name);
    };

    // Medians over sweeps, so a transient host stall moves one sweep
    // rather than the result.
    const auto endToEnd = [&](const std::vector<SweepTiming> &sweeps,
                              double setup, double rss) {
        std::vector<double> walls;
        std::vector<double> p50s;
        std::vector<double> p99s;
        for (const auto &t : sweeps) {
            walls.push_back(t.wall);
            p50s.push_back(t.stepP50Us);
            p99s.push_back(t.stepP99Us);
        }
        EndToEnd e;
        e.setupS = setup;
        e.stepP50Us = median(p50s);
        e.stepP99Us = median(p99s);
        e.governedPerS = sweep.governed / median(walls);
        e.simPerS = sweep.invocations / median(walls);
        e.energySavingsPct = savings;
        e.perfLossPct = 100.0 * (1.0 - speedup);
        e.peakRssMb = rss;
        return e;
    };
    // Layers this workload does not run.
    const std::vector<std::string> notHere = {
        "serve.wire.encode_ns",
        "serve.wire.decode_ns",
        "serve.wire.bytes_per_step",
        "serve.net_server.self_us",
        "serve.net_server.open_us",
        "serve.server.queue_wait_p50_us",
        "serve.server.queue_wait_p99_us",
        "serve.server.queue_depth_mean",
        "serve.server.steals_per_decision",
        "serve.server.rejected",
        "serve.session.step_self_us",
        "serve.session_manager.evictions_per_s",
        "serve.session_predictor.hit_ratio",
        "serve.broker.flush_self_us",
        "serve.broker.batch_requests_mean",
        "serve.broker.flush_all_waiting_share",
        "serve.broker.flush_deadline_share",
        "serve.broker.flush_full_share",
        "serve.broker.flush_stolen_share",
        "serve.shed.degraded_share",
        "serve.shed.enters",
        "powercap.capped_share",
        "powercap.violation_share",
        "powercap.cap_limited_share",
        "powercap.ticks_per_kdecision",
        "powercap.stale_registrations",
    };

    if (!opts.trace) {
        const auto sweeps = phase(opts.seconds, false, {});
        quality();
        checkSerial();
        std::ostringstream os;
        os << "# " << sweeps.size() << " sweeps of " << sweep.jobs.size()
           << " jobs (" << sweep.invocations << " invocations each, MPC "
           << kMpcRuns << " optimized runs) in " << totalWall(sweeps)
           << " s on " << workers << " workers";
        report.note(os.str());
        report.attempted = sweepsRun * sweep.jobs.size();
        report.failed = 0;
        reportEndToEnd(report, endToEnd(sweeps, median(setups), peakRssMb()));
        return;
    }

    const auto untraced = phase(opts.seconds / 2, false, {});
    quality();
    const EndToEnd eu = endToEnd(untraced, median(setups), peakRssMb());

    SpanTable table;
    double jobNs = 0.0;
    double runNs[3] = {0.0, 0.0, 0.0}; // turbo, ppk, mpc
    double runs[3] = {0.0, 0.0, 0.0};
    const auto slot = [](Policy p) {
        return p == Policy::Turbo ? 0 : p == Policy::Ppk ? 1 : 2;
    };
    const auto traced = phase(opts.seconds / 2, true,
                              [&](const TraceChunk &chunk) {
        addToTable(table, chunk.events, chunk.nested);
        for (std::size_t i = 0; i < chunk.events.size(); ++i) {
            const auto &e = chunk.events[i];
            if (std::strcmp(e.name, "exec.job") == 0)
                jobNs += static_cast<double>(e.durNs);
            if (std::strcmp(e.name, "sim.run") != 0)
                continue;
            // Attribute the governor run to its job's policy.
            std::ptrdiff_t p = chunk.nested[i].parent;
            while (p >= 0 && std::strcmp(chunk.events[p].name, "exec.job"))
                p = chunk.nested[p].parent;
            if (p < 0)
                continue;
            const auto &job =
                sweep.jobs[static_cast<std::size_t>(chunk.events[p].arg0)];
            runNs[slot(job.policy)] += static_cast<double>(e.durNs);
            runs[slot(job.policy)] += 1.0;
        }
    });
    quality();
    const EndToEnd et = endToEnd(traced, tracedSetup, peakRssMb());
    checkSerial();

    // Untimed: charged evaluations per MPC decision.
    EvaluationCounter counter;
    std::vector<exec::SimJob> mpcJobs;
    for (std::size_t i = 0; i < sweep.apps.size(); ++i) {
        mpcJobs.push_back(sweep.jobs[sweep.mpc(i)]);
        mpcJobs.back().decisionSink = &counter;
    }
    exec::runSweep(*engine, mpcJobs, hw::paperApu());

    report.attempted = sweepsRun * sweep.jobs.size();
    report.failed = 0;
    const auto sweeps = static_cast<double>(traced.size());
    const double decisions = sweep.governed * sweeps;
    const double invocations = sweep.invocations * sweeps;
    const auto meanSelfUs = [&](const char *span) {
        const SpanTotals t = lookup(table, span);
        return t.count ? t.selfNs / 1e3 / static_cast<double>(t.count) : 0.0;
    };
    const SpanTotals walks = lookup(table, "ml.flatForest.predictBatch");
    const SpanTotals observes = lookup(table, "mpc.observe");
    double selfNs = 0.0;
    for (const auto &[name, t] : table)
        if (name != "bench.runSweep")
            selfNs += t.selfNs;
    const double workerNs =
        1e9 * totalWall(traced) * static_cast<double>(workers);

    report.add("ml.model_load_s", median(loads), "s");
    report.add("ml.forest_walk_us", walks.selfNs / 1e3 / decisions, "us");
    report.add("ml.rows_per_walk",
               walks.count ? walks.arg0 / static_cast<double>(walks.count)
                           : 0.0,
               "count");
    report.add("mpc.decide_self_us", meanSelfUs("mpc.decide"), "us");
    report.add("mpc.observe_us",
               observes.count
                   ? observes.durNs / 1e3 / static_cast<double>(observes.count)
                   : 0.0,
               "us");
    report.add("mpc.evaluations_per_decision",
               counter.decisions.load()
                   ? static_cast<double>(counter.evaluations.load()) /
                         static_cast<double>(counter.decisions.load())
                   : 0.0,
               "count");
    report.add("sim.invocation_self_us", meanSelfUs("sim.invocation"), "us");
    const char *const policyNames[3] = {"policy.turbo_run_ms",
                                        "policy.ppk_run_ms",
                                        "policy.mpc_run_ms"};
    for (int k = 0; k < 3; ++k)
        report.add(policyNames[k], runs[k] ? runNs[k] / 1e6 / runs[k] : 0.0,
                   "ms");
    report.add("exec.worker_idle_share", 1.0 - jobNs / workerNs, "ratio");
    reportNotExercised(report, notHere);
    reportTraceOverhead(report, eu, et);
    report.add("trace.dropped", static_cast<double>(dropped), "count");
    if (dropped != 0)
        report.fail("the tracer dropped spans");
    // A sweep step is one simulated invocation; its latency is the
    // worker time spent per invocation.
    report.add("unattributed_us", (workerNs - selfNs) / 1e3 / invocations,
               "us");
}

} // namespace perfbench
