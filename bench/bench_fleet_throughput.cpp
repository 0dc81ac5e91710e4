/**
 * @file
 * google-benchmark throughput study of the fleet decision server
 * (serve::runFleet).
 *
 * BM_FleetServed runs the server's one configuration: every session's
 * governor scores candidates through the shared Random Forest, whose
 * own prediction table memoizes them for all sessions. The forest is
 * built once per process and retains its table across iterations, so
 * after the first iteration the table is warm and the benchmark
 * measures steady-state serving (governors, sessions, queues and table
 * hits), not forest walks. Every configuration produces byte-identical
 * traces (pinned by test_fleet_determinism).
 *
 * Two sharded studies ride on the same workload: BM_FleetSharded
 * splits the 64-session fleet over tenant-hash shards (per-shard
 * session managers and queues, drained by one work-stealing pool), and BM_FleetMassive holds a 100k-session synthetic fleet with
 * overload shedding enabled - the scale study behind the "Fleet
 * serving" numbers in README/DESIGN. Every benchmark stamps decision
 * latency percentiles (latency_p50/p95/p99_ns) and the massive run its
 * shed_rate, so perf_compare.py tracks tails, not just rates.
 *
 * The committed baseline lives at docs/perf/BENCH_fleet.json
 * (BM_FleetServed, sessions = 1, 8, 64); the sharded/massive baseline at
 * docs/perf/BENCH_fleet_sharded.json. Regenerate with:
 *
 *     ./build/bench/bench_fleet_throughput \
 *         --benchmark_out=docs/perf/BENCH_fleet.json \
 *         --benchmark_out_format=json
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "harness.hpp"
#include "ml/trainer.hpp"
#include "serve/server.hpp"

using namespace gpupm;

namespace {

/** The bench-standard forest (same shape as bench_micro_runtime). */
std::shared_ptr<const ml::RandomForestPredictor>
forest()
{
    static std::shared_ptr<const ml::RandomForestPredictor> rf = [] {
        ml::TrainerOptions opts;
        opts.corpusSize = 24;
        opts.configStride = 3;
        opts.forest.numTrees = 60;
        return std::shared_ptr<const ml::RandomForestPredictor>(
            ml::trainRandomForestPredictor(opts));
    }();
    return rf;
}

serve::FleetOptions
fleet(std::size_t sessions)
{
    serve::FleetOptions opts;
    // Regular repeating benchmarks: the serving workload the prediction
    // table is designed for. Sessions interleave on the workers and
    // keep hitting the predictor's table.
    opts.apps = {"mandelbulbGPU", "NBody"};
    opts.sessionCount = sessions;
    opts.cpuPhaseJitter = 0.3;
    opts.seed = 0x90d1ULL;
    return opts;
}

void
report(benchmark::State &state, const serve::FleetResult &last,
       std::size_t decisions)
{
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * decisions));
    state.counters["decisions_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * decisions),
        benchmark::Counter::kIsRate);
    const auto lat = bench::LatencySummary::fromSnapshot(
        last.metrics, "serve.decision_latency_ns");
    state.counters["latency_p50_ns"] = lat.p50;
    state.counters["latency_p95_ns"] = lat.p95;
    state.counters["latency_p99_ns"] = lat.p99;
    state.counters["shed_rate"] =
        last.decisions > 0
            ? static_cast<double>(last.degradedDecisions) /
                  static_cast<double>(last.decisions)
            : 0.0;
}

/** The fleet server on the served workload, one shard. */
void
BM_FleetServed(benchmark::State &state)
{
    const auto sessions = static_cast<std::size_t>(state.range(0));
    auto opts = fleet(sessions);
    // Eight workers regardless of core count, as in the committed
    // baseline: on a small host the oversubscription costs little
    // (decisions time-slice).
    opts.server.jobs = 8;

    forest(); // train outside the timed region
    serve::FleetResult last;
    for (auto _ : state)
        last = serve::runFleet(forest(), opts);
    report(state, last, last.decisions);
}
BENCHMARK(BM_FleetServed)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * The sharded server on the served workload: tenant-hash shards split
 * the session-manager locks and queues, the one pool work-steals
 * across shard queues. Args are {shards, jobs} at a fixed 64
 * sessions - worker oversubscription trades against context-switch
 * cost, so both axes are in the committed baseline.
 */
void
BM_FleetSharded(benchmark::State &state)
{
    const auto shards = static_cast<std::size_t>(state.range(0));
    const auto jobs = static_cast<std::size_t>(state.range(1));
    auto opts = fleet(64);
    opts.server.jobs = jobs;
    opts.server.shards = shards;

    forest(); // train outside the timed region
    serve::FleetResult last;
    for (auto _ : state)
        last = serve::runFleet(forest(), opts);
    report(state, last, last.decisions);
}
BENCHMARK(BM_FleetSharded)
    ->Args({2, 8})
    ->Args({4, 8})
    ->Args({8, 8})
    ->Args({8, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Scale study: 100k concurrent sessions drawn from a pool of small
 * synthetic applications, sharded 8 ways with overload shedding armed.
 * One iteration is one complete fleet (hundreds of thousands of
 * decisions); the interesting outputs are the latency percentiles and
 * shed_rate counters, not the per-iteration wall time.
 */
void
BM_FleetMassive(benchmark::State &state)
{
    const auto sessions = static_cast<std::size_t>(state.range(0));
    serve::FleetOptions opts;
    opts.sessionCount = sessions;
    opts.syntheticKernels = 2;
    opts.seed = 0x90d1ULL;
    opts.session.optimizedRuns = 1;
    opts.server.jobs = 8;
    opts.server.shards = 8;
    opts.server.shed.enabled = true;
    opts.server.shed.targetDepth = 512;

    forest(); // train outside the timed region
    serve::FleetResult last;
    for (auto _ : state)
        last = serve::runFleet(forest(), opts);
    report(state, last, last.decisions);
    state.counters["sessions"] =
        static_cast<double>(last.sessions);
}
BENCHMARK(BM_FleetMassive)
    ->Arg(100000)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
