/**
 * @file
 * google-benchmark throughput study of the fleet decision server
 * (serve::runFleet) against the naive one-session-at-a-time baseline.
 *
 * The baseline disables everything the serve subsystem adds: no
 * kernel prediction cache (kernelCacheCap = 0, so every decision
 * re-walks the forests through the predictor's one-entry thread_local
 * memo, which thrashes under session interleaving) and no inference
 * broker. The served configuration is the server's default: the
 * fleet-shared kernel prediction table plus cross-session batched
 * FlatForest walks. Both run the identical fleet workload and produce
 * byte-identical traces (pinned by test_fleet_determinism); only the
 * decisions-per-second differ.
 *
 * Two sharded studies ride on the same workload: BM_FleetSharded
 * splits the 64-session fleet over tenant-hash shards (per-shard
 * session managers, brokers and queues, drained by one work-stealing
 * pool), and BM_FleetMassive holds a 100k-session synthetic fleet with
 * overload shedding enabled - the scale study behind the "Fleet
 * serving" numbers in README/DESIGN. Every benchmark stamps decision
 * latency percentiles (latency_p50/p95/p99_ns) and the massive run its
 * shed_rate, so perf_compare.py tracks tails, not just rates.
 *
 * The committed baseline lives at docs/perf/BENCH_fleet.json
 * (sessions = 1, 8, 64); the sharded/massive baseline at
 * docs/perf/BENCH_fleet_sharded.json. Regenerate with:
 *
 *     ./build/bench/bench_fleet_throughput \
 *         --benchmark_out=docs/perf/BENCH_fleet.json \
 *         --benchmark_out_format=json
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_simd_main.hpp"
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
    // Regular repeating benchmarks: the serving workload the session
    // cache is designed for. Sessions interleave on the workers, so
    // the raw predictor's one-entry thread_local memo thrashes while
    // the per-session caches keep hitting.
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
    const auto it =
        last.metrics.histograms.find("broker.batch_requests");
    state.counters["batch_mean_requests"] =
        it != last.metrics.histograms.end() ? it->second.mean : 1.0;
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

/**
 * Naive serving: one worker steps sessions round-robin with no session
 * cache and no broker - what hosting N tenants on the raw predictor
 * costs.
 */
void
BM_FleetNaiveSequential(benchmark::State &state)
{
    const auto sessions = static_cast<std::size_t>(state.range(0));
    auto opts = fleet(sessions);
    opts.server.jobs = 1;
    opts.server.batching = false;
    opts.session.kernelCacheCap = 0;

    forest(); // train outside the timed region
    serve::FleetResult last;
    for (auto _ : state)
        last = serve::runFleet(forest(), opts);
    report(state, last, last.decisions);
}
// UseRealTime: the fleet runs on the server's worker threads while the
// driver blocks, so wall clock (not the driver's CPU time) is the
// meaningful denominator for the rate counters.
BENCHMARK(BM_FleetNaiveSequential)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * The fleet server's default path: the fleet-shared prediction table,
 * misses coalesced across sessions by the inference broker.
 */
void
BM_FleetServed(benchmark::State &state)
{
    const auto sessions = static_cast<std::size_t>(state.range(0));
    auto opts = fleet(sessions);
    // Eight workers regardless of core count: on a small host the
    // oversubscription costs nothing (decisions time-slice) and keeps
    // several decisions in flight, which is what lets the broker
    // coalesce their evaluations (see batch_mean_requests).
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
 * the session-manager and broker locks, the one pool work-steals
 * across shard queues. Args are {shards, jobs} at a fixed 64
 * sessions - on a single-core host the winning config trades worker
 * oversubscription (broker coalescing) against context-switch cost,
 * so both axes are in the committed baseline.
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
    opts.session.kernelCacheCap = 2;
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

int
main(int argc, char **argv)
{
    return bench::simdBenchmarkMain(argc, argv);
}
