/**
 * @file
 * google-benchmark study of the fleet power-cap arbitration subsystem:
 * a 16-session fleet is run uncapped and against a ladder of fleet
 * budgets, and every run stamps the measured fleet power, its fraction
 * of the budget, the cap-violation rate, the cap-limited decision
 * rate, and Jain's fairness index over per-session mean power.
 *
 * What the numbers mean:
 *  - fleet_power_w: sum over sessions of (session energy / session
 *    wall time) - the aggregate draw of the fleet were the sessions
 *    co-resident, which is exactly what the arbiter budgets for.
 *  - power_over_cap: fleet power / budget. The acceptance contract is
 *    that a *binding* cap (one below the uncapped draw but above the
 *    fleet's DVFS floor) converges to within 5% of the budget, i.e.
 *    power_over_cap in [0.95, 1.05]; the uncapped run stamps 0.
 *  - violation_rate: decisions whose measured step power exceeded the
 *    session's enforced cap, over all decisions. Nonzero under a tight
 *    cap (the controller is reactive, not clairvoyant); the windowed
 *    throttle is what pulls the *average* under the budget.
 *  - jain_index: (sum p_i)^2 / (n * sum p_i^2) over per-session mean
 *    power - 1.0 is perfectly even, 1/n is maximally skewed. The
 *    equal-share policy on a homogeneous fleet should stay near 1.
 *
 * Both benchmarks time wall clock (UseRealTime): the fleet's workers
 * do the deciding while the main thread waits, so a rate over the main
 * thread's CPU time would overstate throughput about a hundredfold.
 *
 * The committed baseline lives at docs/perf/BENCH_powercap.json; the
 * bench-powercap-compare target gates it. It was recorded on a 4-vCPU
 * x86-64 VM (2.0 GHz, AVX2) with the default RelWithDebInfo build,
 * google-benchmark's library as packaged (reports a debug build), and
 * --simd=auto resolving to avx2/int16. perf_compare.py refuses a
 * candidate whose CPU count, benchmark library build type or inference
 * engine differs. Regenerate with:
 *
 *     ./build/bench/bench_fleet_powercap --simd=auto \
 *         --benchmark_out=docs/perf/BENCH_powercap.json \
 *         --benchmark_out_format=json
 */

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_simd_main.hpp"
#include "harness.hpp"
#include "ml/trainer.hpp"
#include "serve/server.hpp"

using namespace gpupm;

namespace {

constexpr std::size_t kSessions = 16;

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
cappedFleet(Watts budget)
{
    serve::FleetOptions opts;
    opts.apps = {"mandelbulbGPU", "NBody"};
    opts.sessionCount = kSessions;
    opts.cpuPhaseJitter = 0.3;
    opts.seed = 0x90d1ULL;
    opts.server.jobs = 4;
    // Enough optimized runs for the windowed throttle to settle: the
    // controller acts once per violation window, so convergence is
    // measured on the tail (see tailPower), not the transient.
    opts.session.optimizedRuns = 24;
    // Re-optimize every decision instead of replaying per-kernel
    // cached choices: a cached config picked under yesterday's cap is
    // exactly what a power study must not replay, and the full
    // hill-climb is what tracks the moving per-session cap.
    opts.session.kernelCacheCap = 0;
    opts.server.powercap.budgetWatts = budget;
    opts.server.powercap.window = 8;
    return opts;
}

/**
 * Per-session mean power (energy / wall) recovered from the trace,
 * restricted to runs >= @p fromRun (0 = the whole stream).
 */
std::map<serve::SessionId, double>
sessionPower(const serve::FleetResult &result, std::size_t fromRun)
{
    std::map<serve::SessionId, double> energy;
    std::map<serve::SessionId, double> wall;
    for (const auto &rec : result.trace) {
        if (rec.run < fromRun)
            continue;
        const double e = rec.cpuEnergy + rec.gpuEnergy;
        energy[rec.session] += e;
        if (rec.measuredPower > 0.0)
            wall[rec.session] += e / rec.measuredPower;
    }
    std::map<serve::SessionId, double> power;
    for (const auto &[id, e] : energy)
        if (wall[id] > 0.0)
            power[id] = e / wall[id];
    return power;
}

void
report(benchmark::State &state, const serve::FleetResult &last,
       Watts budget)
{
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * last.decisions));
    state.counters["decisions_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * last.decisions),
        benchmark::Counter::kIsRate);

    const auto power = sessionPower(last, 0);
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const auto &[id, p] : power) {
        sum += p;
        sum_sq += p * p;
    }
    const double n = static_cast<double>(power.size());
    state.counters["fleet_power_w"] = sum;
    state.counters["jain_index"] =
        n > 0.0 && sum_sq > 0.0 ? (sum * sum) / (n * sum_sq) : 0.0;

    // Convergence: the fleet draw over the last third of the runs,
    // after the windowed throttle has settled.
    const auto tail = sessionPower(last, 17);
    double tail_sum = 0.0;
    for (const auto &[id, p] : tail)
        tail_sum += p;
    state.counters["tail_power_w"] = tail_sum;
    state.counters["power_over_cap"] =
        budget > 0.0 ? tail_sum / budget : 0.0;

    const double decisions = static_cast<double>(last.decisions);
    state.counters["violation_rate"] =
        decisions > 0.0
            ? static_cast<double>(last.capViolations) / decisions
            : 0.0;
    state.counters["cap_limited_rate"] =
        decisions > 0.0
            ? static_cast<double>(last.capLimitedDecisions) / decisions
            : 0.0;
}

/**
 * Fleet energy vs cap: range(0) is the fleet budget in watts
 * (0 = uncapped reference).
 */
void
BM_FleetPowercap(benchmark::State &state)
{
    const auto budget = static_cast<Watts>(state.range(0));
    auto opts = cappedFleet(budget);

    forest(); // train outside the timed region
    serve::FleetResult last;
    for (auto _ : state)
        last = serve::runFleet(forest(), opts);
    report(state, last, budget);
}
BENCHMARK(BM_FleetPowercap)
    // The fleet's achievable band is narrow - the MPC is already
    // energy-optimal uncapped (~605 W) and its min-power floor with
    // CPU phases measures ~580 W - so the ladder brackets that band:
    ->Arg(0)   // uncapped reference draw
    ->Arg(600) // binding + feasible: the 5%-convergence acceptance rung
    ->Arg(560) // at the floor: converges just over budget (~3%)
    ->Arg(500) // infeasible: throttle pins at floor, violations persist
    // Workers decide; the main thread only waits. Rates must divide by
    // wall time, not by the main thread's CPU time.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/** Usage-proportional split on the same fleet (fairness contrast). */
void
BM_FleetPowercapUsageSplit(benchmark::State &state)
{
    const auto budget = static_cast<Watts>(state.range(0));
    auto opts = cappedFleet(budget);
    opts.server.powercap.policy =
        powercap::SplitPolicy::UsageProportional;

    forest();
    serve::FleetResult last;
    for (auto _ : state)
        last = serve::runFleet(forest(), opts);
    report(state, last, budget);
}
BENCHMARK(BM_FleetPowercapUsageSplit)
    ->Arg(600)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    return bench::simdBenchmarkMain(argc, argv);
}
