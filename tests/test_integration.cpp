/**
 * @file
 * End-to-end properties across governors, mirroring the paper's
 * headline relations: Theoretically Optimal dominates, MPC approaches
 * it, PPK trails on irregular applications, and repeated executions
 * amortize the profiling cost (Fig. 11).
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/stats.hpp"
#include "ml/error_model.hpp"
#include "ml/predictor.hpp"
#include "mpc/governor.hpp"
#include "policy/oracle.hpp"
#include "policy/ppk.hpp"
#include "policy/turbo_core.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmarks.hpp"

namespace gpupm {
namespace {

std::shared_ptr<const ml::PerfPowerPredictor>
truth()
{
    static auto p = std::make_shared<ml::GroundTruthPredictor>(hw::ApuParams::defaults());
    return p;
}

struct Bench
{
    workload::Application app;
    sim::RunResult baseline;
    Throughput target;

    explicit Bench(const std::string &name)
        : app(workload::makeBenchmark(name))
    {
        sim::Simulator sim{hw::paperApu()};
        policy::TurboCoreGovernor turbo{hw::paperApu()};
        baseline = sim.run(app, turbo);
        target = baseline.throughput();
    }

    sim::RunResult
    runMpc(int executions = 2, const mpc::MpcOptions &opts = {}) const
    {
        sim::Simulator sim{hw::paperApu()};
        mpc::MpcGovernor gov(truth(), opts, hw::paperApu());
        sim::RunResult last;
        for (int i = 0; i < executions; ++i)
            last = sim.run(app, gov, target);
        return last;
    }
};

/** TO with perfect knowledge must be the best energy at target perf. */
class SchemeOrdering : public testing::TestWithParam<std::string>
{
};

TEST_P(SchemeOrdering, OracleDominatesMpc)
{
    Bench b(GetParam());
    sim::Simulator sim{hw::paperApu()};

    policy::TheoreticallyOptimalGovernor oracle(b.app, hw::paperApu());
    auto to = sim.run(b.app, oracle, b.target);

    // MPC in limit-study form (no overheads, full horizon, perfect
    // prediction) must not beat the optimal plan by more than the DP
    // discretization slack.
    mpc::MpcOptions limit;
    limit.chargeOverhead = false;
    limit.overhead = policy::OverheadModel::free();
    limit.horizonMode = mpc::HorizonMode::Full;
    auto mpc_run = b.runMpc(2, limit);

    if (sim::speedup(b.baseline, mpc_run) >= 1.0) {
        EXPECT_LE(to.totalEnergy(), mpc_run.totalEnergy() * 1.02)
            << GetParam();
    }
    // TO meets the target, modulo unplanned DVFS transition stalls
    // (Eq. 1 has no sequence coupling).
    EXPECT_GE(sim::speedup(b.baseline, to), 0.985);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SchemeOrdering,
                         testing::ValuesIn(workload::benchmarkNames()));

TEST(Integration, AmortizationImprovesWithReexecution)
{
    // Fig. 11: cumulative MPC results approach steady state as the
    // application re-executes; the first (profiling) run is the worst.
    Bench b("Spmv");
    sim::Simulator sim{hw::paperApu()};
    mpc::MpcGovernor gov(truth(), {}, hw::paperApu());

    auto first = sim.run(b.app, gov, b.target);
    Seconds cumulative = first.totalTime();
    std::vector<double> avg_speedup;
    for (int run = 1; run <= 10; ++run) {
        auto r = sim.run(b.app, gov, b.target);
        cumulative += r.totalTime();
        avg_speedup.push_back(b.baseline.totalTime() /
                              (cumulative / (run + 1)));
    }
    // The profiling run's PPK performance loss amortizes away: the
    // cumulative average speedup keeps improving with re-execution.
    EXPECT_GT(avg_speedup.back(), avg_speedup.front());
    EXPECT_GT(avg_speedup.back(), 0.9);
}

TEST(Integration, SteadyStateRunsAreStable)
{
    // After the pattern is learned, repeated runs converge: the last
    // two runs should be close in both time and energy.
    Bench b("EigenValue");
    sim::Simulator sim{hw::paperApu()};
    mpc::MpcGovernor gov(truth(), {}, hw::paperApu());
    sim::RunResult prev, cur;
    for (int i = 0; i < 6; ++i) {
        prev = cur;
        cur = sim.run(b.app, gov, b.target);
    }
    EXPECT_NEAR(cur.totalEnergy(), prev.totalEnergy(),
                0.05 * prev.totalEnergy());
}

TEST(Integration, PerfectPredictionMpcNearOracleEnergy)
{
    // Paper Fig. 12: MPC achieves ~92% of the theoretical energy
    // savings. Require at least ~60% on average in our reproduction.
    std::vector<double> fractions;
    for (const auto &name : workload::benchmarkNames()) {
        Bench b(name);
        sim::Simulator sim{hw::paperApu()};
        policy::TheoreticallyOptimalGovernor oracle(b.app, hw::paperApu());
        auto to = sim.run(b.app, oracle, b.target);

        mpc::MpcOptions limit;
        limit.chargeOverhead = false;
        limit.overhead = policy::OverheadModel::free();
        limit.horizonMode = mpc::HorizonMode::Full;
        auto m = b.runMpc(3, limit);

        const double to_sav = sim::energySavingsPct(b.baseline, to);
        const double mpc_sav = sim::energySavingsPct(b.baseline, m);
        if (to_sav > 1.0)
            fractions.push_back(mpc_sav / to_sav);
    }
    ASSERT_FALSE(fractions.empty());
    EXPECT_GT(mean(fractions), 0.6);
}

TEST(Integration, NoisyPredictorStillSavesEnergy)
{
    // Fig. 13: MPC is robust to prediction error thanks to feedback
    // and its local search.
    auto noisy = std::make_shared<ml::NoisyOraclePredictor>(0.15, 0.10, 0xe44ULL, hw::ApuParams::defaults());
    Bench b("Spmv");
    sim::Simulator sim{hw::paperApu()};
    mpc::MpcGovernor gov(noisy, {}, hw::paperApu());
    sim.run(b.app, gov, b.target);
    auto r = sim.run(b.app, gov, b.target);
    EXPECT_GT(sim::energySavingsPct(b.baseline, r), 10.0);
    EXPECT_GT(sim::speedup(b.baseline, r), 0.90);
}

TEST(Integration, MpcOverheadIsSmall)
{
    // Fig. 14: adaptive-horizon MPC keeps the charged overhead well
    // under 1% of baseline energy and ~1% of time.
    for (const auto &name : {"Spmv", "hybridsort", "lud"}) {
        Bench b(name);
        auto r = b.runMpc(2);
        EXPECT_LT(sim::overheadEnergyPct(b.baseline, r), 1.0) << name;
        EXPECT_LT(sim::overheadTimePct(b.baseline, r), 2.0) << name;
    }
}

TEST(Integration, AdaptiveBeatsFullHorizonWithOverheads)
{
    // Sec. VI-E: once overheads are charged, the adaptive scheme wins
    // on performance for overhead-sensitive (short-kernel) apps.
    Bench b("Spmv");

    mpc::MpcOptions adaptive; // default
    auto ra = b.runMpc(2, adaptive);

    mpc::MpcOptions full;
    full.horizonMode = mpc::HorizonMode::Full;
    auto rf = b.runMpc(2, full);

    EXPECT_GE(sim::speedup(b.baseline, ra) + 0.02,
              sim::speedup(b.baseline, rf));
}

TEST(Integration, ChipWideEnergyDecomposes)
{
    Bench b("kmeans");
    auto r = b.runMpc(2);
    EXPECT_NEAR(r.totalEnergy(), r.cpuEnergy + r.gpuEnergy, 1e-9);
    EXPECT_GT(r.cpuEnergy, 0.0);
    EXPECT_GT(r.gpuEnergy, 0.0);
}

} // namespace
} // namespace gpupm
