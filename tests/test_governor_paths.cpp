/**
 * @file
 * Targeted coverage of the MPC governor's less-travelled paths: the
 * broken-pattern fallback, window-wide headroom reservation, horizon
 * modes beyond N, uniform pacing end-to-end, and interaction with CPU
 * phases.
 */

#include <gtest/gtest.h>

#include <memory>

#include "ml/predictor.hpp"
#include "mpc/governor.hpp"
#include "policy/turbo_core.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmarks.hpp"
#include "workload/training.hpp"

namespace gpupm::mpc {
namespace {

std::shared_ptr<const ml::PerfPowerPredictor>
truth()
{
    static auto p = std::make_shared<ml::GroundTruthPredictor>(hw::ApuParams::defaults());
    return p;
}

/** Two applications that share a name but differ in content. */
workload::Application
variantOf(const workload::Application &app, double scale)
{
    workload::Application out = app;
    for (auto &inv : out.trace)
        inv.params = inv.params.withInputScale(scale);
    return out;
}

TEST(GovernorPaths, BrokenSequenceDegradesGracefully)
{
    // Learn kmeans, then run a variant whose kernels have 4x the work:
    // the signatures differ, the learned sequence breaks, and the
    // governor must fall back without crashing or collapsing.
    auto app = workload::makeBenchmark("kmeans");
    auto changed = variantOf(app, 4.0);
    changed.name = app.name; // same application identity

    sim::Simulator sim{hw::paperApu()};
    policy::TurboCoreGovernor turbo{hw::paperApu()};
    auto base_changed = sim.run(changed, turbo);

    MpcGovernor gov(truth(), {}, hw::paperApu());
    sim.run(app, gov, base_changed.throughput());     // learns original
    sim.run(app, gov, base_changed.throughput());     // optimizes
    auto r = sim.run(changed, gov, base_changed.throughput());

    EXPECT_GT(sim::speedup(base_changed, r), 0.85);
    EXPECT_LT(r.totalEnergy(), base_changed.totalEnergy() * 1.05);
}

TEST(GovernorPaths, WindowReservationProtectsSlowTail)
{
    // Two-kernel app: a fast compute kernel then a slow unscalable
    // one. With the window-wide reservation, the first kernel must not
    // consume slack the tail needs: the end-of-run throughput stays
    // near target.
    auto corpus = workload::trainingCorpus(8, 0x7a11);
    workload::Application app;
    app.name = "head-tail";
    kernel::KernelParams fast = corpus[0];
    fast.archetype = kernel::Archetype::ComputeBound;
    fast.valuInstsPerItem = 1500.0;
    fast.bytesPerItem = 16.0;
    fast.serialSeconds = 0.0;
    kernel::KernelParams slow = corpus[1];
    slow.archetype = kernel::Archetype::Unscalable;
    slow.serialSeconds = 20e-3;
    slow.workItems = 2e5;
    slow.valuInstsPerItem = 40.0;
    for (int i = 0; i < 4; ++i)
        app.trace.push_back({fast, 'A'});
    for (int i = 0; i < 4; ++i)
        app.trace.push_back({slow, 'B'});

    sim::Simulator sim{hw::paperApu()};
    policy::TurboCoreGovernor turbo{hw::paperApu()};
    auto base = sim.run(app, turbo);
    MpcGovernor gov(truth(), {}, hw::paperApu());
    sim.run(app, gov, base.throughput());
    auto r = sim.run(app, gov, base.throughput());
    EXPECT_GT(sim::speedup(base, r), 0.93);
}

TEST(GovernorPaths, FixedHorizonLargerThanNClamps)
{
    auto app = workload::makeBenchmark("XSBench"); // N = 6
    sim::Simulator sim{hw::paperApu()};
    policy::TurboCoreGovernor turbo{hw::paperApu()};
    auto base = sim.run(app, turbo);

    MpcOptions opts;
    opts.horizonMode = HorizonMode::Fixed;
    opts.fixedHorizon = 100; // >> N
    MpcGovernor gov(truth(), opts, hw::paperApu());
    sim.run(app, gov, base.throughput());
    auto r = sim.run(app, gov, base.throughput());
    EXPECT_GT(sim::speedup(base, r), 0.9);
    EXPECT_GT(sim::energySavingsPct(base, r), 10.0);
}

TEST(GovernorPaths, UniformPacingEndToEnd)
{
    // The paper's exact budget formula still produces a working
    // governor (just with smaller horizons for front-loaded apps).
    auto app = workload::makeBenchmark("kmeans");
    sim::Simulator sim{hw::paperApu()};
    policy::TurboCoreGovernor turbo{hw::paperApu()};
    auto base = sim.run(app, turbo);

    MpcOptions uniform;
    uniform.uniformPacing = true;
    MpcGovernor gov(truth(), uniform, hw::paperApu());
    sim.run(app, gov, base.throughput());
    auto r = sim.run(app, gov, base.throughput());
    EXPECT_GT(sim::speedup(base, r), 0.9);

    MpcGovernor profiled(truth(), {}, hw::paperApu());
    sim.run(app, profiled, base.throughput());
    auto rp = sim.run(app, profiled, base.throughput());
    // Both pacing modes hold the performance constraint; the fleet-wide
    // horizon comparison lives in bench_ablation (per-app ordering can
    // go either way through feedback interactions).
    EXPECT_GT(sim::speedup(base, rp), 0.9);
}

TEST(GovernorPaths, PhasesHideDecisionLatency)
{
    auto app = workload::withCpuPhases(
        workload::makeBenchmark("Spmv"), 0.5);
    sim::Simulator sim{hw::paperApu()};
    policy::TurboCoreGovernor turbo{hw::paperApu()};
    auto base = sim.run(app, turbo);

    MpcGovernor gov(truth(), {}, hw::paperApu());
    sim.run(app, gov, base.throughput());
    auto r = sim.run(app, gov, base.throughput());
    EXPECT_GT(sim::speedup(base, r), 0.93);
    // All decision latency hidden by the phases.
    EXPECT_NEAR(sim::overheadTimePct(base, r), 0.0, 0.05);
}

TEST(GovernorPaths, ZeroAlphaStaysNearBaseline)
{
    // alpha = 0: no overhead budget at all -> horizons pinned to 0,
    // cached/boost decisions only; performance stays very close to
    // baseline at reduced savings.
    auto app = workload::makeBenchmark("Spmv");
    sim::Simulator sim{hw::paperApu()};
    policy::TurboCoreGovernor turbo{hw::paperApu()};
    auto base = sim.run(app, turbo);

    MpcOptions opts;
    opts.qos.alpha = 0.0;
    MpcGovernor gov(truth(), opts, hw::paperApu());
    sim.run(app, gov, base.throughput());
    auto r = sim.run(app, gov, base.throughput());
    EXPECT_GT(sim::speedup(base, r), 0.93);
    EXPECT_LT(r.overheadTime, 1e-3);
}

TEST(GovernorPaths, TightAlphaReducesOverheadVsLooseAlpha)
{
    auto app = workload::makeBenchmark("Spmv");
    sim::Simulator sim{hw::paperApu()};
    policy::TurboCoreGovernor turbo{hw::paperApu()};
    auto base = sim.run(app, turbo);

    auto run_with_alpha = [&](double alpha) {
        MpcOptions opts;
        opts.qos.alpha = alpha;
        MpcGovernor gov(truth(), opts, hw::paperApu());
        sim.run(app, gov, base.throughput());
        return sim.run(app, gov, base.throughput());
    };
    auto tight = run_with_alpha(0.01);
    auto loose = run_with_alpha(0.20);
    EXPECT_LE(tight.overheadTime, loose.overheadTime + 1e-9);
}

} // namespace
} // namespace gpupm::mpc
