/**
 * @file
 * Sim/serve parity: the same (predictor, hardware model, QoS) makes the
 * same decisions in process and in the fleet server. For every catalog
 * model, uniform-alpha and deadline QoS, and the perfect and Random
 * Forest predictors, Simulator::run driving an MpcGovernor through the
 * paper's schedule (Turbo baseline, then one profiling run and the
 * optimized runs) and a one-session deterministic fleet must record
 * equal config index, path tag and evaluation count for every
 * decision. Both paths score candidates through the same predictor on
 * the governed model's descriptors (ml::PredictionQuery::model).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hw/model.hpp"
#include "ml/predictor.hpp"
#include "ml/trainer.hpp"
#include "mpc/governor.hpp"
#include "policy/turbo_core.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "trace/decision.hpp"
#include "workload/benchmarks.hpp"

namespace gpupm {
namespace {

constexpr char kApp[] = "color";
constexpr std::size_t kOptimizedRuns = 2;

std::shared_ptr<const ml::PerfPowerPredictor>
forest()
{
    static const std::shared_ptr<const ml::PerfPowerPredictor> rf = [] {
        ml::TrainerOptions opts;
        opts.corpusSize = 16;
        opts.configStride = 4;
        opts.forest.numTrees = 8;
        return std::shared_ptr<const ml::PerfPowerPredictor>(
            ml::trainRandomForestPredictor(opts));
    }();
    return rf;
}

/** Decisions of the in-process schedule, in decision order. */
std::vector<trace::DecisionRecord>
simulate(const std::shared_ptr<const ml::PerfPowerPredictor> &pred,
         const hw::HardwareModelPtr &model, const mpc::MpcOptions &mpc)
{
    const auto app = workload::makeBenchmark(kApp);
    sim::Simulator sim(model);
    policy::TurboCoreGovernor turbo(model);
    const Throughput target =
        mpc.qos.scaleTarget(sim.run(app, turbo).throughput());
    mpc::MpcGovernor governor(pred, mpc, model);
    trace::DecisionLog log;
    governor.setDecisionSink(&log);
    for (std::size_t run = 0; run < 1 + kOptimizedRuns; ++run)
        sim.run(app, governor, target);
    return log.take();
}

/** Decisions of a one-session deterministic fleet, in decision order. */
std::vector<trace::DecisionRecord>
serve(const std::shared_ptr<const ml::PerfPowerPredictor> &pred,
      const hw::HardwareModelPtr &model, const mpc::MpcOptions &mpc)
{
    trace::DecisionLog log;
    serve::FleetOptions opts;
    opts.apps = {kApp};
    opts.sessionCount = 1;
    opts.server.model = model;
    opts.session.mpc = mpc;
    opts.session.optimizedRuns = kOptimizedRuns;
    opts.decisionSink = &log;
    serve::runFleet(pred, opts);
    return log.take();
}

TEST(SimServeParity, EveryModelQosAndPredictorDecidesAlike)
{
    for (const auto &name : hw::HardwareCatalog::instance().names()) {
        const auto model = hw::HardwareCatalog::instance().get(name);
        for (const bool deadline : {false, true}) {
            mpc::MpcOptions mpc;
            if (deadline)
                mpc.qos = mpc::QosSpec::deadline(1.25);
            for (const bool rf : {false, true}) {
                SCOPED_TRACE(name + (deadline ? " deadline" : " uniform") +
                             (rf ? " rf" : " perfect"));
                const auto pred =
                    rf ? forest()
                       : std::make_shared<const ml::GroundTruthPredictor>(
                             model->params());
                const auto in_process = simulate(pred, model, mpc);
                const auto served = serve(pred, model, mpc);
                ASSERT_FALSE(in_process.empty());
                ASSERT_EQ(in_process.size(), served.size());
                std::size_t differ = 0;
                for (std::size_t i = 0; i < served.size(); ++i) {
                    const auto &a = in_process[i];
                    const auto &b = served[i];
                    ASSERT_EQ(a.run, b.run);
                    ASSERT_EQ(a.index, b.index);
                    differ += a.configIndex != b.configIndex ||
                              a.tag != b.tag ||
                              a.evaluations != b.evaluations;
                }
                EXPECT_EQ(differ, 0u)
                    << differ << " of " << served.size()
                    << " decisions differ between sim and serve";
            }
        }
    }
}

} // namespace
} // namespace gpupm
