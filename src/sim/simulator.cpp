#include "sim/simulator.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "trace/trace.hpp"

namespace gpupm::sim {

Simulator::Simulator(hw::HardwareModelPtr model)
    : _model(std::move(model))
{
    GPUPM_ASSERT(_model != nullptr, "simulator needs a hardware model");
}

Observation
executeInvocation(kernel::Apu &apu, const hw::HardwareModel &model,
                  std::optional<hw::HwConfig> &platform, std::size_t index,
                  const workload::KernelInvocation &inv,
                  const Decision &decision, RunResult &run)
{
    GPUPM_ASSERT(decision.overheadTime >= 0.0,
                 "negative decision overhead");

    KernelRecord rec;
    rec.index = index;
    rec.tag = inv.tag;
    rec.kernelName = inv.params.name;
    rec.config = decision.config;

    // A host CPU phase before the launch (Fig. 1). While it runs, an
    // idle core can execute the governor, hiding its latency
    // (Sec. VI-E); only the excess is exposed on the critical path.
    rec.cpuPhaseTime = inv.cpuPhaseSeconds;
    rec.hiddenOverheadTime =
        std::min(decision.overheadTime, rec.cpuPhaseTime);
    rec.overheadTime = decision.overheadTime - rec.hiddenOverheadTime;

    if (rec.cpuPhaseTime > 0.0) {
        // The application phase keeps the CPU busy at the boost state
        // (Turbo Core raises the CPU when it is loaded).
        const auto phase =
            apu.runHost(rec.cpuPhaseTime, model.maxPerformance());
        rec.cpuPhaseCpuEnergy = phase.cpuEnergy;
        rec.cpuPhaseGpuEnergy = phase.gpuEnergy;
    }
    if (decision.overheadTime > 0.0) {
        // The optimizer's energy is charged in full even when its
        // latency hides inside the phase - the work still happens.
        const auto host = apu.runHost(decision.overheadTime,
                                      kernel::Apu::governorHostConfig());
        rec.overheadCpuEnergy = host.cpuEnergy;
        rec.overheadGpuEnergy = host.gpuEnergy;
    }

    if (platform && *platform != decision.config) {
        const auto sw = apu.reconfigure(*platform, decision.config);
        rec.transitionTime = sw.time;
        rec.transitionCpuEnergy = sw.cpuEnergy;
        rec.transitionGpuEnergy = sw.gpuEnergy;
    }
    platform = decision.config;

    Observation obs;
    obs.index = index;
    obs.tag = inv.tag;
    obs.measurement = apu.run(inv.params, decision.config);
    obs.kernelTruth = &inv.params;
    const auto &m = obs.measurement;
    rec.kernelTime = m.time;
    rec.kernelCpuEnergy = m.cpuEnergy;
    rec.kernelGpuEnergy = m.gpuEnergy;
    rec.instructions = m.instructions;
    obs.nonKernelTime =
        rec.overheadTime + rec.cpuPhaseTime + rec.transitionTime;

    run.kernelTime += rec.kernelTime;
    run.overheadTime += rec.overheadTime;
    run.cpuPhaseTime += rec.cpuPhaseTime;
    run.transitionTime += rec.transitionTime;
    run.cpuEnergy += rec.cpuEnergy();
    run.gpuEnergy += rec.gpuEnergy();
    run.overheadEnergy += rec.overheadCpuEnergy + rec.overheadGpuEnergy;
    run.instructions += rec.instructions;
    run.records.push_back(std::move(rec));
    return obs;
}

RunResult
Simulator::run(const workload::Application &app, Governor &governor,
               Throughput target_throughput)
{
    GPUPM_ASSERT(!app.trace.empty(), "application '", app.name,
                 "' has an empty trace");

    trace::Span run_span(trace::Category::Sim, "sim.run", "invocations",
                         static_cast<double>(app.trace.size()));

    kernel::Apu apu(_model->params());
    governor.beginRun(app.name, target_throughput);

    // Platform DVFS state across the run; the first decision sets it
    // without charge (the launch configuration is applied while the
    // application is still loading).
    std::optional<hw::HwConfig> platform_config;

    RunResult result;
    result.appName = app.name;
    result.governorName = governor.name();
    result.records.reserve(app.trace.size());

    for (std::size_t i = 0; i < app.trace.size(); ++i) {
        trace::Span inv_span(trace::Category::Sim, "sim.invocation",
                             "index", static_cast<double>(i));
        const Decision decision = governor.decide(i);
        governor.observe(executeInvocation(apu, *_model, platform_config,
                                           i, app.trace[i], decision,
                                           result));
    }

    return result;
}

} // namespace gpupm::sim
