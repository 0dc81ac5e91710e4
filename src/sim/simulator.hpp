/**
 * @file
 * Closed-loop simulation of an application under a governor.
 *
 * For each kernel invocation: consult the governor (charging its
 * modeled decision latency and host energy at the governor's host
 * configuration), execute the kernel on the modeled APU at the chosen
 * configuration, and feed the measurement back to the governor. This
 * mirrors the paper's trace-driven evaluation over data captured from
 * the real A10-7850K (Sec. V).
 */

#pragma once

#include <optional>
#include <vector>

#include "hw/model.hpp"
#include "kernel/apu.hpp"
#include "sim/governor.hpp"
#include "workload/trace.hpp"

namespace gpupm::sim {

/** Everything recorded about one kernel invocation. */
struct KernelRecord
{
    std::size_t index = 0;
    char tag = 'A';
    std::string kernelName;
    hw::HwConfig config;
    Seconds kernelTime = 0.0;
    Joules kernelCpuEnergy = 0.0;
    Joules kernelGpuEnergy = 0.0;
    /** Decision latency exposed on the critical path (not hidden). */
    Seconds overheadTime = 0.0;
    /** Decision latency absorbed into the preceding CPU phase. */
    Seconds hiddenOverheadTime = 0.0;
    Joules overheadCpuEnergy = 0.0;
    Joules overheadGpuEnergy = 0.0;
    /** Host CPU phase preceding the launch (Fig. 1). */
    Seconds cpuPhaseTime = 0.0;
    Joules cpuPhaseCpuEnergy = 0.0;
    Joules cpuPhaseGpuEnergy = 0.0;
    /** DVFS/CU reconfiguration cost (zero when the config is held). */
    Seconds transitionTime = 0.0;
    Joules transitionCpuEnergy = 0.0;
    Joules transitionGpuEnergy = 0.0;
    InstCount instructions = 0.0;

    /** CPU-plane energy of all components of the invocation. */
    Joules
    cpuEnergy() const
    {
        return kernelCpuEnergy + overheadCpuEnergy + cpuPhaseCpuEnergy +
               transitionCpuEnergy;
    }

    /** GPU-plane energy of all components of the invocation. */
    Joules
    gpuEnergy() const
    {
        return kernelGpuEnergy + overheadGpuEnergy + cpuPhaseGpuEnergy +
               transitionGpuEnergy;
    }

    /** Kernel-only throughput (insts/s), ignoring decision overhead. */
    Throughput
    kernelThroughput() const
    {
        return kernelTime > 0.0 ? instructions / kernelTime : 0.0;
    }
};

/** Aggregate result of one application run under one governor. */
struct RunResult
{
    std::string appName;
    std::string governorName;
    std::vector<KernelRecord> records;

    Seconds kernelTime = 0.0;
    Seconds overheadTime = 0.0; ///< Exposed (critical-path) overhead.
    Seconds cpuPhaseTime = 0.0; ///< Host phases between kernels.
    Seconds transitionTime = 0.0; ///< DVFS/CU reconfiguration stalls.
    Joules cpuEnergy = 0.0;  ///< CPU plane, all components.
    Joules gpuEnergy = 0.0;  ///< GPU plane, all components.
    Joules overheadEnergy = 0.0; ///< Overhead-only portion (both planes).
    InstCount instructions = 0.0;

    /** Wall time: kernels, phases, reconfigurations, exposed overhead. */
    Seconds
    totalTime() const
    {
        return kernelTime + overheadTime + cpuPhaseTime + transitionTime;
    }

    /** Chip-wide energy including optimization overheads. */
    Joules totalEnergy() const { return cpuEnergy + gpuEnergy; }

    /** Application kernel throughput I_total / T_total. */
    Throughput
    throughput() const
    {
        return totalTime() > 0.0 ? instructions / totalTime() : 0.0;
    }
};

/**
 * Execute invocation @p index of a run under @p decision on @p apu and
 * append its record to @p run, summing its times and energies into the
 * run totals. This is the one copy of the per-invocation charges,
 * shared by Simulator::run and the fleet's serve::Session::step.
 *
 * @param model Hardware model of @p apu (the host phase runs at its
 *        maximum-performance configuration).
 * @param platform DVFS configuration applied before this invocation
 *        (none at the start of a run: the launch configuration is
 *        applied free); updated to the decided configuration.
 * @return What the governor observes about the invocation.
 */
Observation executeInvocation(kernel::Apu &apu,
                              const hw::HardwareModel &model,
                              std::optional<hw::HwConfig> &platform,
                              std::size_t index,
                              const workload::KernelInvocation &inv,
                              const Decision &decision, RunResult &run);

/**
 * Trace-driven closed-loop simulator.
 */
class Simulator
{
  public:
    /** Simulate the given hardware model (parameters + anchors). */
    explicit Simulator(hw::HardwareModelPtr model);

    /**
     * Run @p app under @p governor.
     *
     * @param app Application trace.
     * @param governor Policy under test (stateful across calls, so
     *        repeated runs model repeated application executions).
     * @param target_throughput Baseline performance target forwarded to
     *        the governor; 0 when the governor defines the baseline.
     */
    RunResult run(const workload::Application &app, Governor &governor,
                  Throughput target_throughput = 0.0);

  private:
    hw::HardwareModelPtr _model;
};

} // namespace gpupm::sim
