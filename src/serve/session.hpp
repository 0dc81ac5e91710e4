/**
 * @file
 * One fleet session: a governed application, steppable one kernel
 * invocation at a time.
 *
 * A session owns everything one tenant of the fleet server needs: its
 * application trace, its modeled APU (thermal state and platform DVFS
 * config advance within a run) and its MpcGovernor (pattern extractor,
 * performance tracker, hill-climb optimizer). The governor scores
 * candidates with the server's predictor as is, on the session's own
 * hardware model, exactly as Simulator::run would. Nothing is shared
 * mutably between sessions except the predictor's prediction table and
 * telemetry (both internally synchronized, and a table value is the
 * same bits whichever session filled it), so sessions are isolated:
 * one session's decisions are bit-identical regardless of what other
 * sessions run - the foundation of the deterministic fleet mode.
 *
 * step() executes exactly one invocation of the Simulator::run loop
 * body - decide, then sim::executeInvocation (charge host phase and
 * overhead, reconfigure, run the kernel), then observe - so a server
 * can interleave many sessions at single-decision granularity. Each
 * step yields one trace::DecisionRecord, the unit of the fleet trace;
 * the governor's own record of the decision supplies its path tag,
 * evaluation count and cap outcome. A session plays the paper's
 * repeated-execution schedule: one PPK profiling run, then
 * optimizedRuns MPC runs, with the same fresh-APU-per-run semantics as
 * Simulator::run.
 *
 * Not thread-safe: the server checks a session out to one worker at a
 * time.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "kernel/apu.hpp"
#include "mpc/governor.hpp"
#include "powercap/arbiter.hpp"
#include "powercap/thermal_governor.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/decision.hpp"
#include "workload/trace.hpp"

namespace gpupm::serve {

using SessionId = std::uint64_t;

struct SessionOptions
{
    /** Governor options; mpc.qos carries the session's QoS objective
     *  (uniform alpha, or a deadline with slack-driven headroom). */
    mpc::MpcOptions mpc;
    /** MPC-optimized runs after the PPK profiling run. */
    std::size_t optimizedRuns = 2;
    /** Priority weight for the arbiter's weighted split policy. */
    double capWeight = 1.0;
    /** Reactive thermal cap governor (disabled by default). */
    powercap::ThermalCapOptions thermalCap;
    /**
     * Hardware-model override for this session; null falls back to the
     * manager/server default. Heterogeneous fleets set this per
     * session (from the Open frame's model name over the wire).
     */
    hw::HardwareModelPtr model;
};

class Session
{
  public:
    /**
     * @param id Server-assigned identity, stamped into records.
     * @param app Application trace (the Turbo Core baseline run that
     *        sets the MPC performance target happens here, once).
     * @param base Shared predictor handed to the session's governor
     *        (under online learning, an online::AdaptivePredictor).
     * @param model Hardware model this session runs on (explicit; a
     *        heterogeneous fleet mixes models across sessions).
     * @param arbiter Fleet cap arbiter; null = no fleet budget. The
     *        session registers itself with its Turbo-baseline mean
     *        power as demand, its model's capFloorWatts as floor, and
     *        unregisters on destruction.
     * @param telemetry Registry for session metrics and the decision
     *        sink; may be null.
     */
    Session(SessionId id, workload::Application app,
            std::shared_ptr<const ml::PerfPowerPredictor> base,
            const SessionOptions &opts, hw::HardwareModelPtr model,
            telemetry::Registry *telemetry = nullptr,
            powercap::FleetCapArbiter *arbiter = nullptr);

    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    SessionId id() const { return _id; }
    const std::string &appName() const { return _app.name; }
    Throughput target() const { return _target; }

    /** The hardware model this session runs on. */
    const hw::HardwareModelPtr &model() const { return _model; }

    /** Decisions per run (the trace length). */
    std::size_t runLength() const { return _app.trace.size(); }
    /** Total runs the session plays (1 profiling + optimizedRuns). */
    std::size_t totalRuns() const { return 1 + _opts.optimizedRuns; }
    std::size_t totalDecisions() const
    {
        return totalRuns() * runLength();
    }
    std::size_t decisionsMade() const { return _decisions; }
    bool finished() const { return _decisions >= totalDecisions(); }

    /**
     * Execute one kernel invocation (decide / charge / run / observe);
     * fatal when already finished. Returns the step's fleet-trace
     * record: path tag, chosen configuration, evaluations and cap
     * outcome from the governor's record, kernel tag, times, energies
     * and chip power from the executed invocation.
     *
     * @param degraded Overload fast path: skip the MPC governor
     *        entirely and run the invocation at the paper's fail-safe
     *        configuration [P7, NB2, DPM4, 8CU] with zero decision
     *        overhead. The kernel still executes and all energy/time
     *        charges still accrue; the governor neither decides nor
     *        observes, so a shard under shed pressure drains its
     *        queue at near-zero decision cost. Degraded steps carry
     *        tag 'S'; with a provenance sink attached, the same record
     *        (before the session cap is stamped on it) goes to the
     *        sink, since no governor observes the step.
     */
    trace::DecisionRecord step(bool degraded = false);

    /** Results of completed runs, in run order. */
    const std::vector<sim::RunResult> &completedRuns() const
    {
        return _runs;
    }

    /**
     * Discard all learned state (governor, run progress); the session
     * replays from its profiling run. The Turbo
     * baseline target is kept - it is a property of the app, not of
     * learning.
     */
    void reset();

    /** Turbo-baseline mean chip power (the arbiter's demand signal). */
    Watts baselinePower() const { return _baselinePower; }

    /** Arbiter cap slot (null when no arbiter is attached). */
    const powercap::SessionCap *capSlot() const { return _capSlot; }

    /** Thermal cap governor state (disabled unless configured). */
    const powercap::ThermalCapGovernor &thermalCap() const
    {
        return _thermalCap;
    }

  private:
    void beginRun();

    SessionId _id;
    workload::Application _app;
    std::shared_ptr<const ml::PerfPowerPredictor> _base;
    SessionOptions _opts;
    hw::HardwareModelPtr _model;
    telemetry::Registry *_telemetry;
    /** powercap.cap_limited_decisions, once this session counted one. */
    telemetry::Counter *_capLimited = nullptr;

    Throughput _target = 0.0;
    /** Turbo-baseline wall time (the deadline QoS reference). */
    Seconds _baselineTime = 0.0;
    Watts _baselinePower = 0.0;
    powercap::FleetCapArbiter *_arbiter = nullptr;
    powercap::SessionCap *_capSlot = nullptr;
    powercap::ThermalCapGovernor _thermalCap;
    std::unique_ptr<mpc::MpcGovernor> _governor;
    kernel::Apu _apu;
    std::optional<hw::HwConfig> _platformConfig;

    std::size_t _run = 0;
    std::size_t _invocation = 0;
    std::size_t _decisions = 0;
    sim::RunResult _current;
    std::vector<sim::RunResult> _runs;
};

} // namespace gpupm::serve
