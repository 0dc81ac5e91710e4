/**
 * @file
 * Decision records: one record per governed kernel invocation.
 *
 * Span tracing (trace.hpp) answers *where time went*; this module
 * answers *why the governor chose what it chose* and *what it cost*.
 * Every decision is described by one DecisionRecord carrying the inputs
 * the governor saw (kernel signature, time headroom from Eqs. 4/5,
 * horizon length), the search it ran (every candidate configuration
 * the hill-climb evaluated, with predicted time/energy and whether the
 * evaluation was served from the per-decision memo), the choice it
 * made, and - once the kernel has executed - the measured outcome and
 * the prediction error. This is the per-decision predicted-vs-measured
 * introspection that control-theoretic governors lean on for
 * diagnosis.
 *
 * The same record is the unit of the fleet trace (serve::Session::step
 * returns one per step): the fleet fields below it - kernel tag,
 * exposed overhead, energies, chip power, hardware model, deadline
 * miss - are filled by the session, while the provenance fields are
 * filled by the MPC governor. Two serializers pin two byte formats:
 * writeDecisionJsonl (provenance, jsonl_export.hpp) and
 * serve::serializeFleetTrace (fleet trace); each writes only its own
 * fields.
 *
 * Determinism contract: sinks are observers. Nothing recorded here may
 * feed back into decision logic, so golden decision traces are
 * byte-identical whether a sink is attached or not (pinned by
 * test_trace).
 */

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "kernel/counters.hpp"

namespace gpupm::trace {

/** One configuration the optimizer scored while deciding. */
struct CandidateEval
{
    /** hw::denseConfigIndex of the candidate. */
    std::uint32_t configIndex = 0;
    Seconds predictedTime = 0.0;
    Joules predictedEnergy = 0.0;
    /** Served from the per-decision memo (no predictor walk). */
    bool memoHit = false;

    bool
    operator==(const CandidateEval &o) const
    {
        return configIndex == o.configIndex &&
               predictedTime == o.predictedTime &&
               predictedEnergy == o.predictedEnergy &&
               memoHit == o.memoHit;
    }
};

/** One governor decision: provenance plus the step's outcome. */
struct DecisionRecord
{
    std::string app;
    /** Fleet session (0 outside the serve subsystem). */
    std::uint64_t session = 0;
    /** Run number: 0 = profiling execution, 1.. = optimized. */
    std::size_t run = 0;
    /** Invocation index within the run. */
    std::size_t index = 0;
    /** Decision path: 'P' PPK profiling, 'W' window hill-climb,
     *  'F' fallback exhaustive scan, 'B' budget-out config reuse,
     *  'S' shed to the fail-safe configuration (governor bypassed). */
    char tag = '?';
    /** Static tag of the executed kernel (workload::KernelInvocation;
     *  the fleet trace's "t"). */
    char kernelTag = 'A';
    /** Decided on the PPK profiling path (no MPC optimization). */
    bool profiling = false;
    bool hasHeadroom = false;
    /** The cap altered the decision: nothing fit under it and the
     *  minimum-power fail-safe was substituted, or the race
     *  configuration was suppressed. */
    bool capLimited = false;
    bool observed = false;
    /** Set on a run's last fleet record when its deadline QoS was
     *  missed. */
    bool deadlineMissed = false;
    /** FNV hash of the observed kernel::Signature (the log-binned
     *  counter identity the pattern extractor keys on); 0 until the
     *  decision is observed. */
    std::uint64_t kernelSignature = 0;

    // What the optimizer saw.
    /** Optimization window length (0 on profiling/budget-out paths). */
    std::size_t horizon = 0;
    /** Eq. 4/5 time budget for the decided kernel; meaningful only
     *  when hasHeadroom. */
    Seconds headroom = 0.0;

    // What it did.
    /** hw::denseConfigIndex of the chosen configuration. */
    std::size_t configIndex = 0;
    /** Predicted time of the choice; < 0 when no model ran. */
    Seconds predictedTime = -1.0;
    /** Predicted chip energy of the choice; < 0 when no model ran. */
    Joules predictedEnergy = -1.0;
    /** Evaluations charged by the overhead model for this decision. */
    std::size_t evaluations = 0;
    /** Distinct predictor evaluations after memoization. */
    std::size_t uniqueEvaluations = 0;
    /** Decision latency charged to the run (hidden or not). */
    Seconds overheadTime = 0.0;
    /** Session power cap active for this decision; < 0 = uncapped
     *  (the JSONL exporter omits the field then). */
    Watts powerCap = -1.0;
    /** Candidates scored by the hill-climb for the decided kernel
     *  (collected only while a sink is attached; empty on exhaustive-
     *  scan and budget-out paths). */
    std::vector<CandidateEval> candidates;

    // What happened.
    /** Kernel time of the invocation (the fleet trace's "kt"). */
    Seconds measuredTime = 0.0;
    Watts measuredGpuPower = 0.0;
    /** 100 * (predicted - measured) / measured; 0 when unavailable. */
    double timeErrorPct = 0.0;

    // Replay / online-learning inputs (observe()-time captures). The
    // observed counters plus the chosen configIndex and the measured
    // outcome above form one complete (features, targets) training row;
    // together with nonKernelTime and the run's throughput target they
    // are also exactly the observation stream needed to re-drive an
    // MpcGovernor offline (tests/replay_fixture.hpp).
    /** Raw Table III counters observed for the decided kernel. */
    kernel::KernelCounters counters{};
    /** Measured dynamic instruction count of the invocation. */
    InstCount measuredInstructions = 0.0;
    /** Host phase + exposed decision latency charged to the run. */
    Seconds nonKernelTime = 0.0;
    /** The run's Eq. 4 performance target (baseline throughput). */
    Throughput targetThroughput = 0.0;

    // Fleet-trace outcome of the step (serve::Session::step).
    /** Decision latency left on the critical path after the CPU phase
     *  hid what it could (the fleet trace's "oh"). */
    Seconds exposedOverheadTime = 0.0;
    /** All components of this invocation, per plane. */
    Joules cpuEnergy = 0.0;
    Joules gpuEnergy = 0.0;
    /** Average chip power over the step's wall time. */
    Watts chipPower = 0.0;
    /** Hardware-model name; empty for the default "paper-apu" (records
     *  of a homogeneous default fleet serialize exactly as before the
     *  catalog existed). */
    std::string hwModel;
};

/**
 * Receiver of completed decision records. Implementations must be
 * thread-safe: fleet sessions decide concurrently on pool workers.
 */
class DecisionSink
{
  public:
    virtual ~DecisionSink() = default;
    virtual void record(DecisionRecord &&rec) = 0;
};

/** Mutex-guarded in-memory sink (the exporters' staging buffer). */
class DecisionLog : public DecisionSink
{
  public:
    void record(DecisionRecord &&rec) override;

    std::size_t size() const;

    /** Move the accumulated records out (insertion order). */
    std::vector<DecisionRecord> take();

  private:
    mutable std::mutex _mutex;
    std::vector<DecisionRecord> _records;
};

/**
 * Canonical provenance order: (app, session, run, index). Concurrent
 * execution interleaves sink insertion arbitrarily; exporting callers
 * sort so the dump is deterministic for a deterministic workload.
 */
void sortDecisions(std::vector<DecisionRecord> &records);

} // namespace gpupm::trace
