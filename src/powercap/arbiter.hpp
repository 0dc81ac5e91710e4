/**
 * @file
 * Fleet-wide power-cap arbitration.
 *
 * The MPC governor optimizes each session against its own alpha
 * slowdown budget; nothing session-local prevents a fleet of them from
 * blowing past a rack-level wattage cap. FleetCapArbiter owns that
 * fleet budget: it splits a total wattage cap into per-session caps
 * under a configurable policy (equal-share, usage-proportional,
 * priority-weighted) and then regulates each session's *working* cap
 * from its measured power with a windowed net-error accumulator and
 * enter/exit hysteresis - the same controller structure as the shed
 * controller (serve/shed.hpp), which both follow HPDCS/NAS-powercap's
 * powercap heuristics: accumulate the signed error against the cap
 * over a fixed window, act only when `sustain` whole windows agree,
 * and relax only after `recover` consecutive windows whose mean power
 * sits inside the recovery band.
 *
 * Determinism contract (the fleet golden traces lean on this): every
 * violation window is counted in the session's *own decision stream*,
 * never in wall time, so a session's cap trajectory depends only on
 * its own decisions. The fleet-level split reads each session's
 * registration-time demand (the deterministically measured Turbo
 * baseline power), so once runFleet has created all sessions and
 * called rebalance(), tick() is idempotent - workers may call it at
 * any wall-clock moment without perturbing any session's trajectory.
 * Live servers (gpupm serve) opt into usage re-splits from rolling
 * measured power with ArbiterOptions::liveUsage; that mode trades the
 * byte-identity guarantee for responsiveness, which is the right
 * trade on a real wire where tenants come and go anyway.
 *
 * Thread model: registration/unregistration and window rollovers are
 * resolved under one mutex (report() takes it once per decision, like
 * ShedController::sample); the per-session working cap itself is a
 * relaxed atomic that sessions read per decision without locking.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "common/units.hpp"

namespace gpupm::telemetry {
class Registry;
}

namespace gpupm::powercap {

/** How the fleet budget is split into per-session shares. */
enum class SplitPolicy
{
    /** budget / n for every session. */
    EqualShare,
    /** Proportional to measured demand (registration-time baseline
     *  power; rolling measured power with liveUsage). */
    UsageProportional,
    /** Proportional to the session's priority weight. */
    PriorityWeighted,
};

struct ArbiterOptions
{
    /** Total fleet budget in watts; <= 0 disables the arbiter. */
    Watts budgetWatts = 0.0;
    SplitPolicy policy = SplitPolicy::EqualShare;
    /** Decisions per violation window (per session). */
    std::size_t window = 16;
    /** Consecutive over-cap windows required to tighten. */
    std::size_t sustain = 2;
    /** Consecutive calm windows required to relax one step. */
    std::size_t recover = 2;
    /**
     * Recovery band: a calm window must average below
     * cap * recoverFraction. The gap between 1.0 and this fraction is
     * the hysteresis band that keeps a loaded session from flapping
     * between tighten and relax at window granularity.
     */
    double recoverFraction = 0.9;
    /** Working-cap multiplier applied per tighten step (and divided
     *  back out per relax step). */
    double backoffFraction = 0.85;
    /** Per-session caps never tighten below this (the DVFS floor:
     *  roughly the fail-safe configuration's idle draw). Sessions on
     *  hardware models with a higher capFloorWatts keep their model's
     *  floor instead (see registerSession's floor parameter). */
    Watts floorWatts = 4.0;
    /** Fleet decisions between arbiter re-split ticks. */
    std::size_t tickEvery = 256;
    /**
     * Re-split from rolling measured per-session power instead of the
     * registration-time baseline demand. Live-server mode only: it
     * makes tick() timing observable, which forfeits fleet-trace
     * byte-identity (see the file comment).
     */
    bool liveUsage = false;

    bool enabled() const { return budgetWatts > 0.0; }
};

/**
 * Per-session cap state. Sessions hold the pointer returned by
 * registerSession() and read cap() lock-free on every decision; all
 * mutation happens inside the arbiter under its mutex.
 */
class SessionCap
{
  public:
    /** Current working cap in watts (relaxed read, any thread). */
    Watts
    cap() const
    {
        return _cap.load(std::memory_order_relaxed);
    }

    /** The session's allocated share of the fleet budget. */
    Watts
    share() const
    {
        return _share.load(std::memory_order_relaxed);
    }

    /** Working-cap multiplier in (0, 1]; < 1 while throttled. */
    double
    throttle() const
    {
        return _throttle;
    }

  private:
    friend class FleetCapArbiter;

    std::uint64_t id = 0;
    /** Registration-time demand (baseline mean power). */
    Watts demand = 0.0;
    /** Rolling measured power (EWMA; liveUsage re-splits read it). */
    Watts rolling = 0.0;
    double weight = 1.0;
    /** Per-session floor (hardware-model capFloorWatts); 0 = none. */
    Watts floor = 0.0;

    std::atomic<Watts> _share{std::numeric_limits<Watts>::infinity()};
    std::atomic<Watts> _cap{std::numeric_limits<Watts>::infinity()};
    double _throttle = 1.0;

    // Windowed net-error accumulator (NAS-powercap idiom), advanced
    // only by this session's own decisions.
    std::size_t samples = 0;
    double netError = 0.0; ///< Sum of measured - cap over the window.
    double powerSum = 0.0; ///< Sum of measured (mean at rollover).
    std::size_t overWindows = 0;
    std::size_t calmWindows = 0;
};

class FleetCapArbiter
{
  public:
    explicit FleetCapArbiter(const ArbiterOptions &opts,
                             telemetry::Registry *registry = nullptr);
    ~FleetCapArbiter();

    FleetCapArbiter(const FleetCapArbiter &) = delete;
    FleetCapArbiter &operator=(const FleetCapArbiter &) = delete;

    bool enabled() const { return _opts.enabled(); }
    const ArbiterOptions &options() const { return _opts; }
    Watts budgetWatts() const { return _opts.budgetWatts; }

    /**
     * Register one session. @p demand is its measured standalone power
     * (the Turbo baseline mean - deterministic at session creation),
     * @p weight its priority for SplitPolicy::PriorityWeighted, and
     * @p floor the session's hardware-model cap floor in watts (0 =
     * none); the session's caps never tighten below
     * max(options().floorWatts, floor), so a high-TDP model in a mixed
     * fleet is never starved below its own DVFS floor. The returned
     * handle stays valid until unregisterSession(); it is assigned a
     * share from the demands registered so far, so callers that
     * register a whole fleet up front should rebalance() once
     * afterwards (runFleet does).
     */
    SessionCap *registerSession(std::uint64_t id, Watts demand,
                                double weight = 1.0, Watts floor = 0.0);
    void unregisterSession(SessionCap *slot);

    /**
     * Feed one decision's measured power into @p slot's violation
     * window. @p enforcedCap is the effective cap the session actually
     * enforced (its working cap, possibly thermal-clamped); measured
     * power above it counts as a cap violation.
     */
    void report(SessionCap *slot, Watts measured, Watts enforcedCap);

    /**
     * Count one fleet decision; every options().tickEvery decisions
     * the caller-side stream triggers a rebalance tick. Workers call
     * this after each processed request.
     */
    void onDecision();

    /** Re-split shares now (counts as an arbiter tick). */
    void rebalance();

    std::size_t sessionCount() const;

    /**
     * Where the arbiter's counters live (powercap.violations,
     * powercap.arbiter_ticks, powercap.throttle_enters/_exits,
     * powercap.cap_tightened/_relaxed): the registry passed at
     * construction, or a private one when none was.
     */
    const telemetry::Registry &registry() const { return *_registry; }

  private:
    void rebalanceLocked();
    void rollWindowLocked(SessionCap &slot, Watts enforcedCap);
    void updateCapLocked(SessionCap &slot);
    /** The floor governing @p slot: the fleet floor or the session's
     *  hardware-model floor, whichever is higher. */
    Watts floorFor(const SessionCap &slot) const;

    ArbiterOptions _opts;
    /** Set only when no registry was passed. */
    std::unique_ptr<telemetry::Registry> _ownedRegistry;
    telemetry::Registry *_registry;

    mutable std::mutex _mutex;
    std::vector<std::unique_ptr<SessionCap>> _slots;

    /** Fleet decision clock driving the re-split ticks. */
    std::atomic<std::uint64_t> _decisions{0};
};

} // namespace gpupm::powercap
