/**
 * @file
 * Unit tests for the fleet power-cap arbitration subsystem: budget
 * split policies (equal-share, usage-proportional, priority-weighted,
 * zero-demand degradation), the windowed net-error throttle with
 * enter/exit hysteresis, tick idempotence in deterministic mode, the
 * floor clamp, telemetry counters, and the reactive thermal cap
 * governor (PWR_INC/PWR_DEC/PWR_CNST stepping, weighted-average
 * smoothing, saturation at both ends).
 */

#include <gtest/gtest.h>

#include <vector>

#include "powercap/arbiter.hpp"
#include "powercap/thermal_governor.hpp"
#include "telemetry/telemetry.hpp"

namespace gpupm::powercap {
namespace {

ArbiterOptions
tinyOptions()
{
    ArbiterOptions opts;
    opts.budgetWatts = 100.0;
    opts.window = 4;
    opts.sustain = 2;
    opts.recover = 2;
    opts.recoverFraction = 0.9;
    opts.backoffFraction = 0.85;
    opts.floorWatts = 4.0;
    opts.tickEvery = 16;
    return opts;
}

/** Arbiter counter @p name, read from its registry's snapshot. */
std::uint64_t
counted(const FleetCapArbiter &arbiter, const char *name)
{
    return arbiter.registry().snapshot().counter(name);
}

/** Feed one full violation window of a constant measured power. */
void
feedWindow(FleetCapArbiter &arbiter, SessionCap *slot, Watts measured,
           Watts enforced)
{
    for (std::size_t i = 0; i < arbiter.options().window; ++i)
        arbiter.report(slot, measured, enforced);
}

TEST(FleetCapArbiter, DisabledWhenBudgetNonPositive)
{
    ArbiterOptions opts;
    opts.budgetWatts = 0.0;
    EXPECT_FALSE(opts.enabled());
    opts.budgetWatts = -5.0;
    EXPECT_FALSE(opts.enabled());
    opts.budgetWatts = 0.5;
    EXPECT_TRUE(opts.enabled());
}

TEST(FleetCapArbiter, EqualShareSplitsBudgetEvenly)
{
    FleetCapArbiter arbiter(tinyOptions());
    auto *a = arbiter.registerSession(1, 30.0);
    auto *b = arbiter.registerSession(2, 60.0);
    auto *c = arbiter.registerSession(3, 10.0);
    arbiter.rebalance();
    EXPECT_DOUBLE_EQ(a->share(), 100.0 / 3.0);
    EXPECT_DOUBLE_EQ(b->share(), 100.0 / 3.0);
    EXPECT_DOUBLE_EQ(c->share(), 100.0 / 3.0);
    // Unthrottled sessions see their full share as the working cap.
    EXPECT_DOUBLE_EQ(a->cap(), a->share());
}

TEST(FleetCapArbiter, UsageProportionalSplitsByRegisteredDemand)
{
    auto opts = tinyOptions();
    opts.policy = SplitPolicy::UsageProportional;
    FleetCapArbiter arbiter(opts);
    auto *a = arbiter.registerSession(1, 30.0);
    auto *b = arbiter.registerSession(2, 60.0);
    auto *c = arbiter.registerSession(3, 10.0);
    arbiter.rebalance();
    EXPECT_DOUBLE_EQ(a->share(), 30.0);
    EXPECT_DOUBLE_EQ(b->share(), 60.0);
    EXPECT_DOUBLE_EQ(c->share(), 10.0);
}

TEST(FleetCapArbiter, ZeroDemandFleetDegradesToEqualShare)
{
    auto opts = tinyOptions();
    opts.policy = SplitPolicy::UsageProportional;
    FleetCapArbiter arbiter(opts);
    auto *a = arbiter.registerSession(1, 0.0);
    auto *b = arbiter.registerSession(2, 0.0);
    arbiter.rebalance();
    EXPECT_DOUBLE_EQ(a->share(), 50.0);
    EXPECT_DOUBLE_EQ(b->share(), 50.0);
}

TEST(FleetCapArbiter, PriorityWeightedSplitsByWeight)
{
    auto opts = tinyOptions();
    opts.policy = SplitPolicy::PriorityWeighted;
    FleetCapArbiter arbiter(opts);
    auto *a = arbiter.registerSession(1, 40.0, 3.0);
    auto *b = arbiter.registerSession(2, 40.0, 1.0);
    arbiter.rebalance();
    EXPECT_DOUBLE_EQ(a->share(), 75.0);
    EXPECT_DOUBLE_EQ(b->share(), 25.0);
}

TEST(FleetCapArbiter, SharesNeverSplitBelowTheFloor)
{
    auto opts = tinyOptions();
    opts.budgetWatts = 10.0;
    opts.floorWatts = 4.0;
    FleetCapArbiter arbiter(opts);
    std::vector<SessionCap *> slots;
    for (std::uint64_t i = 0; i < 8; ++i)
        slots.push_back(arbiter.registerSession(i, 20.0));
    arbiter.rebalance();
    // 10 W / 8 sessions = 1.25 W raw, clamped up to the 4 W floor: the
    // arbiter refuses to starve a session below the DVFS floor even
    // when that oversubscribes the budget.
    for (auto *slot : slots)
        EXPECT_DOUBLE_EQ(slot->share(), 4.0);
}

TEST(FleetCapArbiter, RebalanceIsIdempotentInDeterministicMode)
{
    auto opts = tinyOptions();
    opts.policy = SplitPolicy::UsageProportional;
    FleetCapArbiter arbiter(opts);
    auto *a = arbiter.registerSession(1, 30.0);
    auto *b = arbiter.registerSession(2, 10.0);
    arbiter.rebalance();
    const Watts share_a = a->share();
    const Watts share_b = b->share();
    // Feed measurements far from the registered demand; deterministic
    // mode keeps splitting from registration-time demand, so any
    // number of further ticks reproduces the same shares.
    for (int i = 0; i < 3; ++i) {
        feedWindow(arbiter, a, 5.0, a->cap());
        arbiter.rebalance();
        EXPECT_DOUBLE_EQ(a->share(), share_a);
        EXPECT_DOUBLE_EQ(b->share(), share_b);
    }
    EXPECT_EQ(counted(arbiter, "powercap.arbiter_ticks"), 4u);
}

TEST(FleetCapArbiter, LiveUsageResplitsFromRollingMeasuredPower)
{
    auto opts = tinyOptions();
    opts.policy = SplitPolicy::UsageProportional;
    opts.liveUsage = true;
    FleetCapArbiter arbiter(opts);
    auto *a = arbiter.registerSession(1, 50.0);
    auto *b = arbiter.registerSession(2, 50.0);
    arbiter.rebalance();
    EXPECT_DOUBLE_EQ(a->share(), 50.0);
    // Session a idles while b draws hard; the rolling EWMA drags a's
    // share down and b's up on the next tick.
    for (int i = 0; i < 64; ++i) {
        arbiter.report(a, 10.0, a->cap());
        arbiter.report(b, 70.0, b->cap());
    }
    arbiter.rebalance();
    EXPECT_LT(a->share(), 20.0);
    EXPECT_GT(b->share(), 80.0);
}

TEST(FleetCapArbiter, ThrottleEntersAfterSustainedOverCapWindows)
{
    FleetCapArbiter arbiter(tinyOptions());
    auto *slot = arbiter.registerSession(1, 50.0);
    arbiter.rebalance();
    const Watts share = slot->share();
    feedWindow(arbiter, slot, share + 20.0, share);
    // One over-cap window is not enough to throttle.
    EXPECT_DOUBLE_EQ(slot->cap(), share);
    EXPECT_EQ(counted(arbiter, "powercap.throttle_enters"), 0u);
    feedWindow(arbiter, slot, share + 20.0, share);
    // Second consecutive over-cap window tightens by backoffFraction.
    EXPECT_DOUBLE_EQ(slot->cap(), share * 0.85);
    EXPECT_EQ(counted(arbiter, "powercap.throttle_enters"), 1u);
}

TEST(FleetCapArbiter, ThrottleRelaxesAfterRecoveryWindows)
{
    FleetCapArbiter arbiter(tinyOptions());
    auto *slot = arbiter.registerSession(1, 50.0);
    arbiter.rebalance();
    const Watts share = slot->share();
    feedWindow(arbiter, slot, share + 20.0, share);
    feedWindow(arbiter, slot, share + 20.0, share);
    ASSERT_LT(slot->cap(), share);
    const Watts throttled = slot->cap();
    // Calm means mean power below cap * recoverFraction.
    const Watts calm = throttled * 0.5;
    feedWindow(arbiter, slot, calm, throttled);
    EXPECT_DOUBLE_EQ(slot->cap(), throttled); // one calm window: hold
    feedWindow(arbiter, slot, calm, throttled);
    // Two consecutive calm windows relax one step, fully recovering
    // the single tighten step.
    EXPECT_DOUBLE_EQ(slot->cap(), share);
    EXPECT_EQ(counted(arbiter, "powercap.throttle_exits"), 1u);
}

TEST(FleetCapArbiter, HysteresisGapResetsTheCalmStreak)
{
    FleetCapArbiter arbiter(tinyOptions());
    auto *slot = arbiter.registerSession(1, 50.0);
    arbiter.rebalance();
    const Watts share = slot->share();
    feedWindow(arbiter, slot, share + 20.0, share);
    feedWindow(arbiter, slot, share + 20.0, share);
    const Watts throttled = slot->cap();
    ASSERT_LT(throttled, share);
    // Alternate calm windows with in-gap windows (under the cap but
    // above the recovery band): the calm streak restarts every time,
    // so the throttle never relaxes.
    const Watts calm = throttled * 0.5;
    const Watts in_gap = throttled * 0.95;
    for (int i = 0; i < 4; ++i) {
        feedWindow(arbiter, slot, calm, throttled);
        feedWindow(arbiter, slot, in_gap, throttled);
        EXPECT_DOUBLE_EQ(slot->cap(), throttled);
    }
    EXPECT_EQ(counted(arbiter, "powercap.throttle_exits"), 0u);
}

TEST(FleetCapArbiter, ThrottleSaturatesAtTheFloor)
{
    auto opts = tinyOptions();
    opts.budgetWatts = 12.0;
    opts.floorWatts = 4.0;
    FleetCapArbiter arbiter(opts);
    auto *a = arbiter.registerSession(1, 50.0);
    auto *b = arbiter.registerSession(2, 50.0);
    (void)b;
    arbiter.rebalance();
    ASSERT_DOUBLE_EQ(a->share(), 6.0);
    // Hammer the session with violations; the working cap walks down
    // geometrically but never below the floor.
    for (int i = 0; i < 50; ++i)
        feedWindow(arbiter, a, 100.0, a->cap());
    EXPECT_GE(a->cap(), 4.0);
    EXPECT_DOUBLE_EQ(a->cap(), 4.0);
}

TEST(FleetCapArbiter, CountsViolationsAndExportsCounters)
{
    telemetry::Registry registry;
    auto opts = tinyOptions();
    FleetCapArbiter arbiter(opts, &registry);
    auto *slot = arbiter.registerSession(1, 50.0);
    arbiter.rebalance();
    const Watts cap = slot->cap();
    arbiter.report(slot, cap + 1.0, cap); // violation
    arbiter.report(slot, cap - 1.0, cap); // not a violation
    arbiter.report(slot, cap, cap);       // boundary: not a violation
    // The counter lives in the registry passed in, nowhere else.
    EXPECT_EQ(&arbiter.registry(), &registry);
    const auto snap = registry.snapshot();
    const auto it = snap.counters.find("powercap.violations");
    ASSERT_NE(it, snap.counters.end());
    EXPECT_EQ(it->second, 1u);
}

TEST(FleetCapArbiter, OnDecisionTicksEveryPeriod)
{
    auto opts = tinyOptions();
    opts.tickEvery = 8;
    FleetCapArbiter arbiter(opts);
    (void)arbiter.registerSession(1, 50.0);
    for (int i = 0; i < 23; ++i)
        arbiter.onDecision();
    // At decisions 8 and 16.
    EXPECT_EQ(counted(arbiter, "powercap.arbiter_ticks"), 2u);
}

TEST(FleetCapArbiter, UnregisterLeavesSurvivorsUntouched)
{
    FleetCapArbiter arbiter(tinyOptions());
    auto *a = arbiter.registerSession(1, 50.0);
    auto *b = arbiter.registerSession(2, 50.0);
    arbiter.rebalance();
    ASSERT_DOUBLE_EQ(a->share(), 50.0);
    arbiter.unregisterSession(b);
    // No automatic re-split on departure; the survivor's share moves
    // only at the next explicit tick.
    EXPECT_DOUBLE_EQ(a->share(), 50.0);
    arbiter.rebalance();
    EXPECT_DOUBLE_EQ(a->share(), 100.0);
    EXPECT_EQ(arbiter.sessionCount(), 1u);
}

ThermalCapOptions
thermalOptions()
{
    ThermalCapOptions opts;
    opts.enabled = true;
    opts.limit = 85.0;
    opts.band = 3.0;
    opts.stepWatts = 2.0;
    opts.maxCapWatts = 95.0;
    opts.floorWatts = 8.0;
    return opts;
}

TEST(ThermalCapGovernor, DisabledGovernorNeverClamps)
{
    ThermalCapGovernor gov; // default options: disabled
    EXPECT_EQ(gov.update(500.0), CapStep::PWR_CNST);
    EXPECT_DOUBLE_EQ(gov.clamp(1234.0), 1234.0);
}

TEST(ThermalCapGovernor, StepsDownAboveLimitAndUpBelowBand)
{
    ThermalCapGovernor gov(thermalOptions());
    EXPECT_DOUBLE_EQ(gov.cap(), 95.0);
    EXPECT_EQ(gov.update(90.0), CapStep::PWR_DEC);
    EXPECT_DOUBLE_EQ(gov.cap(), 93.0);
    EXPECT_EQ(gov.update(90.0), CapStep::PWR_DEC);
    EXPECT_DOUBLE_EQ(gov.cap(), 91.0);
    // Inside the band [limit - band, limit]: hold.
    EXPECT_EQ(gov.update(84.0), CapStep::PWR_CNST);
    EXPECT_DOUBLE_EQ(gov.cap(), 91.0);
    // Below limit - band: raise.
    EXPECT_EQ(gov.update(70.0), CapStep::PWR_INC);
    EXPECT_DOUBLE_EQ(gov.cap(), 93.0);
    EXPECT_EQ(gov.decSteps(), 2u);
    EXPECT_EQ(gov.incSteps(), 1u);
}

TEST(ThermalCapGovernor, SaturatesAtFloorAndCeiling)
{
    auto opts = thermalOptions();
    opts.maxCapWatts = 12.0;
    opts.floorWatts = 8.0;
    ThermalCapGovernor gov(opts);
    for (int i = 0; i < 20; ++i)
        gov.update(100.0);
    EXPECT_DOUBLE_EQ(gov.cap(), 8.0); // saturated at the DVFS floor
    EXPECT_EQ(gov.update(100.0), CapStep::PWR_CNST);
    for (int i = 0; i < 20; ++i)
        gov.update(20.0);
    EXPECT_DOUBLE_EQ(gov.cap(), 12.0); // back at the ceiling
    EXPECT_EQ(gov.update(20.0), CapStep::PWR_CNST);
}

TEST(ThermalCapGovernor, ClampTakesTheTighterOfArbiterAndThermal)
{
    ThermalCapGovernor gov(thermalOptions());
    gov.update(90.0); // ceiling now 93 W
    EXPECT_DOUBLE_EQ(gov.clamp(40.0), 40.0);  // arbiter tighter
    EXPECT_DOUBLE_EQ(gov.clamp(200.0), 93.0); // thermal tighter
}

TEST(ThermalCapGovernor, WeightedAverageSmoothsSpikes)
{
    auto opts = thermalOptions();
    opts.weightedAvg = true;
    opts.wavgWeight = 0.25;
    ThermalCapGovernor gov(opts);
    // Seed well under the limit, then spike once: the smoothed value
    // 0.25 * 120 + 0.75 * 60 = 75 stays under the 85 C limit, so a
    // single-kernel spike does not throttle (the ceiling is already
    // fully raised, so the cool samples answer PWR_CNST too).
    EXPECT_EQ(gov.update(60.0), CapStep::PWR_CNST);
    EXPECT_EQ(gov.update(120.0), CapStep::PWR_CNST);
    EXPECT_DOUBLE_EQ(gov.smoothedTemp(), 75.0);
    EXPECT_EQ(gov.decSteps(), 0u);
    // A sustained hot plateau does eventually cross the limit.
    CapStep last = CapStep::PWR_CNST;
    for (int i = 0; i < 20; ++i)
        last = gov.update(120.0);
    EXPECT_EQ(last, CapStep::PWR_DEC);
    EXPECT_GT(gov.decSteps(), 0u);
}

TEST(ThermalCapGovernor, ResetReturnsToColdState)
{
    ThermalCapGovernor gov(thermalOptions());
    gov.update(90.0);
    gov.update(90.0);
    ASSERT_LT(gov.cap(), 95.0);
    gov.reset();
    EXPECT_DOUBLE_EQ(gov.cap(), 95.0);
    EXPECT_EQ(gov.decSteps(), 0u);
    EXPECT_EQ(gov.incSteps(), 0u);
}

} // namespace
} // namespace gpupm::powercap
