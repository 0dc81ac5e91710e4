#include "powercap/arbiter.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "telemetry/telemetry.hpp"

namespace gpupm::powercap {

FleetCapArbiter::FleetCapArbiter(const ArbiterOptions &opts,
                                 telemetry::Registry *registry)
    : _opts(opts),
      _ownedRegistry(registry ? nullptr
                              : std::make_unique<telemetry::Registry>()),
      _registry(registry ? registry : _ownedRegistry.get())
{
    GPUPM_ASSERT(_opts.window > 0, "cap window must be positive");
    GPUPM_ASSERT(_opts.sustain > 0, "cap sustain must be positive");
    GPUPM_ASSERT(_opts.recover > 0, "cap recover must be positive");
    GPUPM_ASSERT(_opts.recoverFraction > 0.0 &&
                     _opts.recoverFraction <= 1.0,
                 "cap recover fraction must be within (0, 1]");
    GPUPM_ASSERT(_opts.backoffFraction > 0.0 &&
                     _opts.backoffFraction < 1.0,
                 "cap backoff fraction must be within (0, 1)");
    GPUPM_ASSERT(_opts.tickEvery > 0, "cap tick period must be positive");
}

FleetCapArbiter::~FleetCapArbiter() = default;

Watts
FleetCapArbiter::floorFor(const SessionCap &slot) const
{
    return std::max(_opts.floorWatts, slot.floor);
}

SessionCap *
FleetCapArbiter::registerSession(std::uint64_t id, Watts demand,
                                 double weight, Watts floor)
{
    GPUPM_ASSERT(demand >= 0.0, "negative session power demand");
    GPUPM_ASSERT(weight > 0.0, "session cap weight must be positive");
    GPUPM_ASSERT(floor >= 0.0, "negative session cap floor");
    std::lock_guard<std::mutex> lock(_mutex);
    auto slot = std::make_unique<SessionCap>();
    slot->id = id;
    slot->demand = demand;
    slot->rolling = demand;
    slot->weight = weight;
    slot->floor = floor;
    SessionCap *out = slot.get();
    _slots.push_back(std::move(slot));
    // Provisional equal split over the fleet registered so far - O(1),
    // so registering a 100k-session fleet stays linear (re-splitting
    // everyone here would be quadratic). Callers register everything up
    // front and rebalance() once afterwards; that single policy-aware
    // split is what later ticks idempotently reproduce.
    out->_share.store(
        std::max(floorFor(*out),
                 _opts.budgetWatts / static_cast<double>(_slots.size())),
        std::memory_order_relaxed);
    updateCapLocked(*out);
    return out;
}

void
FleetCapArbiter::unregisterSession(SessionCap *slot)
{
    if (slot == nullptr)
        return;
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = std::find_if(
        _slots.begin(), _slots.end(),
        [slot](const auto &p) { return p.get() == slot; });
    GPUPM_ASSERT(it != _slots.end(), "unregistering an unknown cap slot");
    _slots.erase(it);
    // Deliberately no automatic re-split here: finish/eviction order
    // is nondeterministic, and surviving deterministic sessions must
    // not see their caps move because a neighbour went away. The next
    // tick (idempotent in deterministic mode, demand-refreshing in
    // live mode) folds the departure in.
}

void
FleetCapArbiter::rebalanceLocked()
{
    const std::size_t n = _slots.size();
    if (n == 0)
        return;
    double total = 0.0;
    for (const auto &slot : _slots) {
        switch (_opts.policy) {
          case SplitPolicy::EqualShare:
            total += 1.0;
            break;
          case SplitPolicy::UsageProportional:
            total += _opts.liveUsage ? slot->rolling : slot->demand;
            break;
          case SplitPolicy::PriorityWeighted:
            total += slot->weight;
            break;
        }
    }
    for (auto &slot : _slots) {
        double numer = 1.0;
        switch (_opts.policy) {
          case SplitPolicy::EqualShare:
            numer = 1.0;
            break;
          case SplitPolicy::UsageProportional:
            numer = _opts.liveUsage ? slot->rolling : slot->demand;
            break;
          case SplitPolicy::PriorityWeighted:
            numer = slot->weight;
            break;
        }
        // A zero-demand fleet (all-idle usage split) degrades to
        // equal-share rather than dividing by zero.
        const double frac =
            total > 0.0 ? numer / total : 1.0 / static_cast<double>(n);
        const Watts share = std::max(floorFor(*slot),
                                     _opts.budgetWatts * frac);
        slot->_share.store(share, std::memory_order_relaxed);
        updateCapLocked(*slot);
    }
}

void
FleetCapArbiter::updateCapLocked(SessionCap &slot)
{
    const Watts share = slot._share.load(std::memory_order_relaxed);
    const Watts cap = std::max(floorFor(slot), share * slot._throttle);
    slot._cap.store(cap, std::memory_order_relaxed);
}

void
FleetCapArbiter::report(SessionCap *slot, Watts measured,
                        Watts enforcedCap)
{
    GPUPM_ASSERT(slot != nullptr, "report() without a cap slot");
    std::lock_guard<std::mutex> lock(_mutex);
    if (measured > enforcedCap)
        _registry->counter("powercap.violations").add(1);
    // Rolling demand for liveUsage re-splits; harmless (and unread)
    // in deterministic mode.
    slot->rolling = 0.8 * slot->rolling + 0.2 * measured;
    slot->netError += measured - enforcedCap;
    slot->powerSum += measured;
    if (++slot->samples >= _opts.window)
        rollWindowLocked(*slot, enforcedCap);
}

void
FleetCapArbiter::rollWindowLocked(SessionCap &slot, Watts enforcedCap)
{
    const bool over = slot.netError > 0.0;
    const double mean =
        slot.powerSum / static_cast<double>(slot.samples);
    slot.samples = 0;
    slot.netError = 0.0;
    slot.powerSum = 0.0;

    if (over) {
        // Any over-cap window resets the calm streak: relaxing always
        // requires `recover` *consecutive* quiet windows.
        slot.calmWindows = 0;
        if (++slot.overWindows >= _opts.sustain) {
            slot.overWindows = 0;
            const bool was_clean = slot._throttle >= 1.0;
            const Watts share =
                slot._share.load(std::memory_order_relaxed);
            const double floor_scale =
                share > 0.0 ? floorFor(slot) / share : 1.0;
            slot._throttle = std::max(
                std::min(floor_scale, 1.0),
                slot._throttle * _opts.backoffFraction);
            updateCapLocked(slot);
            if (was_clean && slot._throttle < 1.0)
                _registry->counter("powercap.throttle_enters").add(1);
            _registry->counter("powercap.cap_tightened").add(1);
        }
        return;
    }
    slot.overWindows = 0;
    if (slot._throttle >= 1.0)
        return; // Nothing to relax.
    if (mean < enforcedCap * _opts.recoverFraction) {
        if (++slot.calmWindows >= _opts.recover) {
            slot.calmWindows = 0;
            slot._throttle =
                std::min(1.0, slot._throttle / _opts.backoffFraction);
            updateCapLocked(slot);
            if (slot._throttle >= 1.0)
                _registry->counter("powercap.throttle_exits").add(1);
            _registry->counter("powercap.cap_relaxed").add(1);
        }
    } else {
        // Under the cap but above the recovery band: inside the
        // hysteresis gap. Not calm - restart the streak, so relaxing
        // always means `recover` consecutive genuinely quiet windows.
        slot.calmWindows = 0;
    }
}

void
FleetCapArbiter::onDecision()
{
    const std::uint64_t n =
        _decisions.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % _opts.tickEvery == 0)
        rebalance();
}

void
FleetCapArbiter::rebalance()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        rebalanceLocked();
    }
    _registry->counter("powercap.arbiter_ticks").add(1);
}

std::size_t
FleetCapArbiter::sessionCount() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _slots.size();
}

} // namespace gpupm::powercap
