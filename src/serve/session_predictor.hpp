/**
 * @file
 * Per-session predictor decorator: reads the fleet's shared
 * ml::PredictionTable and routes its misses through the broker.
 *
 * Each fleet session owns one SessionPredictor wrapping the shared
 * Random Forest. It adds the two things a multi-tenant server needs
 * that the raw predictor's predictBatch does not provide:
 *
 *  - a prediction cache keyed on the *session's* hardware model. The
 *    predictor's own table (see RandomForestPredictor::predictBatch)
 *    keys every entry on the paper model, because its rows use
 *    ml::configFeatures; a session scores candidates with its own
 *    model's descriptors. One ml::PredictionTable per FleetServer
 *    holds a dense per-config memo for every (forest, hardware model,
 *    kernel counters) key that some resident session uses, so tenants
 *    running the same application share one copy and a kernel any
 *    tenant has already scored costs table lookups only. Each session
 *    keeps a small LRU (kernelCacheCap) of handles into the table; the
 *    server's table retains nothing itself, so an entry lives exactly
 *    as long as some session's LRU holds it, memory stays within
 *    resident sessions x kernelCacheCap entries, and shared kernels
 *    count once;
 *
 *  - routing of memo misses through the InferenceBroker, where rows
 *    from all in-flight decisions coalesce into shared tree-major
 *    FlatForest walks.
 *
 * Memoized values are exactly what the forests produced, and broker
 * batching never changes a row's result, so every prediction is
 * bit-identical to calling the wrapped predictor directly - whichever
 * session happened to fill the slot.
 *
 * Hot-swap: under online learning the forests behind the broker change
 * generation at flush boundaries. The table key carries the generation
 * ordinal whose forests produced the values, so a swap is a re-lookup:
 * the first time a session touches a kernel at a new generation, its
 * LRU handle moves to that generation's entry, and the outgoing
 * generation's entry dies with its last holder. A swap landing
 * *inside* one decision can transiently mix memo hits from the
 * outgoing generation with fresh walks from the incoming one within
 * that decision's out[] span; batch purity (all rows of one broker
 * flush walked by one generation) still holds, which is the invariant
 * the hot-swap fuzz test pins.
 *
 * Threading: a session is processed by one worker at a time (the
 * server checks sessions out exclusively), so a SessionPredictor's LRU
 * needs no locking. The table is shared by every worker: lookups take
 * its mutex, and an entry's slots are published with release stores
 * (fills serialize on the entry's own mutex), so readers never lock.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hw/model.hpp"
#include "ml/prediction_table.hpp"
#include "ml/trainer.hpp"
#include "serve/broker.hpp"
#include "telemetry/telemetry.hpp"

namespace gpupm::serve {

struct SessionPredictorOptions
{
    /**
     * LRU cap on the session's table handles; 0 disables the cache (and
     * broker routing), turning the decorator into a passthrough - the
     * single-tenant baseline the fleet benchmark compares against.
     */
    std::size_t kernelCacheCap = 32;
};

class SessionPredictor : public ml::PerfPowerPredictor
{
  public:
    /**
     * @param base Shared predictor. Caching and brokering engage only
     *        when it is a RandomForestPredictor; other predictors
     *        (oracle families consult ground truth, so counters are
     *        not a safe cache key) pass through untouched.
     * @param broker Shared broker; null evaluates misses directly.
     * @param model Hardware model whose config descriptors feed the
     *        feature rows (the session's model, so heterogeneous
     *        fleets score candidates in their own model's scaling).
     * @param handle Hot-swap publication point; null = static forests.
     *        When set, base must be the (baseline) Random Forest, and
     *        broker-less misses walk the handle's current generation.
     * @param telemetry Registry receiving cache metrics; may be null.
     * @param table The server's shared table; null gives the session a
     *        private one (a standalone predictor).
     */
    SessionPredictor(
        std::shared_ptr<const ml::PerfPowerPredictor> base,
        InferenceBroker *broker, hw::HardwareModelPtr model,
        const SessionPredictorOptions &opts = {},
        telemetry::Registry *telemetry = nullptr,
        const online::ForestHandle *handle = nullptr,
        ml::PredictionTable *table = nullptr);

    ml::Prediction predict(const ml::PredictionQuery &q,
                           const hw::HwConfig &c) const override;

    void predictBatch(const ml::PredictionQuery &q,
                      std::span<const hw::HwConfig> cs,
                      std::span<ml::Prediction> out) const override;

    std::string name() const override { return _base->name(); }

    /** Whether the cache/broker path is engaged (base is an RF). */
    bool accelerated() const { return _rf != nullptr && _cap > 0; }

    /** Table entries this session's LRU holds. */
    std::size_t cachedKernels() const { return _slots.size(); }
    std::size_t cacheEvictions() const { return _evictions; }

    /** Drop every held table entry (session reset). */
    void clearCache();

  private:
    struct Slot
    {
        std::shared_ptr<ml::PredictionTable::Entry> entry;
        std::uint64_t lastUse = 0;
    };

    /** The LRU slot for @p counters, bound to forest @p forest. */
    Slot &slotFor(const kernel::KernelCounters &counters,
                  std::uint64_t forest) const;

    std::shared_ptr<const ml::PerfPowerPredictor> _base;
    const ml::RandomForestPredictor *_rf; ///< base, when it is an RF.
    InferenceBroker *_broker;
    hw::HardwareModelPtr _model;
    const online::ForestHandle *_handle;
    std::size_t _cap;
    std::unique_ptr<ml::PredictionTable> _ownTable; ///< When none is given.
    ml::PredictionTable *_table;

    // Session-local mutable state (single-worker access; see above).
    mutable std::vector<Slot> _slots;
    mutable std::uint64_t _clock = 0;
    mutable std::size_t _evictions = 0;

    // Shared telemetry cells (atomic; may be null).
    telemetry::Counter *_hitQueries = nullptr;
    telemetry::Counter *_missQueries = nullptr;
    telemetry::Counter *_kernelEvictions = nullptr;
};

} // namespace gpupm::serve
