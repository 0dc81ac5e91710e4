/**
 * @file
 * Fleet-shared kernel prediction table plus the per-session predictor
 * decorator that reads it and routes its misses through the broker.
 *
 * Each fleet session owns one SessionPredictor wrapping the shared
 * Random Forest. It adds the two things a multi-tenant server needs
 * that the raw predictor cannot provide:
 *
 *  - a *fleet-shared, multi-kernel* prediction cache. The predictor's
 *    own memo (see RandomForestPredictor::predictBatch) is a one-entry
 *    thread_local keyed on the last kernel seen by the thread; a server
 *    worker interleaves decisions from many sessions and many kernels,
 *    so that entry thrashes and every decision re-walks the forests.
 *    Here one PredictionTable per FleetServer holds a dense per-config
 *    memo for every (forest, hardware model, kernel counters) key that
 *    some resident session uses, so tenants running the same
 *    application share one copy and a kernel any tenant has already
 *    scored costs table lookups only. Each session keeps a small LRU
 *    (kernelCacheCap) of handles into the table; a table entry lives
 *    exactly as long as some session's LRU holds it, so memory stays
 *    within resident sessions x kernelCacheCap entries, and shared
 *    kernels count once;
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

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "hw/model.hpp"
#include "ml/trainer.hpp"
#include "serve/broker.hpp"
#include "telemetry/telemetry.hpp"

namespace gpupm::serve {

/**
 * Predictions keyed on everything they depend on: the forests that
 * produced them, the hardware model whose config descriptors fed the
 * rows, and the kernel's exact counter bits. Thread-safe; owned by one
 * FleetServer (never process-global: two servers on one predictor
 * keep separate tables).
 */
class PredictionTable
{
  public:
    /** One kernel's memo under one (forest, model). */
    class Entry
    {
      public:
        Entry(std::uint64_t forest, hw::HardwareModelPtr model,
              const kernel::KernelCounters &counters);

        /** Forest identity: predictor instanceId, or the generation
         *  ordinal under online learning. */
        const std::uint64_t forest;
        /** Held by reference: the model cannot be freed and its address
         *  reused while an entry keyed on it lives. */
        const hw::HardwareModelPtr model;
        const kernel::KernelCounters counters;
        /** Derived from the counters alone. */
        const ml::KernelFeatures kernelFeatures;
        const double proxy;

        /** The memoized prediction for dense config @p di, if filled. */
        bool lookup(std::size_t di, ml::Prediction &out) const;

        /** Publish @p p[j] for dense config @p di[j] (first fill wins;
         *  every fill of one slot carries the same bits). */
        void fill(std::span<const std::size_t> di,
                  std::span<const ml::Prediction> p);

      private:
        std::mutex _fillMutex;
        std::vector<ml::Prediction> _memo; ///< By denseConfigIndex.
        std::unique_ptr<std::atomic<std::uint8_t>[]> _known;
    };

    /** The live entry for the key, created when none is. */
    std::shared_ptr<Entry> acquire(std::uint64_t forest,
                                   const hw::HardwareModelPtr &model,
                                   const kernel::KernelCounters &counters);

    /** Entries some session still holds. */
    std::size_t liveEntries() const;

  private:
    struct Key
    {
        std::uint64_t forest;
        /** Valid only while the entry lives (the entry pins it). */
        const hw::HardwareModel *model;
        kernel::KernelCounters counters;
        bool operator==(const Key &o) const;
    };
    struct KeyHash
    {
        std::size_t operator()(const Key &k) const;
    };

    mutable std::mutex _mutex;
    std::unordered_map<Key, std::weak_ptr<Entry>, KeyHash> _entries;
    /** Map size at which the next insert sweeps expired slots. */
    std::size_t _pruneAt = 64;
};

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
        PredictionTable *table = nullptr);

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
        std::shared_ptr<PredictionTable::Entry> entry;
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
    std::unique_ptr<PredictionTable> _ownTable; ///< When none is given.
    PredictionTable *_table;

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
