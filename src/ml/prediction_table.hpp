/**
 * @file
 * Dense per-config prediction memo, shared across threads: the one
 * cache of finished (time, power) predictions in the library.
 *
 * A prediction is a pure function of (forests, hardware model whose
 * config descriptors fed the rows, kernel counters, config), and the
 * MPC premise is kernels relaunching with identical counters, so
 * steady-state decisions mostly re-request pairs already computed.
 * One Entry per (model, counter bits) key holds a slot for every dense
 * config index; whoever walks the forests for a slot publishes the
 * value there, and every later request for it - from any thread - is a
 * load.
 *
 * Every table belongs to exactly one RandomForestPredictor, so the
 * forests are implied by the owner and are not part of the key. The
 * predictor's predictBatch is the only writer, for every caller: gpupm
 * run/sweep, replay, the benches and each fleet session's governor.
 * The table retains its newest kRetained entries itself, so a kernel
 * scored by one sweep job or tenant is still warm for the next.
 *
 * Threading: lookups in the key map take the table mutex; an entry's
 * slots are published with release stores (fills serialize on the
 * entry's own mutex), so reading a slot never locks.
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
#include "kernel/counters.hpp"
#include "ml/features.hpp"
#include "ml/predictor.hpp"

namespace gpupm::ml {

/**
 * One predictor's predictions, keyed on the hardware model whose config
 * descriptors fed the rows and the kernel's exact counter bits.
 * Thread-safe; never process-global.
 */
class PredictionTable
{
  public:
    /** Entries the table keeps alive itself (~19 KB each): the most
     *  recently created ones. A sweep of the paper's 15 benchmarks
     *  creates a few hundred. */
    static constexpr std::size_t kRetained = 1024;

    /** One kernel's memo under one hardware model. */
    class Entry
    {
      public:
        Entry(hw::HardwareModelPtr model,
              const kernel::KernelCounters &counters);

        /** Held by reference: the model cannot be freed and its address
         *  reused while an entry keyed on it lives. */
        const hw::HardwareModelPtr model;
        const kernel::KernelCounters counters;
        /** Derived from the counters alone. */
        const KernelFeatures kernelFeatures;
        const double proxy;

        /** The memoized prediction for dense config @p di, if filled. */
        bool lookup(std::size_t di, Prediction &out) const;

        /** Publish @p p[j] for dense config @p di[j] (first fill wins;
         *  every fill of one slot carries the same bits). */
        void fill(std::span<const std::size_t> di,
                  std::span<const Prediction> p);

      private:
        std::mutex _fillMutex;
        std::vector<Prediction> _memo; ///< By denseConfigIndex.
        std::unique_ptr<std::atomic<std::uint8_t>[]> _known;
    };

    PredictionTable();

    /** The live entry for the key, created when none is. */
    std::shared_ptr<Entry> acquire(const hw::HardwareModelPtr &model,
                                   const kernel::KernelCounters &counters);

    /** Entries the table retains or some caller still holds. */
    std::size_t liveEntries() const;

  private:
    struct Key
    {
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
    /** Ring of the newest created entries. */
    std::vector<std::shared_ptr<Entry>> _retained;
    std::size_t _retainNext = 0;
};

} // namespace gpupm::ml
