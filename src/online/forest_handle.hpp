/**
 * @file
 * RCU-style publication point for hot-swappable Random Forests (the
 * gpupm::online subsystem).
 *
 * The online-learning loop retrains forests in the background while the
 * fleet server keeps serving predictions. The handle is the single
 * synchronization point between the two: a retrain publishes a new
 * immutable ForestGeneration with one atomic store, and readers (the
 * AdaptivePredictor every governor calls, the learner) acquire a
 * snapshot with one atomic load. Nobody blocks,
 * ever - there is no reader registration, no grace period to wait out,
 * and no lock on either side; old generations stay alive until the last
 * shared_ptr drops.
 *
 * Consistency contract: a reader that acquires a generation at a batch
 * boundary and evaluates the whole batch against that snapshot gets
 * results bit-identical to that generation's forests regardless of
 * concurrent publishes (the generation is immutable). Memos are never
 * shared across generations: each generation's predictor owns its
 * prediction table, so a swap cannot serve a value of the outgoing
 * forests (see ml::PredictionTable); the hot-swap fuzz test pins both
 * properties.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "ml/trainer.hpp"

namespace gpupm::online {

/** One immutable published forest generation. */
struct ForestGeneration
{
    /** Publication ordinal: 0 is the offline-trained baseline. */
    std::uint64_t ordinal = 0;
    std::shared_ptr<const ml::RandomForestPredictor> predictor;
};

/**
 * Atomic shared-pointer publication of the current generation.
 * acquire() and ordinal() are safe from any thread at any time;
 * publish() calls are externally ordered (one retraining loop).
 */
class ForestHandle
{
  public:
    explicit ForestHandle(
        std::shared_ptr<const ml::RandomForestPredictor> baseline)
    {
        auto g = std::make_shared<ForestGeneration>();
        g->ordinal = 0;
        g->predictor = std::move(baseline);
        _current.store(std::move(g), std::memory_order_release);
    }

    ForestHandle(const ForestHandle &) = delete;
    ForestHandle &operator=(const ForestHandle &) = delete;

    /** Snapshot of the current generation (never null). */
    std::shared_ptr<const ForestGeneration>
    acquire() const
    {
        return _current.load(std::memory_order_acquire);
    }

    /** Ordinal of the current generation. */
    std::uint64_t
    ordinal() const
    {
        return acquire()->ordinal;
    }

    /**
     * Publish @p next as the new current generation; returns its
     * ordinal (previous + 1). In-flight readers holding the previous
     * snapshot are unaffected.
     */
    std::uint64_t
    publish(std::shared_ptr<const ml::RandomForestPredictor> next)
    {
        auto g = std::make_shared<ForestGeneration>();
        g->ordinal = acquire()->ordinal + 1;
        g->predictor = std::move(next);
        const std::uint64_t ord = g->ordinal;
        _current.store(std::move(g), std::memory_order_release);
        return ord;
    }

  private:
    std::atomic<std::shared_ptr<const ForestGeneration>> _current;
};

} // namespace gpupm::online
