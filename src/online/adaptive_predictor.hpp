/**
 * @file
 * PerfPowerPredictor facade over a hot-swappable ForestHandle.
 *
 * Governors talk to a PerfPowerPredictor; this adapter lets them ride
 * the handle's RCU publication, in process and in an online-learning
 * fleet alike (runFleet hands it to every session). Each
 * predict/predictBatch call acquires one generation snapshot and
 * evaluates entirely against it, so one batch never mixes generations;
 * a publish is picked up at the next batch boundary.
 *
 * Each generation's RandomForestPredictor memoizes into its own
 * prediction table (and per-thread fronts key on its instanceId), so a
 * swap starts from the new predictor's table on the next batch and
 * never serves a value of the outgoing generation.
 */

#pragma once

#include "ml/predictor.hpp"
#include "online/forest_handle.hpp"

namespace gpupm::online {

/** Forwards every query to the handle's current generation. */
class AdaptivePredictor : public ml::PerfPowerPredictor
{
  public:
    explicit AdaptivePredictor(const ForestHandle &handle)
        : _handle(handle)
    {
    }

    ml::Prediction
    predict(const ml::PredictionQuery &q,
            const hw::HwConfig &c) const override
    {
        return _handle.acquire()->predictor->predict(q, c);
    }

    void
    predictBatch(const ml::PredictionQuery &q,
                 std::span<const hw::HwConfig> cs,
                 std::span<ml::Prediction> out) const override
    {
        // One acquire per decision batch: all candidates of a decision
        // are scored against the same generation.
        _handle.acquire()->predictor->predictBatch(q, cs, out);
    }

    std::string name() const override { return "RF-online"; }

  private:
    const ForestHandle &_handle;
};

} // namespace gpupm::online
