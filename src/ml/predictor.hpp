/**
 * @file
 * Performance/power predictor interface (paper Sec. IV-A3).
 *
 * Predictors estimate a kernel's execution time and GPU-plane power at
 * an arbitrary hardware configuration, given the kernel's performance
 * counters (supplied at runtime by the pattern extractor). The paper's
 * deployed predictor is an offline-trained Random Forest; oracle and
 * synthetic-error predictors exist for the limit study (Fig. 4) and the
 * prediction-inaccuracy study (Fig. 13).
 */

#pragma once

#include <memory>
#include <span>
#include <string>

#include "hw/config.hpp"
#include "hw/model.hpp"
#include "hw/params.hpp"
#include "kernel/counters.hpp"
#include "kernel/kernel.hpp"

namespace gpupm::ml {

/** What a policy knows about an upcoming kernel when predicting. */
struct PredictionQuery
{
    /** Last observed counters for the (expected) kernel. */
    kernel::KernelCounters counters;
    /** Expected dynamic instruction count. */
    InstCount instructions = 0.0;
    /**
     * Ground-truth identity; populated by the simulation harness and
     * consulted only by oracle-family predictors (TO, Err_x%). Counter-
     * driven predictors such as the Random Forest must ignore it.
     */
    const kernel::KernelParams *groundTruth = nullptr;
    /**
     * Hardware model whose config descriptors feed a counter-driven
     * predictor's rows: governors set their own, so a candidate is
     * scored in the governed part's feature scaling. Null means the
     * catalog's "paper-apu".
     */
    hw::HardwareModelPtr model;
};

/** Predictor output. */
struct Prediction
{
    Seconds time = 0.0;  ///< Kernel execution time at the queried config.
    Watts gpuPower = 0.0; ///< Average GPU-plane (GPU+NB+DRAM) power.
};

/** Abstract performance/power predictor. */
class PerfPowerPredictor
{
  public:
    virtual ~PerfPowerPredictor() = default;

    /** Predict time and GPU power at configuration @p c. */
    virtual Prediction predict(const PredictionQuery &q,
                               const hw::HwConfig &c) const = 0;

    /**
     * Predict one kernel at many candidate configurations: out[i] is
     * the prediction for cs[i]; out.size() must equal cs.size(). This
     * is the governor hot path - every decision scores one kernel's
     * counters against many configs. The default implementation loops
     * over predict(); batch-capable predictors (the Random Forest)
     * override it with a fused evaluation that is bit-identical to the
     * scalar loop.
     */
    virtual void predictBatch(const PredictionQuery &q,
                              std::span<const hw::HwConfig> cs,
                              std::span<Prediction> out) const;

    /** Identifier for reports ("RF", "Err_0%", ...). */
    virtual std::string name() const = 0;
};

/**
 * Perfect-knowledge predictor backed by the ground-truth model. Used by
 * the Theoretically Optimal scheme and the Sec. II-E limit study.
 */
class GroundTruthPredictor : public PerfPowerPredictor
{
  public:
    explicit GroundTruthPredictor(const hw::ApuParams &params);
    ~GroundTruthPredictor() override;

    Prediction predict(const PredictionQuery &q,
                       const hw::HwConfig &c) const override;

    std::string name() const override { return "Err_0%"; }

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
};

} // namespace gpupm::ml
