/**
 * @file
 * Offline training pipeline for the Random Forest predictor.
 *
 * Mirrors the paper's methodology (Sec. IV-A3, V): run a training corpus
 * of kernels over the hardware configurations, record the counters,
 * execution time and GPU power for each run, and fit two forests - one
 * for time (on a log target, given the wide dynamic range) and one for
 * power. The resulting RandomForestPredictor consumes only counters and
 * the target configuration; it never touches kernel ground truth.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/flat_forest.hpp"
#include "ml/prediction_table.hpp"
#include "ml/predictor.hpp"
#include "ml/random_forest.hpp"

namespace gpupm::ml {

/**
 * Dynamic-instruction proxy computed from observable counters; the time
 * forest is trained on log(time / proxy) ("seconds per instruction"),
 * which has a far narrower dynamic range than absolute time and
 * therefore generalizes across kernels of very different sizes.
 */
double instructionProxy(const kernel::KernelCounters &c);

/**
 * Counter-driven Random Forest predictor (the paper's "RF").
 *
 * Construction compiles both fitted forests into FlatForest arenas
 * and keeps only those; each tree of the training-format forests it was
 * given is freed once copied, and saveRandomForest writes from the
 * arenas.
 * All inference - scalar and batched - runs on the flat engine, with
 * the kernel-feature prefix computed once per query and the config
 * suffix served from the hardware model's descriptor table. In scalar
 * mode, results are bit-identical to RandomForest::predict on the
 * source forests via makeFeatures.
 *
 * predictBatch memoizes finished predictions in one PredictionTable
 * per predictor, shared by every thread that calls it (see
 * predictBatch). The predictor is therefore neither copyable nor
 * movable; hold it by pointer.
 */
class RandomForestPredictor : public PerfPowerPredictor
{
  public:
    /**
     * Reserves both arenas on the calling thread, builds the power
     * arena on a helper while this thread builds the time arena,
     * freeing each tree as it is copied.
     *
     * @param simd Inference engine for both compiled forests (see
     * simd.hpp). Fixed for the predictor's lifetime so memoized
     * predictions and residual specializations never mix engines;
     * online refits propagate the serving generation's mode.
     */
    RandomForestPredictor(RandomForest time_forest,
                          RandomForest power_forest,
                          SimdMode simd = defaultSimdMode());

    Prediction predict(const PredictionQuery &q,
                       const hw::HwConfig &c) const override;

    /**
     * Scores one kernel against many configs, serving memoized configs
     * from the predictor's table. Every row is the kernel's feature
     * prefix plus q.model's descriptor of the config (paper-apu when
     * q.model is null), so a governor scores candidates in its own
     * part's feature scaling. Every multi-config batch claims the
     * kernel's entry (keyed on that model and the exact counter bits);
     * a single query reads an entry the calling thread already holds
     * and otherwise walks the forests without claiming one, so
     * model-evaluation sweeps of single queries leave the table alone.
     * Each thread keeps its most recently used entries in a small
     * front, so a hit takes no lock; only a front miss takes the table
     * mutex. Misses walk the full forests, or, when one batch misses as
     * many configs as an exhaustive scan does, residual forests
     * specialized for the kernel and dropped after the batch. Every
     * path returns the same bits, so a value is a pure function of
     * (counters, model, config, SIMD mode), whichever thread filled
     * the slot.
     */
    void predictBatch(const PredictionQuery &q,
                      std::span<const hw::HwConfig> cs,
                      std::span<Prediction> out) const override;

    /**
     * Raw forest outputs for prebuilt feature rows that may mix
     * different kernels and configs in one batch, walked tree-major in
     * a single pass and never memoized: the reference walk that checks
     * predictBatch's table (the hot-swap fuzz compares every served
     * batch with it). Each row is combineFeatures(makeKernelFeatures(
     * counters), model.descriptor(config)); time_log[i] receives the
     * time forest's log(seconds-per-instruction) output (callers scale
     * by std::exp(time_log[i]) * instructionProxy(counters)),
     * gpu_power[i] the power forest's Watts. Per-row results are
     * bit-identical to predict()/predictBatch() on the same (counters,
     * model, config): FlatForest rows are evaluated independently, so
     * batch composition never changes a result. Stateless and safe to
     * call concurrently.
     */
    void predictRows(std::span<const FeatureVector> rows,
                     std::span<double> time_log,
                     std::span<double> gpu_power) const;

    std::string name() const override { return "RF"; }

    /** The compiled forests: inference engines, and what a save writes. */
    const FlatForest &timeFlat() const { return _timeFlat; }
    const FlatForest &powerFlat() const { return _powerFlat; }

    /** Requested inference engine (construction-time, immutable). */
    SimdMode simdMode() const { return _simd; }
    /** The execution path the mode resolved to on this host. */
    SimdPath simdPath() const { return _timeFlat.simdPath(); }

    /**
     * Process-unique identity of this predictor instance. Caches keyed
     * on the predictor (the per-thread fronts of handles into its
     * table) must use this rather than the object address: online retraining destroys predictors and
     * allocates replacements, and a recycled address would validate a
     * stale cache entry against the new forests.
     */
    std::uint64_t instanceId() const { return _instanceId; }

    /** The table predictBatch memoizes into (diagnostics). */
    const PredictionTable &predictionTable() const { return _table; }

  private:
    FlatForest _timeFlat;
    FlatForest _powerFlat;
    SimdMode _simd;
    std::uint64_t _instanceId;
    mutable PredictionTable _table;
};

/** Training configuration. */
struct TrainerOptions
{
    /** Kernels in the training corpus. */
    std::size_t corpusSize = 128;
    /** Seed for corpus generation and forest fitting. */
    std::uint64_t seed = 0x7a41ULL;
    /** Keep every config (1) or sample every k-th config (k>1). */
    int configStride = 1;
    /**
     * Worker threads for dataset generation and forest fitting
     * (1 = serial, 0 = hardware concurrency). Output is bit-identical
     * for every value: dataset rows are produced per kernel and
     * appended in corpus order, both forests fit concurrently from
     * serially pre-drawn bootstrap samples and rng streams, and OOB
     * sums reduce in tree order (see ForestOptions::jobs).
     */
    std::size_t jobs = 1;
    /**
     * Inference engine for the trained predictor (`--simd` flag /
     * GPUPM_SIMD env; see simd.hpp). Training itself - splits, OOB
     * accumulation - always runs the float path; this only selects
     * how the resulting predictor evaluates.
     */
    SimdMode simd = defaultSimdMode();
    ForestOptions forest = ForestOptions::regressionDefaults();
};

/** Accuracy summary of a trained predictor. */
struct TrainingReport
{
    double timeOobMapePct = 0.0;  ///< OOB MAPE of the time forest (%).
    double powerOobMapePct = 0.0; ///< OOB MAPE of the power forest (%).
    std::size_t datasetRows = 0;
};

/**
 * Build the training dataset and fit the forests.
 *
 * @param opts Training configuration.
 * @param[out] report Accuracy summary, if non-null.
 */
std::unique_ptr<RandomForestPredictor>
trainRandomForestPredictor(const TrainerOptions &opts = {},
                           TrainingReport *report = nullptr);

/**
 * Evaluate a predictor's time/power MAPE against ground truth over a
 * set of kernels and all configurations (paper Sec. VI-D quotes 25%
 * performance and 12% power MAPE for its RF on the 15 benchmarks).
 */
struct EvalReport
{
    double timeMapePct = 0.0;
    double powerMapePct = 0.0;
    std::size_t samples = 0;
};

EvalReport evaluatePredictor(const PerfPowerPredictor &pred,
                             const std::vector<kernel::KernelParams> &ks);

} // namespace gpupm::ml
