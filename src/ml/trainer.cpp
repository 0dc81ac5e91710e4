#include "ml/trainer.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>

#include "common/logging.hpp"
#include "exec/sweep.hpp"
#include "kernel/perf_model.hpp"
#include "trace/trace.hpp"
#include "workload/training.hpp"

namespace gpupm::ml {

double
instructionProxy(const kernel::KernelCounters &c)
{
    return std::max(1.0, c.globalWorkSize * (c.valuInsts + c.vfetchInsts));
}

namespace {

std::uint64_t
nextPredictorInstanceId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

RandomForestPredictor::RandomForestPredictor(RandomForest time_forest,
                                             RandomForest power_forest,
                                             SimdMode simd)
    : _timeFlat(FlatForest::reserve(time_forest)),
      _powerFlat(FlatForest::reserve(power_forest)), _simd(simd),
      _instanceId(nextPredictorInstanceId())
{
    // The arenas are independent, and both are allocated above (see
    // FlatForest::reserve): the power arena builds on a helper thread
    // while this one builds the time arena. The arenas hold all a save
    // needs, so each tree is freed as soon as it is copied.
    auto power = std::async(std::launch::async, [&] {
        _powerFlat.build(std::move(power_forest));
    });
    _timeFlat.build(std::move(time_forest));
    power.get();
    _timeFlat.setSimdMode(simd);
    _powerFlat.setSimdMode(simd);
}

Prediction
RandomForestPredictor::predict(const PredictionQuery &q,
                               const hw::HwConfig &c) const
{
    Prediction p;
    predictBatch(q, std::span<const hw::HwConfig>(&c, 1),
                 std::span<Prediction>(&p, 1));
    return p;
}

void
RandomForestPredictor::predictRows(std::span<const FeatureVector> rows,
                                   std::span<double> time_log,
                                   std::span<double> gpu_power) const
{
    GPUPM_ASSERT(time_log.size() == rows.size() &&
                     gpu_power.size() == rows.size(),
                 "predictRows output size mismatch");
    if (rows.empty())
        return;
    trace::Span span(trace::Category::Ml, "ml.predictRows", "rows",
                     static_cast<double>(rows.size()));
    _timeFlat.predictBatch(rows, time_log);
    _powerFlat.predictBatch(rows, gpu_power);
}

namespace {

/**
 * Memo misses in one batch that justify building residual forests.
 * Specializing both forests costs roughly as much as thirty full-forest
 * prediction pairs, so hill-climb probes never pay it and exhaustive
 * scans (hundreds of configs) always do.
 */
constexpr std::size_t kSpecializeMissThreshold = 48;

/**
 * Per-thread front of handles into predictors' tables: the entries this
 * thread used most recently, each tagged with its predictor's
 * instanceId. A governor decision scores the kernels of its horizon
 * window one after another (each climb is one batch plus single-config
 * steps), so a front a few windows deep serves nearly every request
 * without the table mutex. A handle keeps its entry (and its model)
 * alive after the table drops it; it never matches another predictor,
 * because instance ids are never reused.
 */
struct EntryFront
{
    static constexpr std::size_t kSlots = 32;

    struct Slot
    {
        std::uint64_t owner = 0; ///< instanceId; 0 = empty.
        std::shared_ptr<PredictionTable::Entry> entry;
        std::uint64_t lastUse = 0;
    };

    std::array<Slot, kSlots> slots;
    std::uint64_t clock = 0;
    std::size_t last = 0; ///< Slot of the last hit, checked first.

    PredictionTable::Entry *
    find(std::uint64_t owner, const hw::HardwareModel *model,
         const kernel::KernelCounters &counters)
    {
        // Exact counter bits, like the table key.
        const auto matches = [&](const Slot &s) {
            return s.owner == owner && s.entry->model.get() == model &&
                   std::memcmp(&counters, &s.entry->counters,
                               sizeof(counters)) == 0;
        };
        if (!matches(slots[last])) {
            std::size_t i = 0;
            while (i < kSlots && !matches(slots[i]))
                ++i;
            if (i == kSlots)
                return nullptr;
            last = i;
        }
        slots[last].lastUse = ++clock;
        return slots[last].entry.get();
    }

    /** Hold @p entry in the least recently used slot. */
    PredictionTable::Entry *
    hold(std::uint64_t owner, std::shared_ptr<PredictionTable::Entry> entry)
    {
        std::size_t victim = 0;
        for (std::size_t i = 1; i < kSlots; ++i) {
            if (slots[i].lastUse < slots[victim].lastUse)
                victim = i;
        }
        slots[victim] = {owner, std::move(entry), ++clock};
        last = victim;
        return slots[victim].entry.get();
    }
};

/** The model a query without one is scored on; a reference, so the
 *  hot path never touches the handle's shared count. */
const hw::HardwareModelPtr &
paperModel()
{
    static const hw::HardwareModelPtr model = hw::paperApu();
    return model;
}

} // namespace

void
RandomForestPredictor::predictBatch(const PredictionQuery &q,
                                    std::span<const hw::HwConfig> cs,
                                    std::span<Prediction> out) const
{
    GPUPM_ASSERT(out.size() == cs.size(),
                 "predictBatch output size mismatch");
    const std::size_t n = cs.size();
    if (n == 0)
        return;
    trace::Span span(trace::Category::Ml, "ml.predictBatch", "configs",
                     static_cast<double>(n));

    const hw::HardwareModelPtr &model = q.model ? q.model : paperModel();
    thread_local EntryFront front;
    PredictionTable::Entry *entry =
        front.find(_instanceId, model.get(), q.counters);
    if (!entry && n >= 2)
        entry = front.hold(_instanceId, _table.acquire(model, q.counters));

    if (!entry) {
        // Cold single query (n >= 2 always claims an entry). Routed
        // through the flat engines - not the scalar recursive walk -
        // so the answer comes from the *same* engine (and, in a
        // quantized mode, the same rounding) as the batched paths:
        // a prediction must be a pure function of (counters, model,
        // config, mode), never of cache state. Bit-identical to the
        // recursive walk in scalar mode.
        const auto kf = makeKernelFeatures(q.counters);
        const double proxy = instructionProxy(q.counters);
        const auto f = combineFeatures(kf, model->descriptor(cs[0]));
        // Trained on log(seconds per instruction); scale back up by
        // the counter-derived instruction proxy.
        out[0].time = std::exp(_timeFlat.predict(f)) * proxy;
        out[0].gpuPower = _powerFlat.predict(f);
        return;
    }

    // Serve memoized configs; walk forests only for the rest. Scratch
    // buffers are thread_local so the hot path never allocates once
    // warm.
    thread_local std::vector<std::uint32_t> miss;
    miss.clear();
    for (std::size_t i = 0; i < n; ++i) {
        if (!entry->lookup(hw::denseConfigIndex(cs[i]), out[i]))
            miss.push_back(static_cast<std::uint32_t>(i));
    }
    if (miss.empty())
        return;

    const std::size_t m = miss.size();
    thread_local std::vector<FeatureVector> feats;
    thread_local std::vector<double> time_pred, power_pred;
    thread_local std::vector<std::size_t> dense;
    thread_local std::vector<Prediction> fresh;
    feats.resize(m);
    time_pred.resize(m);
    power_pred.resize(m);
    dense.resize(m);
    fresh.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
        dense[j] = hw::denseConfigIndex(cs[miss[j]]);
        feats[j] = combineFeatures(entry->kernelFeatures,
                                   model->descriptorAt(dense[j]));
    }
    if (m >= kSpecializeMissThreshold) {
        // Residual trees split on config features alone and return the
        // full forests' bits (see FlatForest::specialize). Built for
        // this batch only: a residual of the default forest is far
        // larger than the entry's memo, and the memo answers the
        // kernel's later requests.
        const FlatForest time = _timeFlat.specialize(entry->kernelFeatures);
        const FlatForest power =
            _powerFlat.specialize(entry->kernelFeatures);
        time.predictBatch(feats, time_pred);
        power.predictBatch(feats, power_pred);
    } else {
        _timeFlat.predictBatch(feats, time_pred);
        _powerFlat.predictBatch(feats, power_pred);
    }
    for (std::size_t j = 0; j < m; ++j) {
        fresh[j].time = std::exp(time_pred[j]) * entry->proxy;
        fresh[j].gpuPower = power_pred[j];
        out[miss[j]] = fresh[j];
    }
    entry->fill(dense, fresh);
}

std::unique_ptr<RandomForestPredictor>
trainRandomForestPredictor(const TrainerOptions &opts,
                           TrainingReport *report)
{
    const kernel::GroundTruthModel model(hw::ApuParams::defaults());
    const hw::ConfigSpace space;
    const auto corpus =
        workload::trainingCorpus(opts.corpusSize, opts.seed);

    // Row generation fans out per corpus kernel; each job fills its own
    // slot and rows are appended in corpus order afterwards, so the
    // dataset is bit-identical to the serial loop at any job count.
    struct Row
    {
        FeatureVector f;
        double timeTarget;
        double powerTarget;
    };
    const int stride = std::max(1, opts.configStride);
    exec::SweepEngine engine({opts.jobs, opts.seed});
    const auto per_kernel = engine.map<std::vector<Row>>(
        corpus.size(), [&](std::size_t ki, Pcg32 &) {
            const auto &k = corpus[ki];
            std::vector<Row> rows;
            rows.reserve(space.size() / stride + 1);
            for (std::size_t ci = 0; ci < space.size();
                 ci += static_cast<std::size_t>(stride)) {
                const auto &c = space.at(ci);
                const auto est = model.estimate(k, c);
                const auto counters = model.counters(k, c, est);
                const auto pb = model.powerModel().steadyStatePower(
                    c, model.activity(est));
                rows.push_back(
                    {makeFeatures(counters, c),
                     std::log(est.time / instructionProxy(counters)),
                     pb.gpu()});
            }
            return rows;
        });

    Dataset time_data, power_data;
    for (const auto &rows : per_kernel) {
        for (const auto &row : rows) {
            time_data.add(row.f, row.timeTarget);
            power_data.add(row.f, row.powerTarget);
        }
    }

    ForestOptions time_opts = opts.forest;
    time_opts.jobs = opts.jobs;
    time_opts.seed = opts.seed ^ 0x1ee7ULL;
    ForestOptions power_opts = opts.forest;
    power_opts.jobs = opts.jobs;
    power_opts.seed = opts.seed ^ 0x9ab3ULL;

    RandomForest time_forest;
    RandomForest power_forest;
    if (auto *pool = engine.pool()) {
        // Both forests fit concurrently on the engine's pool, each
        // fanning its trees across the same workers. Per-tree inputs
        // are pre-drawn serially inside fit(), so the result is
        // byte-identical to the serial path at any job count.
        auto time_done = pool->submit(
            [&] { time_forest.fit(time_data, time_opts, pool); });
        power_forest.fit(power_data, power_opts, pool);
        time_done.get();
    } else {
        time_forest.fit(time_data, time_opts, nullptr);
        power_forest.fit(power_data, power_opts, nullptr);
    }

    if (report) {
        // Time OOB error is on the log-rate target; the proxy factor
        // cancels in the relative error, so exponentiate and compare.
        double s = 0.0;
        std::size_t n = 0;
        const auto &oob = time_forest.oobPredictions();
        for (std::size_t i = 0; i < time_data.size(); ++i) {
            if (!oob[i])
                continue;
            double actual = std::exp(time_data.y[i]);
            double pred = std::exp(*oob[i]);
            s += std::fabs((actual - pred) / actual);
            ++n;
        }
        report->timeOobMapePct =
            n ? 100.0 * s / static_cast<double>(n) : 0.0;
        report->powerOobMapePct = power_forest.oobMape(power_data);
        report->datasetRows = time_data.size();
    }

    return std::make_unique<RandomForestPredictor>(
        std::move(time_forest), std::move(power_forest), opts.simd);
}

EvalReport
evaluatePredictor(const PerfPowerPredictor &pred,
                  const std::vector<kernel::KernelParams> &ks)
{
    const kernel::GroundTruthModel model(hw::ApuParams::defaults());
    const hw::ConfigSpace space;

    EvalReport out;
    double time_err = 0.0, power_err = 0.0;
    for (const auto &k : ks) {
        for (const auto &c : space.all()) {
            const auto est = model.estimate(k, c);
            const auto pb = model.powerModel().steadyStatePower(
                c, model.activity(est));

            PredictionQuery q;
            q.counters = model.counters(k, c, est);
            q.instructions = k.instructions();
            q.groundTruth = &k;
            const auto p = pred.predict(q, c);

            time_err += std::fabs((est.time - p.time) / est.time);
            power_err += std::fabs((pb.gpu() - p.gpuPower) / pb.gpu());
            ++out.samples;
        }
    }
    if (out.samples) {
        out.timeMapePct = 100.0 * time_err / out.samples;
        out.powerMapePct = 100.0 * power_err / out.samples;
    }
    return out;
}

} // namespace gpupm::ml
