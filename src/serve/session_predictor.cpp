#include "serve/session_predictor.hpp"

#include <cmath>
#include <cstring>

#include "common/logging.hpp"
#include "ml/features.hpp"

namespace gpupm::serve {

SessionPredictor::SessionPredictor(
    std::shared_ptr<const ml::PerfPowerPredictor> base,
    InferenceBroker *broker, hw::HardwareModelPtr model,
    const SessionPredictorOptions &opts,
    telemetry::Registry *telemetry, const online::ForestHandle *handle,
    ml::PredictionTable *table)
    : _base(std::move(base)),
      _rf(dynamic_cast<const ml::RandomForestPredictor *>(_base.get())),
      _broker(broker), _model(std::move(model)), _handle(handle),
      _cap(opts.kernelCacheCap), _table(table)
{
    GPUPM_ASSERT(_base != nullptr, "session predictor needs a base");
    GPUPM_ASSERT(_model != nullptr,
                 "session predictor needs a hardware model");
    GPUPM_ASSERT(!_broker || _rf,
                 "broker routing requires a Random Forest base");
    GPUPM_ASSERT(!_handle || _rf,
                 "hot-swap routing requires a Random Forest base");
    if (!_table && accelerated()) {
        _ownTable = std::make_unique<ml::PredictionTable>();
        _table = _ownTable.get();
    }
    if (telemetry) {
        _hitQueries = &telemetry->counter("serve.cache_hit_queries");
        _missQueries = &telemetry->counter("serve.cache_miss_queries");
        _kernelEvictions = &telemetry->counter("serve.kernel_evictions");
    }
}

void
SessionPredictor::clearCache()
{
    _slots.clear();
}

ml::Prediction
SessionPredictor::predict(const ml::PredictionQuery &q,
                          const hw::HwConfig &c) const
{
    ml::Prediction p;
    predictBatch(q, std::span<const hw::HwConfig>(&c, 1),
                 std::span<ml::Prediction>(&p, 1));
    return p;
}

SessionPredictor::Slot &
SessionPredictor::slotFor(const kernel::KernelCounters &counters,
                          std::uint64_t forest) const
{
    // Linear scan over a small LRU set; caps are tens of kernels, and
    // the common case hits the most-recently-used slot on the first
    // memcmp (kernels relaunch in streaks). Every slot of a session
    // shares its model, so the counters identify the kernel.
    for (auto &s : _slots) {
        if (std::memcmp(&counters, &s.entry->counters,
                        sizeof(counters)) == 0) {
            s.lastUse = ++_clock;
            // Under hot-swap, a handle from an outgoing generation
            // would replay that generation's values: re-look it up.
            if (s.entry->forest != forest)
                s.entry = _table->acquire(forest, _model, counters);
            return s;
        }
    }
    if (_slots.size() >= _cap) {
        std::size_t victim = 0;
        for (std::size_t i = 1; i < _slots.size(); ++i) {
            if (_slots[i].lastUse < _slots[victim].lastUse)
                victim = i;
        }
        _slots.erase(_slots.begin() + static_cast<std::ptrdiff_t>(victim));
        _evictions += 1;
        if (_kernelEvictions)
            _kernelEvictions->add();
    }
    _slots.push_back({_table->acquire(forest, _model, counters), ++_clock});
    return _slots.back();
}

void
SessionPredictor::predictBatch(const ml::PredictionQuery &q,
                               std::span<const hw::HwConfig> cs,
                               std::span<ml::Prediction> out) const
{
    GPUPM_ASSERT(out.size() == cs.size(),
                 "predictBatch output size mismatch");
    const std::size_t n = cs.size();
    if (n == 0)
        return;

    if (!accelerated()) {
        // Oracle-family base (ground truth is not a pure function of
        // the counters) or cache disabled: plain passthrough.
        _base->predictBatch(q, cs, out);
        return;
    }

    // Static forests are identified by the predictor instance; under
    // hot-swap, by the generation currently published.
    std::shared_ptr<const online::ForestGeneration> gen;
    std::uint64_t forest = _rf->instanceId();
    if (_handle) {
        gen = _handle->acquire();
        forest = gen->ordinal;
    }
    Slot &s = slotFor(q.counters, forest);

    // Serve memoized configs; collect the rest for one forest walk.
    std::vector<std::uint32_t> miss;
    for (std::size_t i = 0; i < n; ++i) {
        if (!s.entry->lookup(hw::denseConfigIndex(cs[i]), out[i]))
            miss.push_back(static_cast<std::uint32_t>(i));
    }
    if (_hitQueries && miss.size() < n)
        _hitQueries->add(n - miss.size());
    if (miss.empty())
        return;
    if (_missQueries)
        _missQueries->add(miss.size());

    const std::size_t m = miss.size();
    std::vector<std::size_t> dense(m);
    std::vector<ml::FeatureVector> rows(m);
    std::vector<double> time_log(m), gpu_power(m);
    // Config descriptors come from the session's hardware model, so a
    // variant model's candidates are scored in its own feature scaling
    // (bit-identical to ml::configFeatures for the paper model).
    for (std::size_t j = 0; j < m; ++j) {
        dense[j] = hw::denseConfigIndex(cs[miss[j]]);
        rows[j] = ml::combineFeatures(s.entry->kernelFeatures,
                                      _model->descriptorAt(dense[j]));
    }
    std::uint64_t served = forest;
    if (_broker)
        served = _broker->evaluate(rows, time_log, gpu_power);
    else if (gen)
        gen->predictor->predictRows(rows, time_log, gpu_power);
    else
        _rf->predictRows(rows, time_log, gpu_power);
    // The broker may have flushed us against a generation published
    // after our acquire above; the values belong in that generation's
    // entry. (A static broker reports 0, not an instance id.)
    if (_handle && served != s.entry->forest)
        s.entry = _table->acquire(served, _model, q.counters);

    std::vector<ml::Prediction> fresh(m);
    for (std::size_t j = 0; j < m; ++j) {
        // Same post-processing as RandomForestPredictor::predictBatch:
        // the time forest is trained on log(seconds per instruction).
        fresh[j].time = std::exp(time_log[j]) * s.entry->proxy;
        fresh[j].gpuPower = gpu_power[j];
        out[miss[j]] = fresh[j];
    }
    s.entry->fill(dense, fresh);
}

} // namespace gpupm::serve
