#include "serve/session_predictor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.hpp"
#include "exec/sweep.hpp"
#include "ml/features.hpp"

namespace gpupm::serve {

PredictionTable::Entry::Entry(std::uint64_t forest,
                              hw::HardwareModelPtr model,
                              const kernel::KernelCounters &counters)
    : forest(forest), model(std::move(model)), counters(counters),
      kernelFeatures(ml::makeKernelFeatures(counters)),
      proxy(ml::instructionProxy(counters)),
      _memo(hw::denseConfigCount),
      _known(new std::atomic<std::uint8_t>[hw::denseConfigCount]())
{
}

bool
PredictionTable::Entry::lookup(std::size_t di, ml::Prediction &out) const
{
    // The acquire pairs with fill()'s release: a set flag means the
    // slot's value is fully written and never written again.
    if (!_known[di].load(std::memory_order_acquire))
        return false;
    out = _memo[di];
    return true;
}

void
PredictionTable::Entry::fill(std::span<const std::size_t> di,
                             std::span<const ml::Prediction> p)
{
    // Two sessions can miss the same slot concurrently; only the first
    // writes it, so no slot is written while a reader may load it.
    std::lock_guard lock(_fillMutex);
    for (std::size_t j = 0; j < di.size(); ++j) {
        if (_known[di[j]].load(std::memory_order_relaxed))
            continue;
        _memo[di[j]] = p[j];
        _known[di[j]].store(1, std::memory_order_release);
    }
}

bool
PredictionTable::Key::operator==(const Key &o) const
{
    // Exact counter bits, as a kernel relaunch reproduces them (value
    // equality would merge -0.0 with 0.0 and never match a NaN).
    return forest == o.forest && model == o.model &&
           std::memcmp(&counters, &o.counters, sizeof(counters)) == 0;
}

std::size_t
PredictionTable::KeyHash::operator()(const Key &k) const
{
    std::uint64_t words[sizeof(k.counters) / sizeof(std::uint64_t)];
    static_assert(sizeof(words) == sizeof(k.counters));
    std::memcpy(words, &k.counters, sizeof(words));
    std::uint64_t h = exec::mix64(
        k.forest ^ reinterpret_cast<std::uintptr_t>(k.model));
    for (const std::uint64_t w : words)
        h = exec::mix64(h ^ w);
    return static_cast<std::size_t>(h);
}

std::shared_ptr<PredictionTable::Entry>
PredictionTable::acquire(std::uint64_t forest,
                         const hw::HardwareModelPtr &model,
                         const kernel::KernelCounters &counters)
{
    std::lock_guard lock(_mutex);
    // Expired slots are swept once the map doubles past its last live
    // size, so the map stays within twice the entries sessions hold.
    if (_entries.size() >= _pruneAt) {
        std::erase_if(_entries,
                      [](const auto &kv) { return kv.second.expired(); });
        _pruneAt = std::max<std::size_t>(64, 2 * _entries.size());
    }
    auto [it, inserted] =
        _entries.try_emplace(Key{forest, model.get(), counters});
    if (!inserted) {
        if (auto live = it->second.lock())
            return live;
    }
    auto entry = std::make_shared<Entry>(forest, model, counters);
    it->second = entry;
    return entry;
}

std::size_t
PredictionTable::liveEntries() const
{
    std::lock_guard lock(_mutex);
    return static_cast<std::size_t>(
        std::count_if(_entries.begin(), _entries.end(),
                      [](const auto &kv) { return !kv.second.expired(); }));
}

SessionPredictor::SessionPredictor(
    std::shared_ptr<const ml::PerfPowerPredictor> base,
    InferenceBroker *broker, hw::HardwareModelPtr model,
    const SessionPredictorOptions &opts,
    telemetry::Registry *telemetry, const online::ForestHandle *handle,
    PredictionTable *table)
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
        _ownTable = std::make_unique<PredictionTable>();
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
