#include "ml/prediction_table.hpp"

#include <algorithm>
#include <cstring>

#include "exec/sweep.hpp"
#include "ml/trainer.hpp"

namespace gpupm::ml {

PredictionTable::Entry::Entry(hw::HardwareModelPtr model,
                              const kernel::KernelCounters &counters)
    : model(std::move(model)), counters(counters),
      kernelFeatures(makeKernelFeatures(counters)),
      proxy(instructionProxy(counters)), _memo(hw::denseConfigCount),
      _known(new std::atomic<std::uint8_t>[hw::denseConfigCount]())
{
}

bool
PredictionTable::Entry::lookup(std::size_t di, Prediction &out) const
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
                             std::span<const Prediction> p)
{
    // Two threads can miss the same slot concurrently; only the first
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
    return model == o.model &&
           std::memcmp(&counters, &o.counters, sizeof(counters)) == 0;
}

std::size_t
PredictionTable::KeyHash::operator()(const Key &k) const
{
    std::uint64_t words[sizeof(k.counters) / sizeof(std::uint64_t)];
    static_assert(sizeof(words) == sizeof(k.counters));
    std::memcpy(words, &k.counters, sizeof(words));
    std::uint64_t h =
        exec::mix64(reinterpret_cast<std::uintptr_t>(k.model));
    for (const std::uint64_t w : words)
        h = exec::mix64(h ^ w);
    return static_cast<std::size_t>(h);
}

PredictionTable::PredictionTable() : _retained(kRetained) {}

std::shared_ptr<PredictionTable::Entry>
PredictionTable::acquire(const hw::HardwareModelPtr &model,
                         const kernel::KernelCounters &counters)
{
    std::lock_guard lock(_mutex);
    // Expired slots are swept once the map doubles past its last live
    // size, so the map stays within twice the live entries.
    if (_entries.size() >= _pruneAt) {
        std::erase_if(_entries,
                      [](const auto &kv) { return kv.second.expired(); });
        _pruneAt = std::max<std::size_t>(64, 2 * _entries.size());
    }
    auto [it, inserted] =
        _entries.try_emplace(Key{model.get(), counters});
    if (!inserted) {
        if (auto live = it->second.lock())
            return live;
    }
    auto entry = std::make_shared<Entry>(model, counters);
    it->second = entry;
    // The oldest retained entry dies here unless a caller still holds
    // it.
    _retained[_retainNext] = entry;
    _retainNext = (_retainNext + 1) % kRetained;
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

} // namespace gpupm::ml
