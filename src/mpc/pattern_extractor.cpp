#include "mpc/pattern_extractor.hpp"

#include "common/logging.hpp"

namespace gpupm::mpc {

void
PatternExtractor::beginRun()
{
    if (!_currentSeq.empty()) {
        // Keep the longest complete picture of the application we have.
        // A later run that deviated is not committed over a good one.
        if (_learnedSeq.empty() || !_sequenceBroken)
            _learnedSeq = _currentSeq;
    }
    _currentSeq.clear();
    _sequenceBroken = false;
}

std::size_t
PatternExtractor::observe(const kernel::KernelCounters &counters,
                          Seconds time, Watts gpu_power, InstCount insts,
                          const kernel::KernelParams *truth)
{
    const auto sig = kernel::signatureOf(counters);
    std::size_t id;
    auto it = _index.find(sig);
    if (it == _index.end()) {
        id = _store.size();
        StoredKernel rec;
        rec.signature = sig;
        _store.push_back(rec);
        _index.emplace(sig, id);
    } else {
        id = it->second;
    }

    // Performance-counter feedback: the stored values always reflect
    // the most recent execution (paper Sec. IV-A2).
    auto &rec = _store[id];
    rec.counters = counters;
    rec.time = time;
    rec.gpuPower = gpu_power;
    rec.instructions = insts;
    rec.truth = truth;

    const std::size_t pos = _currentSeq.size();
    if (!_learnedSeq.empty() &&
        (pos >= _learnedSeq.size() || _learnedSeq[pos] != id)) {
        _sequenceBroken = true;
    }
    _currentSeq.push_back(id);
    return id;
}

bool
PatternExtractor::hasLearnedSequence() const
{
    return !_learnedSeq.empty() && !_sequenceBroken;
}

std::size_t
PatternExtractor::learnedSequenceLength() const
{
    return _learnedSeq.size();
}

void
PatternExtractor::expectedWindow(std::size_t first, std::size_t count,
                                 std::vector<std::size_t> &out) const
{
    out.clear();
    if (hasLearnedSequence()) {
        for (std::size_t i = first;
             i < first + count && i < _learnedSeq.size(); ++i) {
            out.push_back(_learnedSeq[i]);
        }
        return;
    }

    // No (valid) previous run: extrapolate in-run periodicity.
    auto period = detectPeriod(_currentSeq);
    if (!period)
        return;
    for (std::size_t i = first; i < first + count; ++i) {
        // Continue the cycle: index i maps onto the observed sequence
        // by stepping back whole periods.
        std::size_t j = i;
        while (j >= _currentSeq.size())
            j -= *period;
        out.push_back(_currentSeq[j]);
    }
}

const StoredKernel &
PatternExtractor::record(std::size_t id) const
{
    GPUPM_ASSERT(id < _store.size(), "bad store id ", id);
    return _store[id];
}

StoredKernel &
PatternExtractor::mutableRecord(std::size_t id)
{
    GPUPM_ASSERT(id < _store.size(), "bad store id ", id);
    return _store[id];
}

std::optional<std::size_t>
PatternExtractor::detectPeriod(std::span<const std::size_t> seq)
{
    const std::size_t m = seq.size();
    for (std::size_t p = 1; p * 2 <= m; ++p) {
        bool ok = true;
        for (std::size_t j = p; j < m && ok; ++j)
            ok = seq[j] == seq[j - p];
        if (ok)
            return p;
    }
    return std::nullopt;
}

} // namespace gpupm::mpc
