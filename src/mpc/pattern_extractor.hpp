/**
 * @file
 * Kernel pattern extractor (paper Sec. IV-A2).
 *
 * Identifies kernels at runtime by the log-binned signature of their
 * eight performance counters, learns the application's kernel execution
 * ordering, and serves the optimizer with the expected future kernels
 * plus their stored counters (updated with feedback after every
 * execution). Within a run it also detects repetitive orderings the way
 * Totoni et al.'s dynamic pattern extractor does, so expectations can
 * form before a full application execution has been seen.
 *
 * Per dissimilar kernel the store keeps the eight counters plus time
 * and power as doubles - the 80 bytes/kernel footprint the paper cites.
 */

#pragma once

#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "hw/config.hpp"
#include "kernel/counters.hpp"
#include "kernel/kernel.hpp"

namespace gpupm::mpc {

/** Stored state for one dissimilar kernel (one signature). */
struct StoredKernel
{
    kernel::Signature signature;
    /** Latest observed counters (refreshed by feedback). */
    kernel::KernelCounters counters;
    /** Latest observed execution time and GPU power. */
    Seconds time = 0.0;
    Watts gpuPower = 0.0;
    InstCount instructions = 0.0;
    /** Ground-truth handle forwarded to oracle-family predictors. */
    const kernel::KernelParams *truth = nullptr;
    /** Last configuration the optimizer chose for this kernel. */
    std::optional<hw::HwConfig> lastChosenConfig;
};

class PatternExtractor
{
  public:
    /** Mark an application (re-)execution boundary. */
    void beginRun();

    /**
     * Record an executed kernel. Registers the signature if new,
     * refreshes the stored counters/time/power otherwise.
     *
     * @return The store id of the kernel.
     */
    std::size_t observe(const kernel::KernelCounters &counters,
                        Seconds time, Watts gpu_power, InstCount insts,
                        const kernel::KernelParams *truth);

    /**
     * Expected store ids for invocations [first, first+count) of the
     * current run. Sources, in priority order: the sequence learned
     * from the previous full run (as long as the current run still
     * matches it), then in-run periodicity. Yields fewer than
     * @p count entries (possibly none) when the future is unknown.
     * Written into @p out (cleared first), so a caller that keeps one
     * buffer decides without allocating.
     */
    void expectedWindow(std::size_t first, std::size_t count,
                        std::vector<std::size_t> &out) const;

    /** Whether a full previous-run sequence is available and matching. */
    bool hasLearnedSequence() const;

    /** Length of the learned sequence (N), 0 if none. */
    std::size_t learnedSequenceLength() const;

    /** The learned sequence of store ids from the previous run. */
    const std::vector<std::size_t> &learnedSequence() const
    {
        return _learnedSeq;
    }

    const StoredKernel &record(std::size_t id) const;
    StoredKernel &mutableRecord(std::size_t id);
    std::size_t storeSize() const { return _store.size(); }

    /**
     * Smallest period p (p <= seq.size()/2) such that the sequence is
     * suffix-periodic: seq[j] == seq[j-p] for all j >= p. nullopt if
     * no repetition is visible yet.
     */
    static std::optional<std::size_t>
    detectPeriod(std::span<const std::size_t> seq);

  private:
    std::unordered_map<kernel::Signature, std::size_t> _index;
    std::vector<StoredKernel> _store;
    std::vector<std::size_t> _currentSeq;
    std::vector<std::size_t> _learnedSeq;
    /** Current run has deviated from the learned sequence. */
    bool _sequenceBroken = false;
};

} // namespace gpupm::mpc
