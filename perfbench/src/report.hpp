/**
 * @file
 * Measurement arithmetic and result reporting shared by every
 * workload: percentiles with the ten-beyond rule, the step clocks that
 * decide where a step's latency starts, the open-loop schedule, and
 * the metric report whose last line is the machine-readable result.
 */

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Percentile @p p (0..100) of an ascending @p sorted sample, linearly
 * interpolated between closest ranks. 0 for an empty sample.
 */
double percentile(const std::vector<double> &sorted, double p);

/** Median of an unsorted sample (copied). */
double median(std::vector<double> values);

/** Arithmetic mean; 0 for an empty sample. */
double mean(const std::vector<double> &values);

/**
 * A latency sample reduced to its median and 99th percentile, with the
 * sample count and the number of samples ranked above the p99 rank (a
 * tail figure is only trusted with at least ten beyond it). Equal
 * latencies - replies read in one batch - still count as beyond.
 */
struct LatencySummary
{
    std::size_t count = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    std::size_t beyondP99 = 0;
};

/** Summarize @p samples (any order; sorted in place). */
LatencySummary summarize(std::vector<double> &samples);

/**
 * A measurement split into consecutive windows: each window's p50, p99
 * and rate are taken on their own, and the run reports the median
 * across windows, so a transient stall of the host moves one window
 * rather than the result. The ten-beyond rule holds in every window.
 */
struct WindowedSummary
{
    std::size_t windows = 0;
    std::size_t samples = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    double rate = 0.0;
    /** Fewest samples beyond p99 in any window. */
    std::size_t minBeyondP99 = 0;

    bool tailSupported() const { return windows > 0 && minBeyondP99 >= 10; }
};

/**
 * Reduce @p latencies[i] (window i's samples, sorted in place) and
 * @p rates[i] to medians across windows.
 */
WindowedSummary summarizeWindows(std::vector<std::vector<double>> &latencies,
                                 const std::vector<double> &rates);

/**
 * When one step started, for latency purposes. begin() only takes
 * effect for the first send of a step: a step rejected and sent again
 * keeps its original start, so a retry never hides the time the
 * rejection cost.
 */
class StepClock
{
  public:
    void
    begin(double start)
    {
        if (!_pending) {
            _pending = true;
            _start = start;
        }
    }

    bool pending() const { return _pending; }

    /** Latency of the step that completes at @p now; clears it. */
    double
    finish(double now)
    {
        _pending = false;
        return now - _start;
    }

  private:
    bool _pending = false;
    double _start = 0.0;
};

/**
 * One open-loop tenant: step k is due at phase + k * period, whether
 * or not step k-1 has been answered. A step that is due while its
 * predecessor is still in flight waits, and its latency still counts
 * from the due time, so a stall is charged to every step it delays.
 */
class OpenLoopTenant
{
  public:
    OpenLoopTenant() = default;
    OpenLoopTenant(double phase, double period)
        : _phase(phase), _period(period)
    {
    }

    /** Due time of the next unsent step. */
    double nextDue() const
    {
        return _phase + static_cast<double>(_sent) * _period;
    }

    /** Whether a step may go out at @p now. */
    bool
    ready(double now) const
    {
        return !_clock.pending() && nextDue() <= now;
    }

    /**
     * Record the send of the next step at @p now; returns how late the
     * generator sent it (now minus its due time).
     */
    double
    onSend(double now)
    {
        const double due = nextDue();
        _clock.begin(due);
        ++_sent;
        return now - due;
    }

    /** Latency of the answered step, counted from its due time. */
    double onReply(double now) { return _clock.finish(now); }

  private:
    double _phase = 0.0;
    double _period = 0.0;
    std::uint64_t _sent = 0;
    StepClock _clock;
};

/**
 * How much worse @p traced is than @p untraced, in percent of the
 * untraced value, in the metric's direction (the tracing overhead).
 */
double overheadPct(double untraced, double traced, bool lowerIsBetter);

/** Peak resident set size of this process (VmHWM) in MiB. */
double peakRssMb();

/** A metric the result line must carry: its name and unit. */
struct MetricSpec
{
    std::string name;
    std::string unit;
};

/**
 * The metrics of one run. Every metric is printed by name with its
 * unit; print() ends with the single-line JSON result:
 * {"correct", "attempted", "failed", "metrics"}.
 */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);

    /**
     * Record a failure unless the metrics added so far are exactly
     * @p expected: each once, in its unit, and no other.
     */
    void expectExactly(const std::vector<MetricSpec> &expected);

    /** Free-form context line printed before the metric table. */
    void note(const std::string &line) { _notes.push_back(line); }

    /** Record a correctness failure (the run's result is then false). */
    void fail(const std::string &why);

    bool correct() const { return _failures.empty(); }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void print(std::ostream &os) const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> _metrics;
    std::vector<std::string> _notes;
    std::vector<std::string> _failures;
};

} // namespace perfbench
