/**
 * @file
 * Self time from span timelines.
 *
 * The library records spans per thread (trace::Tracer). A span's self
 * time is its duration minus the part of its interval that its direct
 * children cover, where a child is a later span of the same thread
 * that starts inside it. Spans that stand for waiting rather than work
 * - serve.queueWait is backdated to the request's admission and so
 * overlaps whatever the worker did before - are kept out of the
 * nesting: their self time is their whole duration.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace perfbench {

/** Placement of events[i] in its thread's nesting. */
struct NestedSpan
{
    std::uint64_t selfNs = 0;
    /** Index of the enclosing span in the same events vector; -1 at
     *  the root of a thread (and for wait spans). */
    std::ptrdiff_t parent = -1;
};

/**
 * Nest @p events per thread; result[i] belongs to events[i]. Spans
 * whose name is in @p waits are not nested.
 */
std::vector<NestedSpan>
nestSpans(const std::vector<gpupm::trace::SpanEvent> &events,
          const std::set<std::string> &waits = {});

/** Per-name sums over a set of spans. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double durNs = 0.0;
    double selfNs = 0.0;
    /** Sum of the spans' first numeric argument. */
    double arg0 = 0.0;
};

using SpanTable = std::map<std::string, SpanTotals>;

/** Add every span of @p events (nested as @p nested) to @p table. */
void addToTable(SpanTable &table,
                const std::vector<gpupm::trace::SpanEvent> &events,
                const std::vector<NestedSpan> &nested);

/** Totals for @p name, zeros when absent. */
SpanTotals lookup(const SpanTable &table, const std::string &name);

} // namespace perfbench
