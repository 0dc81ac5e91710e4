/**
 * @file
 * Workload entry points and the pieces every workload shares: the
 * run options, model loading, and traced chunks.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ml/trainer.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Saved Random Forest (the default `gpupm train` forest). */
    std::string modelPath;
};

/**
 * The end-to-end metrics of one measured phase. Every workload reports
 * every one of them (see README.md for what each means per workload).
 */
struct EndToEnd
{
    double setupS = 0.0;
    double stepP50Us = 0.0;
    double stepP99Us = 0.0;
    double governedPerS = 0.0;
    double simPerS = 0.0;
    double energySavingsPct = 0.0;
    double perfLossPct = 0.0;
    double peakRssMb = 0.0;
};

/** The end-to-end metrics (--trace 0), as BENCHMARK.json lists them. */
std::vector<MetricSpec> endToEndMetrics();
/** The per-layer metrics (--trace 1), as BENCHMARK.json lists them. */
std::vector<MetricSpec> perLayerMetrics();

/** Add every end-to-end metric of @p e to @p report. */
void reportEndToEnd(Report &report, const EndToEnd &e);

/**
 * Add trace.overhead_pct.<metric> for every end-to-end metric: how
 * much worse @p traced is than @p untraced, in its direction.
 */
void reportTraceOverhead(Report &report, const EndToEnd &untraced,
                         const EndToEnd &traced);

/**
 * Add the per-layer metrics of layers this workload does not run at
 * all: no time, no work, so 0 in the metric's own unit.
 */
void reportNotExercised(Report &report,
                        const std::vector<std::string> &names);

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;
/**
 * Per-thread span ring of the traced set-up: set-up records few spans,
 * and a small ring keeps its memory out of the peak the traced phase
 * is compared against.
 */
constexpr std::size_t kSetupTraceCapacity = std::size_t{1} << 14;

/** Load the model file, timing only the load (ml.model_load_s). */
std::shared_ptr<const gpupm::ml::RandomForestPredictor>
loadModel(const std::string &path, double *loadSeconds);

/**
 * The "# config {...}" line stamped on every result: nproc, compiler,
 * the build type of the linked library, the SIMD mode and the path it
 * resolved to, the forest shape, and the workload seed.
 */
std::string configStamp(const Options &opts,
                        const gpupm::ml::RandomForestPredictor &model);

/** The "# set-ups" line: each timed set-up and each model load. */
std::string setupNote(const std::vector<double> &setups,
                      const std::vector<double> &loads);

/** The spans of one traced chunk, nested per thread. */
struct TraceChunk
{
    std::vector<gpupm::trace::SpanEvent> events;
    std::vector<NestedSpan> nested;
    std::uint64_t dropped = 0;
};

/**
 * Begin a traced chunk (the workload must be quiescent). @p capacity
 * is the per-thread span ring; workloads size it and their chunks so
 * that no thread fills its ring (trace.dropped must be 0).
 */
void beginTraceChunk(std::size_t capacity);

/**
 * Stop tracing and return the chunk's spans that started at or after
 * @p sinceNs (the workload must be quiescent again, so no span is left
 * open). Spans named in @p waits are not nested (see nestSpans).
 */
TraceChunk endTraceChunk(const std::set<std::string> &waits = {},
                         std::uint64_t sinceNs = 0);

void runServe(const Options &opts, Report &report);
void runSweepPaper(const Options &opts, Report &report);

} // namespace perfbench
