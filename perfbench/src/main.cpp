/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload serve-steady|serve-churn|sweep-paper
 *             --seed N --seconds S --trace 0|1 --model PATH
 *   perfbench --fit-model PATH
 *
 * One invocation runs one workload and prints every metric by name
 * with its unit, a config stamp (host, compiler, build type, SIMD
 * path, forest shape, seed), and as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
 * end-to-end metrics, --trace 1 the per-layer ones from a traced run;
 * every workload reports every metric of the set, and a run whose set
 * differs from the manifest's fails.
 * The exit code is nonzero when an output check failed.
 *
 * --fit-model trains the default `gpupm train` forest (128-kernel
 * corpus, 60 trees, stride 1; deterministic at any worker count) and
 * saves it; run.py calls it once per build, untimed.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "ml/serialize.hpp"
#include "ml/simd.hpp"
#include "trace/trace.hpp"

using namespace gpupm;

namespace perfbench {

namespace {

struct EndToEndField
{
    const char *name;
    const char *unit;
    double EndToEnd::*field;
    bool lowerIsBetter;
};

const EndToEndField kEndToEnd[] = {
    {"setup_s", "s", &EndToEnd::setupS, true},
    {"step_p50_us", "us", &EndToEnd::stepP50Us, true},
    {"step_p99_us", "us", &EndToEnd::stepP99Us, true},
    {"governed_decisions_per_s", "1/s", &EndToEnd::governedPerS, false},
    {"sim_invocations_per_s", "1/s", &EndToEnd::simPerS, false},
    {"energy_savings_pct", "%", &EndToEnd::energySavingsPct, false},
    {"perf_loss_pct", "%", &EndToEnd::perfLossPct, true},
    {"peak_rss_mb", "MB", &EndToEnd::peakRssMb, true},
};

/** Per-layer metrics before the trace.* ones. */
const MetricSpec kLayers[] = {
    {"ml.model_load_s", "s"},
    {"ml.forest_walk_us", "us"},
    {"ml.rows_per_walk", "count"},
    {"mpc.decide_self_us", "us"},
    {"mpc.observe_us", "us"},
    {"mpc.evaluations_per_decision", "count"},
    {"sim.invocation_self_us", "us"},
    {"policy.turbo_run_ms", "ms"},
    {"policy.ppk_run_ms", "ms"},
    {"policy.mpc_run_ms", "ms"},
    {"exec.worker_idle_share", "ratio"},
    {"serve.wire.encode_ns", "ns"},
    {"serve.wire.decode_ns", "ns"},
    {"serve.wire.bytes_per_step", "bytes"},
    {"serve.net_server.self_us", "us"},
    {"serve.net_server.open_us", "us"},
    {"serve.server.queue_wait_p50_us", "us"},
    {"serve.server.queue_wait_p99_us", "us"},
    {"serve.server.queue_depth_mean", "count"},
    {"serve.server.steals_per_decision", "count"},
    {"serve.server.rejected", "count"},
    {"serve.session.step_self_us", "us"},
    {"serve.session_manager.evictions_per_s", "1/s"},
    {"serve.session_predictor.hit_ratio", "ratio"},
    {"serve.broker.flush_self_us", "us"},
    {"serve.broker.batch_requests_mean", "count"},
    {"serve.broker.flush_all_waiting_share", "ratio"},
    {"serve.broker.flush_deadline_share", "ratio"},
    {"serve.broker.flush_full_share", "ratio"},
    {"serve.broker.flush_stolen_share", "ratio"},
    {"serve.shed.degraded_share", "ratio"},
    {"serve.shed.enters", "count"},
    {"powercap.capped_share", "ratio"},
    {"powercap.violation_share", "ratio"},
    {"powercap.cap_limited_share", "ratio"},
    {"powercap.ticks_per_kdecision", "count"},
    {"powercap.stale_registrations", "count"},
};

} // namespace

std::vector<MetricSpec>
endToEndMetrics()
{
    std::vector<MetricSpec> out;
    for (const auto &f : kEndToEnd)
        out.push_back({f.name, f.unit});
    return out;
}

std::vector<MetricSpec>
perLayerMetrics()
{
    std::vector<MetricSpec> out(std::begin(kLayers), std::end(kLayers));
    for (const auto &f : kEndToEnd)
        out.push_back({std::string("trace.overhead_pct.") + f.name, "%"});
    out.push_back({"trace.dropped", "count"});
    out.push_back({"unattributed_us", "us"});
    return out;
}

void
reportEndToEnd(Report &report, const EndToEnd &e)
{
    for (const auto &f : kEndToEnd)
        report.add(f.name, e.*f.field, f.unit);
}

void
reportTraceOverhead(Report &report, const EndToEnd &untraced,
                    const EndToEnd &traced)
{
    for (const auto &f : kEndToEnd)
        report.add(std::string("trace.overhead_pct.") + f.name,
                   overheadPct(untraced.*f.field, traced.*f.field,
                               f.lowerIsBetter),
                   "%");
}

void
reportNotExercised(Report &report, const std::vector<std::string> &names)
{
    for (const auto &name : names) {
        const auto it = std::find_if(
            std::begin(kLayers), std::end(kLayers),
            [&](const MetricSpec &m) { return m.name == name; });
        if (it == std::end(kLayers))
            report.fail("unknown per-layer metric " + name);
        else
            report.add(name, 0.0, it->unit);
    }
}

std::shared_ptr<const ml::RandomForestPredictor>
loadModel(const std::string &path, double *loadSeconds)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "perfbench: cannot read model " << path << "\n";
        std::exit(2);
    }
    const auto t0 = Clock::now();
    trace::Span span(trace::Category::Bench, "bench.loadRandomForest");
    std::shared_ptr<const ml::RandomForestPredictor> model =
        ml::loadRandomForest(in);
    *loadSeconds = secondsSince(t0);
    return model;
}

void
beginTraceChunk(std::size_t capacity)
{
    trace::Tracer::start(capacity);
}

TraceChunk
endTraceChunk(const std::set<std::string> &waits, std::uint64_t sinceNs)
{
    trace::Tracer::stop();
    TraceChunk chunk;
    chunk.events = trace::Tracer::collect();
    std::erase_if(chunk.events, [&](const trace::SpanEvent &e) {
        return e.startNs < sinceNs;
    });
    chunk.dropped = trace::Tracer::dropped();
    chunk.nested = nestSpans(chunk.events, waits);
    return chunk;
}

std::string
configStamp(const Options &opts, const ml::RandomForestPredictor &model)
{
    std::ostringstream os;
    os << "# config {\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": \""
#if defined(__clang__)
       << "clang++ "
#elif defined(__GNUC__)
       << "g++ "
#endif
       << __VERSION__ << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
       << "\", \"simd_mode\": \"" << ml::toString(model.simdMode())
       << "\", \"simd_path\": \"" << ml::toString(model.simdPath())
       << "\", \"time_forest\": {\"trees\": "
       << model.timeFlat().treeCount()
       << ", \"nodes\": " << model.timeFlat().nodeCount()
       << "}, \"power_forest\": {\"trees\": "
       << model.powerFlat().treeCount()
       << ", \"nodes\": " << model.powerFlat().nodeCount()
       << "}, \"workload\": \"" << opts.workload
       << "\", \"seed\": " << opts.seed
       << ", \"seconds\": " << opts.seconds
       << ", \"trace\": " << (opts.trace ? 1 : 0) << "}";
    return os.str();
}

std::string
setupNote(const std::vector<double> &setups, const std::vector<double> &loads)
{
    std::ostringstream os;
    os << "# set-ups (s):";
    for (const double s : setups)
        os << " " << s;
    os << "; model loads (s):";
    for (const double l : loads)
        os << " " << l;
    return os.str();
}

} // namespace perfbench

namespace {

int
usage(const char *why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload serve-steady|serve-churn|"
                 "sweep-paper --seed N --seconds S --trace 0|1 "
                 "--model PATH\n"
              << "       perfbench --fit-model PATH\n";
    return 2;
}

int
fitModel(const std::string &path)
{
    ml::TrainerOptions opts; // The `gpupm train` defaults.
    opts.jobs = 0;
    ml::TrainingReport report;
    const auto rf = ml::trainRandomForestPredictor(opts, &report);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp);
        if (!out) {
            std::cerr << "perfbench: cannot write " << tmp << "\n";
            return 1;
        }
        ml::saveRandomForest(*rf, out);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::cerr << "perfbench: cannot rename " << tmp << "\n";
        return 1;
    }
    std::cerr << "perfbench: fitted model (" << report.datasetRows
              << " rows, OOB time MAPE " << report.timeOobMapePct
              << "%) saved to " << path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opts;
    std::string fitPath;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                return usage("--seed wants a non-negative integer");
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(opts.seconds > 0.0))
                return usage("--seconds wants a positive number");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace wants 0 or 1");
            opts.trace = value == "1";
            haveTrace = true;
        } else if (flag == "--model") {
            opts.modelPath = value;
        } else if (flag == "--fit-model") {
            fitPath = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!fitPath.empty())
        return fitModel(fitPath);
    if (opts.modelPath.empty() || !haveTrace)
        return usage("--model and --trace are required");

    perfbench::Report report;
    if (opts.workload == "serve-steady" || opts.workload == "serve-churn")
        perfbench::runServe(opts, report);
    else if (opts.workload == "sweep-paper")
        perfbench::runSweepPaper(opts, report);
    else
        return usage(("unknown workload '" + opts.workload + "'").c_str());
    report.expectExactly(opts.trace ? perfbench::perLayerMetrics()
                                    : perfbench::endToEndMetrics());
    report.print(std::cout);
    return report.correct() ? 0 : 1;
}
