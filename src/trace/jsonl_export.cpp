#include "trace/jsonl_export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

#include "common/logging.hpp"
#include "hw/config.hpp"
#include "trace/json.hpp"

namespace gpupm::trace {

namespace {

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
fmtHex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

std::uint64_t
parseHex64(const std::string &s)
{
    std::uint64_t v = 0;
    for (const char c : s) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        else
            GPUPM_FATAL("bad hex signature '", s, "'");
    }
    return v;
}

double
numberField(const json::Value &obj, const char *key)
{
    const json::Value *v = obj.find(key);
    GPUPM_ASSERT(v && v->isNumber(), "decision line missing number field");
    return v->asNumber();
}

/**
 * A count or index field. Dumps are user input (gpupm replay --trace),
 * so a value that is not an integer in [0, @p limit) is fatal rather
 * than reaching an undefined double-to-integer cast or an out-of-range
 * configuration.
 */
std::uint64_t
integerField(const json::Value &obj, const char *key,
             double limit = 0x1p64)
{
    const double v = numberField(obj, key);
    if (!(v >= 0.0 && v < limit && std::trunc(v) == v))
        GPUPM_FATAL("decision field '", key, "' is ", v,
                    ", not an integer in [0, ", limit, ")");
    return static_cast<std::uint64_t>(v);
}

/** A hw::denseConfigIndex field. */
std::size_t
configField(const json::Value &obj)
{
    return integerField(obj, "config",
                        static_cast<double>(hw::denseConfigCount));
}

} // namespace

void
writeDecisionJsonl(std::ostream &os,
                   std::span<const DecisionRecord> records)
{
    for (const DecisionRecord &r : records) {
        os << "{\"app\":\"" << json::escape(r.app) << "\""
           << ",\"session\":" << r.session
           << ",\"run\":" << r.run
           << ",\"index\":" << r.index
           << ",\"tag\":\"" << json::escape(std::string(1, r.tag)) << "\""
           << ",\"profiling\":" << (r.profiling ? "true" : "false")
           << ",\"signature\":\"" << fmtHex64(r.kernelSignature) << "\""
           << ",\"horizon\":" << r.horizon
           << ",\"headroom\":"
           << (r.hasHeadroom ? fmtDouble(r.headroom) : "null")
           << ",\"config\":" << r.configIndex
           << ",\"predictedTime\":" << fmtDouble(r.predictedTime)
           << ",\"predictedEnergy\":" << fmtDouble(r.predictedEnergy)
           << ",\"evaluations\":" << r.evaluations
           << ",\"uniqueEvaluations\":" << r.uniqueEvaluations
           << ",\"overheadTime\":" << fmtDouble(r.overheadTime);
        // Cap fields only when a cap was active: uncapped dumps stay
        // byte-identical to the pre-powercap schema.
        if (r.powerCap >= 0.0) {
            os << ",\"cap\":" << fmtDouble(r.powerCap)
               << ",\"capLimited\":" << (r.capLimited ? "true" : "false");
        }
        os << ",\"candidates\":[";
        bool first = true;
        for (const CandidateEval &c : r.candidates) {
            if (!first)
                os << ",";
            first = false;
            os << "{\"config\":" << c.configIndex
               << ",\"time\":" << fmtDouble(c.predictedTime)
               << ",\"energy\":" << fmtDouble(c.predictedEnergy)
               << ",\"memo\":" << (c.memoHit ? "true" : "false") << "}";
        }
        os << "],\"observed\":" << (r.observed ? "true" : "false");
        if (r.observed) {
            os << ",\"measuredTime\":" << fmtDouble(r.measuredTime)
               << ",\"measuredGpuPower\":" << fmtDouble(r.measuredGpuPower)
               << ",\"timeErrorPct\":" << fmtDouble(r.timeErrorPct)
               << ",\"counters\":[";
            const auto cs = r.counters.asArray();
            for (std::size_t i = 0; i < cs.size(); ++i)
                os << (i ? "," : "") << fmtDouble(cs[i]);
            os << "],\"instructions\":"
               << fmtDouble(r.measuredInstructions)
               << ",\"nonKernelTime\":" << fmtDouble(r.nonKernelTime)
               << ",\"target\":" << fmtDouble(r.targetThroughput);
        }
        os << "}\n";
    }
}

std::vector<DecisionRecord>
readDecisionJsonl(std::istream &is)
{
    std::vector<DecisionRecord> out;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::string err;
        const auto doc = json::parse(line, &err);
        GPUPM_ASSERT(doc && doc->isObject(), "bad decision line: ", err);
        DecisionRecord r;
        const json::Value *app = doc->find("app");
        GPUPM_ASSERT(app && app->isString(), "decision line missing app");
        r.app = app->asString();
        r.session = integerField(*doc, "session");
        r.run = integerField(*doc, "run");
        r.index = integerField(*doc, "index");
        const json::Value *tag = doc->find("tag");
        GPUPM_ASSERT(tag && tag->isString() && !tag->asString().empty(),
                     "decision line missing tag");
        r.tag = tag->asString()[0];
        const json::Value *prof = doc->find("profiling");
        GPUPM_ASSERT(prof && prof->isBool(),
                     "decision line missing profiling");
        r.profiling = prof->asBool();
        const json::Value *sig = doc->find("signature");
        GPUPM_ASSERT(sig && sig->isString(),
                     "decision line missing signature");
        r.kernelSignature = parseHex64(sig->asString());
        r.horizon = integerField(*doc, "horizon");
        const json::Value *headroom = doc->find("headroom");
        GPUPM_ASSERT(headroom, "decision line missing headroom");
        if (headroom->isNumber()) {
            r.headroom = headroom->asNumber();
            r.hasHeadroom = true;
        }
        r.configIndex = configField(*doc);
        r.predictedTime = numberField(*doc, "predictedTime");
        r.predictedEnergy = numberField(*doc, "predictedEnergy");
        r.evaluations = integerField(*doc, "evaluations");
        r.uniqueEvaluations = integerField(*doc, "uniqueEvaluations");
        r.overheadTime = numberField(*doc, "overheadTime");
        if (const json::Value *cap = doc->find("cap")) {
            GPUPM_ASSERT(cap->isNumber(), "cap field not a number");
            r.powerCap = cap->asNumber();
            const json::Value *cl = doc->find("capLimited");
            GPUPM_ASSERT(cl && cl->isBool(),
                         "cap without capLimited flag");
            r.capLimited = cl->asBool();
        }
        const json::Value *cands = doc->find("candidates");
        GPUPM_ASSERT(cands && cands->isArray(),
                     "decision line missing candidates");
        for (const json::Value &cv : cands->asArray()) {
            CandidateEval c;
            c.configIndex = static_cast<std::uint32_t>(configField(cv));
            c.predictedTime = numberField(cv, "time");
            c.predictedEnergy = numberField(cv, "energy");
            const json::Value *memo = cv.find("memo");
            GPUPM_ASSERT(memo && memo->isBool(),
                         "candidate missing memo flag");
            c.memoHit = memo->asBool();
            r.candidates.push_back(c);
        }
        const json::Value *obs = doc->find("observed");
        GPUPM_ASSERT(obs && obs->isBool(),
                     "decision line missing observed");
        r.observed = obs->asBool();
        if (r.observed) {
            r.measuredTime = numberField(*doc, "measuredTime");
            r.measuredGpuPower = numberField(*doc, "measuredGpuPower");
            r.timeErrorPct = numberField(*doc, "timeErrorPct");
            const json::Value *ctr = doc->find("counters");
            GPUPM_ASSERT(ctr && ctr->isArray(),
                         "decision line missing counters");
            auto cs = r.counters.asArray();
            GPUPM_ASSERT(ctr->asArray().size() == cs.size(),
                         "decision counters arity mismatch");
            for (std::size_t i = 0; i < cs.size(); ++i) {
                GPUPM_ASSERT(ctr->asArray()[i].isNumber(),
                             "decision counter not a number");
                cs[i] = ctr->asArray()[i].asNumber();
            }
            r.counters = kernel::KernelCounters::fromArray(cs);
            r.measuredInstructions = numberField(*doc, "instructions");
            r.nonKernelTime = numberField(*doc, "nonKernelTime");
            r.targetThroughput = numberField(*doc, "target");
        }
        out.push_back(std::move(r));
    }
    return out;
}

} // namespace gpupm::trace
