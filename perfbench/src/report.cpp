#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>

namespace perfbench {

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank =
        p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return percentile(values, 50.0);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

LatencySummary
summarize(std::vector<double> &samples)
{
    std::sort(samples.begin(), samples.end());
    LatencySummary out;
    out.count = samples.size();
    out.p50 = percentile(samples, 50.0);
    out.p99 = percentile(samples, 99.0);
    if (!samples.empty()) {
        // Ranked above the p99 rank; ties do not hide samples.
        const auto rank = static_cast<std::size_t>(
            0.99 * static_cast<double>(samples.size() - 1));
        out.beyondP99 = samples.size() - 1 - rank;
    }
    return out;
}

WindowedSummary
summarizeWindows(std::vector<std::vector<double>> &latencies,
                 const std::vector<double> &rates)
{
    WindowedSummary out;
    out.windows = latencies.size();
    std::vector<double> p50s;
    std::vector<double> p99s;
    for (auto &w : latencies) {
        const LatencySummary s = summarize(w);
        out.samples += s.count;
        out.minBeyondP99 = p50s.empty()
                               ? s.beyondP99
                               : std::min(out.minBeyondP99, s.beyondP99);
        p50s.push_back(s.p50);
        p99s.push_back(s.p99);
    }
    out.p50 = median(p50s);
    out.p99 = median(p99s);
    out.rate = median(rates);
    return out;
}

double
overheadPct(double untraced, double traced, bool lowerIsBetter)
{
    if (untraced == 0.0)
        return 0.0;
    const double worse =
        lowerIsBetter ? traced - untraced : untraced - traced;
    return 100.0 * worse / untraced;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

void
Report::add(const std::string &name, double value,
            const std::string &unit)
{
    if (!std::isfinite(value))
        fail("metric " + name + " is not finite");
    _metrics.push_back({name, value, unit});
}

void
Report::expectExactly(const std::vector<MetricSpec> &expected)
{
    std::map<std::string, std::string> want;
    for (const auto &m : expected)
        want[m.name] = m.unit;
    std::map<std::string, int> seen;
    for (const auto &m : _metrics) {
        const auto it = want.find(m.name);
        if (it == want.end())
            fail("metric " + m.name + " is not in the manifest");
        else if (it->second != m.unit)
            fail("metric " + m.name + " is in " + m.unit + ", not " +
                 it->second);
        if (++seen[m.name] == 2)
            fail("metric " + m.name + " is reported twice");
    }
    for (const auto &m : expected)
        if (seen.count(m.name) == 0)
            fail("metric " + m.name + " is missing");
}

void
Report::fail(const std::string &why)
{
    _failures.push_back(why);
}

void
Report::print(std::ostream &os) const
{
    for (const auto &line : _notes)
        os << line << "\n";
    for (const auto &why : _failures)
        os << "CHECK FAILED: " << why << "\n";
    char buf[256];
    for (const auto &m : _metrics) {
        std::snprintf(buf, sizeof(buf), "%-46s %16.6g %s\n",
                      m.name.c_str(), m.value, m.unit.c_str());
        os << buf;
    }
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < _metrics.size(); ++i) {
        const auto &m = _metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", m.name.c_str(), v,
                      m.unit.c_str());
        os << buf;
    }
    os << "}}" << std::endl;
}

} // namespace perfbench
