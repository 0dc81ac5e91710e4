#include "spans.hpp"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

using gpupm::trace::SpanEvent;

std::vector<NestedSpan>
nestSpans(const std::vector<SpanEvent> &events,
          const std::set<std::string> &waits)
{
    std::vector<NestedSpan> out(events.size());
    std::unordered_map<std::uint32_t, std::vector<std::size_t>> byThread;
    for (std::size_t i = 0; i < events.size(); ++i) {
        out[i].selfNs = events[i].durNs;
        if (waits.count(events[i].name) == 0)
            byThread[events[i].tid].push_back(i);
    }
    for (auto &[tid, idx] : byThread) {
        // Parents before children: earlier start first, and at equal
        // starts the longer span encloses the shorter one.
        std::stable_sort(idx.begin(), idx.end(),
                         [&](std::size_t a, std::size_t b) {
                             const auto &ea = events[a];
                             const auto &eb = events[b];
                             if (ea.startNs != eb.startNs)
                                 return ea.startNs < eb.startNs;
                             return ea.durNs > eb.durNs;
                         });
        std::vector<std::size_t> stack;
        for (const std::size_t i : idx) {
            const auto &e = events[i];
            const auto end = [&](std::size_t j) {
                return events[j].startNs + events[j].durNs;
            };
            while (!stack.empty() && end(stack.back()) <= e.startNs)
                stack.pop_back();
            if (!stack.empty()) {
                const std::size_t p = stack.back();
                out[i].parent = static_cast<std::ptrdiff_t>(p);
                const std::uint64_t covered =
                    std::min(e.startNs + e.durNs, end(p)) - e.startNs;
                out[p].selfNs -= std::min(out[p].selfNs, covered);
            }
            stack.push_back(i);
        }
    }
    return out;
}

void
addToTable(SpanTable &table, const std::vector<SpanEvent> &events,
           const std::vector<NestedSpan> &nested)
{
    for (std::size_t i = 0; i < events.size(); ++i) {
        SpanTotals &t = table[events[i].name];
        t.count += 1;
        t.durNs += static_cast<double>(events[i].durNs);
        t.selfNs += static_cast<double>(nested[i].selfNs);
        t.arg0 += events[i].arg0;
    }
}

SpanTotals
lookup(const SpanTable &table, const std::string &name)
{
    const auto it = table.find(name);
    return it == table.end() ? SpanTotals{} : it->second;
}

} // namespace perfbench
