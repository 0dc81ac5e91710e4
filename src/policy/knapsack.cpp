#include "policy/knapsack.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hpp"

namespace gpupm::policy {

std::vector<KnapsackOption>
paretoPrune(std::vector<KnapsackOption> options)
{
    std::sort(options.begin(), options.end(),
              [](const KnapsackOption &a, const KnapsackOption &b) {
                  if (a.time != b.time)
                      return a.time < b.time;
                  return a.energy < b.energy;
              });
    std::vector<KnapsackOption> out;
    double best_energy = std::numeric_limits<double>::infinity();
    for (const auto &o : options) {
        // Sorted by time: a later option survives only if it has
        // strictly lower energy than everything faster.
        if (o.energy < best_energy) {
            out.push_back(o);
            best_energy = o.energy;
        }
    }
    return out;
}

KnapsackSolution
solveMinEnergy(const std::vector<std::vector<KnapsackOption>> &items,
               Seconds budget, std::size_t time_bins)
{
    GPUPM_ASSERT(!items.empty(), "no items");
    GPUPM_ASSERT(budget > 0.0, "budget must be positive, got ", budget);
    GPUPM_ASSERT(time_bins >= 16, "too few time bins");

    const std::size_t n = items.size();
    std::vector<std::vector<KnapsackOption>> pruned(n);
    for (std::size_t j = 0; j < n; ++j) {
        GPUPM_ASSERT(!items[j].empty(), "item ", j, " has no options");
        pruned[j] = paretoPrune(items[j]);
    }

    const double delta = budget / static_cast<double>(time_bins);
    const auto bins = static_cast<std::int64_t>(time_bins);
    constexpr double inf = std::numeric_limits<double>::infinity();

    // Binned option weights (ceil keeps the solution conservative:
    // if the binned total fits, the real total fits).
    std::vector<std::vector<std::int64_t>> weight(n);
    for (std::size_t j = 0; j < n; ++j) {
        weight[j].reserve(pruned[j].size());
        for (const auto &o : pruned[j]) {
            weight[j].push_back(
                static_cast<std::int64_t>(std::ceil(o.time / delta)));
        }
    }

    // dp[b] = min energy of the items so far with binned time <= b.
    std::vector<double> dp(static_cast<std::size_t>(bins) + 1, 0.0);
    std::vector<double> next(dp.size());
    // choice[j][b]: option index realizing dp after item j at bin b.
    std::vector<std::vector<std::uint16_t>> choice(
        n, std::vector<std::uint16_t>(dp.size(), 0xffff));

    for (std::size_t j = 0; j < n; ++j) {
        std::fill(next.begin(), next.end(), inf);
        for (std::int64_t b = 0; b <= bins; ++b) {
            for (std::size_t oi = 0; oi < pruned[j].size(); ++oi) {
                const std::int64_t rem = b - weight[j][oi];
                if (rem < 0)
                    continue;
                const double prev = dp[static_cast<std::size_t>(rem)];
                if (prev == inf)
                    continue;
                const double e = prev + pruned[j][oi].energy;
                auto bu = static_cast<std::size_t>(b);
                if (e < next[bu]) {
                    next[bu] = e;
                    choice[j][bu] = static_cast<std::uint16_t>(oi);
                }
            }
        }
        dp.swap(next);
    }

    KnapsackSolution sol;
    sol.choice.assign(n, 0);

    if (dp[static_cast<std::size_t>(bins)] == inf) {
        // Infeasible: race every kernel at its fastest option.
        sol.feasible = false;
        for (std::size_t j = 0; j < n; ++j) {
            std::size_t fastest = 0; // pruned is sorted by time
            sol.choice[j] = pruned[j][fastest].id;
            sol.totalTime += pruned[j][fastest].time;
            sol.totalEnergy += pruned[j][fastest].energy;
        }
        return sol;
    }

    sol.feasible = true;
    std::int64_t b = bins;
    for (std::size_t jr = n; jr-- > 0;) {
        const auto oi = choice[jr][static_cast<std::size_t>(b)];
        GPUPM_ASSERT(oi != 0xffff, "broken DP backtrack at item ", jr);
        sol.choice[jr] = pruned[jr][oi].id;
        sol.totalTime += pruned[jr][oi].time;
        sol.totalEnergy += pruned[jr][oi].energy;
        b -= weight[jr][oi];
        GPUPM_ASSERT(b >= 0, "negative bin during backtrack");
    }
    return sol;
}

} // namespace gpupm::policy
