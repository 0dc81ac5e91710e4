#include "mpc/search_order.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace gpupm::mpc {

namespace {

std::vector<bool>
aboveTargetMask(const std::vector<ProfiledKernel> &profile,
                Throughput target)
{
    std::vector<bool> above(profile.size());
    for (std::size_t i = 0; i < profile.size(); ++i)
        above[i] = profile[i].cumulativeThroughput >= target;
    return above;
}

} // namespace

std::vector<std::size_t>
buildSearchOrder(const std::vector<ProfiledKernel> &profile,
                 Throughput target)
{
    GPUPM_ASSERT(!profile.empty(), "empty profile");
    const auto above = aboveTargetMask(profile, target);

    std::vector<std::size_t> above_group, below_group;
    for (std::size_t i = 0; i < profile.size(); ++i)
        (above[i] ? above_group : below_group).push_back(i);

    std::stable_sort(above_group.begin(), above_group.end(),
                     [&](std::size_t a, std::size_t b) {
                         return profile[a].kernelThroughput <
                                profile[b].kernelThroughput;
                     });
    std::stable_sort(below_group.begin(), below_group.end(),
                     [&](std::size_t a, std::size_t b) {
                         return profile[a].kernelThroughput >
                                profile[b].kernelThroughput;
                     });

    above_group.insert(above_group.end(), below_group.begin(),
                       below_group.end());
    return above_group;
}

void
windowSearchOrder(const std::vector<std::size_t> &global_order,
                  std::size_t first, std::size_t count,
                  std::vector<std::size_t> &out)
{
    out.clear();
    for (auto idx : global_order) {
        if (idx >= first && idx < first + count)
            out.push_back(idx);
    }
}

double
averageHorizonLength(const std::vector<ProfiledKernel> &profile,
                     Throughput target)
{
    GPUPM_ASSERT(!profile.empty(), "empty profile");
    const auto above = aboveTargetMask(profile, target);
    const std::size_t n = profile.size();

    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t run = 0;
        for (std::size_t j = i; j < n && above[j] == above[i]; ++j)
            ++run;
        total += static_cast<double>(run);
    }
    return total / static_cast<double>(n);
}

} // namespace gpupm::mpc
