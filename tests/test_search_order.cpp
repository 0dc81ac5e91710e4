#include <gtest/gtest.h>

#include "mpc/search_order.hpp"

namespace gpupm::mpc {
namespace {

/**
 * The paper's Fig. 7 example: six kernels, target normalized to 1.
 * Kernels 1-3 have accumulated throughput above target, 4-6 below;
 * individual throughputs decrease 1..3 and increase... kernel
 * throughputs chosen to reproduce the figure: (3.0, 2.0, 1.2) then
 * (0.3, 0.5, 0.9); search order must be (3,2,1,6,5,4) - 0-based:
 * (2,1,0,5,4,3).
 */
std::vector<ProfiledKernel>
fig7Profile()
{
    std::vector<ProfiledKernel> p(6);
    const double kernel_thr[] = {3.0, 2.0, 1.2, 0.3, 0.5, 0.9};
    const double cum_thr[] = {3.0, 2.4, 1.8, 0.9, 0.85, 0.84};
    for (int i = 0; i < 6; ++i) {
        p[i].kernelThroughput = kernel_thr[i];
        p[i].cumulativeThroughput = cum_thr[i];
        p[i].time = 1.0;
    }
    return p;
}

std::vector<std::size_t>
window(const std::vector<std::size_t> &order, std::size_t first,
       std::size_t count)
{
    std::vector<std::size_t> out{99}; // stale content must be cleared
    windowSearchOrder(order, first, count, out);
    return out;
}

TEST(SearchOrder, ReproducesFig7Example)
{
    auto order = buildSearchOrder(fig7Profile(), 1.0);
    EXPECT_EQ(order, (std::vector<std::size_t>{2, 1, 0, 5, 4, 3}));
}

TEST(SearchOrder, Fig7AverageHorizonIsTwo)
{
    // Natural horizons are 3,2,1,3,2,1 -> Nbar = 2 (Sec. IV-A4).
    EXPECT_DOUBLE_EQ(averageHorizonLength(fig7Profile(), 1.0), 2.0);
}

TEST(SearchOrder, AllAboveTarget)
{
    std::vector<ProfiledKernel> p(4);
    const double thr[] = {4.0, 3.0, 2.0, 1.0};
    for (int i = 0; i < 4; ++i) {
        p[i].kernelThroughput = thr[i];
        p[i].cumulativeThroughput = 2.0; // all above target 1.0
    }
    auto order = buildSearchOrder(p, 1.0);
    // Ascending kernel throughput.
    EXPECT_EQ(order, (std::vector<std::size_t>{3, 2, 1, 0}));
    EXPECT_DOUBLE_EQ(averageHorizonLength(p, 1.0), 2.5);
}

TEST(SearchOrder, AllBelowTarget)
{
    std::vector<ProfiledKernel> p(3);
    const double thr[] = {1.0, 3.0, 2.0};
    for (int i = 0; i < 3; ++i) {
        p[i].kernelThroughput = thr[i];
        p[i].cumulativeThroughput = 0.5;
    }
    auto order = buildSearchOrder(p, 1.0);
    // Descending kernel throughput.
    EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(SearchOrder, StableForTies)
{
    std::vector<ProfiledKernel> p(3);
    for (int i = 0; i < 3; ++i) {
        p[i].kernelThroughput = 2.0;
        p[i].cumulativeThroughput = 2.0;
    }
    auto order = buildSearchOrder(p, 1.0);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(SearchOrder, IsAPermutation)
{
    auto order = buildSearchOrder(fig7Profile(), 1.0);
    std::vector<bool> seen(order.size(), false);
    for (auto i : order) {
        ASSERT_LT(i, seen.size());
        EXPECT_FALSE(seen[i]);
        seen[i] = true;
    }
}

TEST(SearchOrder, WindowFilterPreservesRank)
{
    auto order = buildSearchOrder(fig7Profile(), 1.0);
    // Window covering kernels 0-2 (0-based): order restricted to
    // (2,1,0), the paper's "Kernel 1" step.
    EXPECT_EQ(window(order, 0, 3),
              (std::vector<std::size_t>{2, 1, 0}));
    // Window covering kernels 3-5: (5,4,3), the "Kernel 4" step.
    EXPECT_EQ(window(order, 3, 3),
              (std::vector<std::size_t>{5, 4, 3}));
    // A window spanning both clusters keeps the global ranking.
    EXPECT_EQ(window(order, 1, 4),
              (std::vector<std::size_t>{2, 1, 4, 3}));
}

TEST(SearchOrder, WindowBeyondEndIsEmpty)
{
    auto order = buildSearchOrder(fig7Profile(), 1.0);
    EXPECT_TRUE(window(order, 6, 3).empty());
    EXPECT_EQ(window(order, 5, 10),
              (std::vector<std::size_t>{5}));
}

TEST(SearchOrder, EmptyProfileDies)
{
    std::vector<ProfiledKernel> empty;
    EXPECT_DEATH(buildSearchOrder(empty, 1.0), "empty");
    EXPECT_DEATH(averageHorizonLength(empty, 1.0), "empty");
}

} // namespace
} // namespace gpupm::mpc
