/**
 * @file
 * MPC search-order heuristic (paper Sec. IV-A1a, Fig. 7).
 *
 * Using per-kernel throughput information from the profiling run, each
 * kernel invocation is assigned to the "above-target" cluster (the
 * accumulated application throughput after it was at or above the
 * overall target) or the "below-target" cluster. The above-target group
 * is ordered by increasing individual kernel throughput, the below-
 * target group by decreasing throughput; their concatenation is the
 * order in which the window's kernels are optimized. Optimizing the
 * hardest-to-satisfy kernels first, with headroom carrying over, is
 * what lets MPC guard high-throughput kernels against over-aggressive
 * energy savings and exploit future high-throughput phases.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"

namespace gpupm::mpc {

/** Profile of one kernel invocation from the profiling run. */
struct ProfiledKernel
{
    Throughput kernelThroughput = 0.0; ///< I_i / T_i of the invocation.
    Throughput cumulativeThroughput = 0.0; ///< Running sum(I)/sum(T).
    Seconds time = 0.0; ///< Kernel execution time in the profiling run.
};

/**
 * Build the global search order over invocation indices.
 *
 * @param profile Per-invocation profiling data, in execution order.
 * @param target The overall target throughput.
 * @return Permutation of [0, profile.size()): above-target cluster
 *         sorted by increasing throughput, then below-target cluster
 *         sorted by decreasing throughput.
 */
std::vector<std::size_t>
buildSearchOrder(const std::vector<ProfiledKernel> &profile,
                 Throughput target);

/**
 * Restrict the global search order to a window of invocation indices
 * [first, first+count), preserving the search-order ranking. Written
 * into @p out (cleared first) so a reused buffer never allocates.
 */
void windowSearchOrder(const std::vector<std::size_t> &global_order,
                       std::size_t first, std::size_t count,
                       std::vector<std::size_t> &out);

/**
 * Average per-kernel horizon length N-bar (paper Sec. IV-A4): for each
 * invocation i, the natural window is the run of consecutive
 * invocations starting at i that stay within i's cluster; N-bar is the
 * mean of those run lengths. In the Fig. 7 example (clusters 1-3 and
 * 4-6) the per-kernel horizons are 3,2,1,3,2,1 and N-bar = 2.
 */
double
averageHorizonLength(const std::vector<ProfiledKernel> &profile,
                     Throughput target);

} // namespace gpupm::mpc
