/**
 * @file
 * Multiple-choice knapsack solver for the Theoretically Optimal plan.
 *
 * The paper's TO scheme (Sec. III) minimizes total kernel energy
 * subject to total throughput matching the baseline - equivalently,
 * choose one (time, energy) option per kernel minimizing sum(E) with
 * sum(T) <= budget. The paper notes the exhaustive O(M^N) search is
 * NP-hard; we solve it with per-kernel Pareto pruning followed by
 * dynamic programming over discretized time, which is exact up to the
 * time quantum (tests verify equality with brute force on small cases).
 */

#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"

namespace gpupm::policy {

/** One selectable option: an (execution time, energy) pair. */
struct KnapsackOption
{
    Seconds time = 0.0;
    Joules energy = 0.0;
    /** Caller-defined payload (e.g. configuration index). */
    std::size_t id = 0;
};

/** Solver result. */
struct KnapsackSolution
{
    /** Chosen option index (into the pruned-input vector) per item. */
    std::vector<std::size_t> choice;
    Seconds totalTime = 0.0;
    Joules totalEnergy = 0.0;
    /** False if even the fastest assignment exceeds the budget. */
    bool feasible = false;
};

/**
 * Keep only Pareto-optimal options (no other option is both faster and
 * lower energy). Result is sorted by increasing time.
 */
std::vector<KnapsackOption>
paretoPrune(std::vector<KnapsackOption> options);

/**
 * Minimize total energy subject to total time <= budget, choosing one
 * option per item.
 *
 * @param items Per-item option lists (not necessarily pruned).
 * @param budget Time budget in seconds.
 * @param time_bins Discretization resolution of the DP (binning
 *        error is bounded by items.size() * budget / time_bins).
 *
 * When infeasible, returns the fastest assignment with feasible=false
 * (the paper's "even the highest-powered configuration does not
 * suffice" situation).
 */
KnapsackSolution
solveMinEnergy(const std::vector<std::vector<KnapsackOption>> &items,
               Seconds budget, std::size_t time_bins = 4000);

} // namespace gpupm::policy
