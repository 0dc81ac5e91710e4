/**
 * @file
 * Presorted CART training engine (the Random-Forest fit hot path).
 *
 * The legacy split search re-sorts a node's rows once per candidate
 * feature per node: O(mtry * m log m) comparator-driven sorts with
 * 136-byte-strided gathers, repeated down every level of every tree.
 * The presorted engine removes every sort from the per-tree path:
 *
 *  - each feature's row order over the *dataset* is sorted exactly once
 *    (DatasetOrder, shared read-only by all trees of a forest, along
 *    with the transposed feature columns);
 *  - a tree derives its per-feature orders from the shared order by a
 *    linear filtering pass. Orders hold each drawn row ONCE — a
 *    bootstrap's duplicate draws of a row are carried as an integer
 *    weight, never materialized, so every per-tree structure scales
 *    with the ~63% distinct rows of a bootstrap rather than its size;
 *  - when a node splits, the per-feature orders (and the canonical
 *    order leaf means are computed in) are *maintained*: each is stably
 *    sieved into its left and right subsequences by a branchless
 *    two-way compaction of bare 4-byte row indices.
 *
 * Split search is a linear weighted sweep of an already-sorted order;
 * the node's target totals are accumulated once per node in canonical
 * order and shared by all candidate features.
 *
 * Determinism contract: the builder produces trees bit-identical to the
 * legacy per-node-sort scan (the reference oracle LegacyScan in
 * tests/test_decision_tree.cpp) — the same splits, the same thresholds,
 * and the same floating-point sums:
 *
 *  - both paths fit on the canonicalized (ascending-row) bootstrap
 *    DecisionTree::fit prepares, so ties visit in ascending row order
 *    in both: the legacy scan stable-sorts by value from that canonical
 *    order; the presorted orders tie-break on row index and are sieved
 *    stably, and a row's duplicates — adjacent and equal-valued in the
 *    canonical order — contribute weight-many consecutive adds, the
 *    exact summation sequence the legacy sweep performs element-wise;
 *  - node totals accumulate once per node in canonical order in both;
 *  - leaf means accumulate in canonical order (the legacy rangeMean);
 *  - the rng is consumed identically (one mtry shuffle per node, in
 *    the same preorder node sequence).
 *
 * One builder per thread (scratch is reused across trees); distinct
 * builders share nothing beyond the immutable DatasetOrder, so forest
 * fitting parallelizes across trees with no synchronization.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "ml/decision_tree.hpp"

namespace gpupm::ml {

class TreeBuilder
{
  public:
    /**
     * Fit one tree on the rows of @p data selected by @p rows into
     * @p nodes / @p depth. @p rows must be canonical: ascending row
     * indices, duplicates (bootstrap multiplicity) adjacent —
     * DecisionTree::fit canonicalizes before dispatching here.
     * @p order is the shared presorted view of @p data.
     */
    void fit(const Dataset &data, const DatasetOrder &order,
             std::span<const std::uint32_t> rows, const TreeOptions &opts,
             Pcg32 &rng, DecisionTree::Nodes &nodes,
             int &depth);

  private:
    struct Split
    {
        int feature = -1;
        double threshold = 0.0;
        double score = 0.0;
        bool valid = false;
    };

    /**
     * Grow the node covering order positions [begin, end) — distinct
     * rows whose bootstrap weights sum to @p weight.
     */
    std::int32_t build(std::size_t begin, std::size_t end,
                      std::size_t weight, int level);
    std::int32_t makeLeaf(std::size_t begin, std::size_t end,
                          std::size_t weight);
    Split bestSplit(std::size_t begin, std::size_t end,
                    std::size_t weight);
    void sieve(std::size_t begin, std::size_t end, std::size_t left,
               bool keep_left, bool keep_right);

    std::uint32_t *featureOrder(int f)
    {
        return _order.data() + static_cast<std::size_t>(f) * _d;
    }

    const Dataset *_data = nullptr;
    const DatasetOrder *_shared = nullptr;
    const TreeOptions *_opts = nullptr;
    Pcg32 *_rng = nullptr;
    DecisionTree::Nodes *_nodes = nullptr;
    int _depth = 0;
    std::size_t _d = 0; ///< Distinct drawn rows (order length).

    /** Bootstrap multiplicity per dataset row (0 = not drawn). */
    std::vector<std::uint32_t> _count;
    /** numFeatures presorted row orders, feature-major, _d each. */
    std::vector<std::uint32_t> _order;
    /** Canonical (ascending-row) order, sieved alongside. */
    std::vector<std::uint32_t> _canon;
    /** Per-row side flag for the split being applied. */
    std::vector<std::uint8_t> _goesLeft;
    /** Sieve bounce buffer (right-side entries). */
    std::vector<std::uint32_t> _bounce;
};

} // namespace gpupm::ml
