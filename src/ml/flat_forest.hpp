/**
 * @file
 * Flat batched Random-Forest inference engine (the MPC hot path).
 *
 * A fitted RandomForest is a vector of per-tree node vectors; predicting
 * through it chases 32-byte nodes laid out in recursion order, once per
 * query per tree. Every MPC decision makes dozens of such queries
 * (sensitivity probes, climbing steps) and the exhaustive policies make
 * hundreds, so inference dominates the governor's runtime (paper
 * Fig. 14).
 *
 * FlatForest compiles a fitted forest into a single contiguous arena:
 *
 *  - nodes are renumbered breadth-first per tree, so the first levels -
 *    the ones every query visits - share cache lines, and a node's two
 *    children are adjacent (one fetch covers both outcomes);
 *  - per node, only what traversal needs, packed into 16 bytes: a
 *    float64 threshold, one int32 relative child offset (left child;
 *    right = left + 1), and an int16 feature index. One cache line
 *    serves four nodes;
 *  - leaves are *self-looping*: threshold +inf, offset 0, so the step
 *    i += offset + (f > threshold) leaves i unchanged. A walker can
 *    therefore run a fixed number of steps - the tree's depth, recorded
 *    per root - with no data-dependent "reached a leaf yet?" branch in
 *    the inner loop at all. The leaf's value index lives in a parallel
 *    per-node table consulted once, after the walk;
 *  - trees are concatenated in one arena with a root-offset table.
 *
 * The arena keeps everything a tree holds, only renumbered, so it is
 * also what a predictor saves from (tree(), save()): once compiled, the
 * training-format trees can go.
 *
 * predictBatch() traverses tree-major over the whole query batch - one
 * tree's nodes stay cache-resident while all N queries walk it - and
 * runs eight independent walkers in the inner loop so the divergent
 * node-to-node dependence chains overlap (tree-path walks are latency
 * bound, not throughput bound). Small batches interleave eight *trees*
 * per query instead, which exposes the same parallelism when there are
 * not enough queries. No virtual dispatch, no per-query allocation, and
 * no unpredictable branches. No branch also means no misprediction
 * flushes: the only control flow is counted loops.
 *
 * Predictions are bit-identical to the RandomForest::predict
 * reference: the same split comparisons (f > threshold goes right, so
 * NaN goes left) on the same doubles, leaves accumulated in tree order,
 * one final division by the tree count.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "ml/decision_tree.hpp"

namespace gpupm::ml {

class RandomForest;

class FlatForest
{
  public:
    FlatForest() = default;

    /** Compile a fitted forest; fatal if unfitted. */
    static FlatForest compile(const RandomForest &rf);

    /**
     * compile() in two steps: reserve() allocates every table of the
     * arena for @p rf, build() fills them without allocating more than
     * per-tree scratch. RandomForestPredictor reserves both arenas on
     * its own thread and builds one on a helper, so the arenas' memory
     * never comes from a short-lived thread's malloc arena, where the
     * blocks of a replaced model would stay resident.
     */
    static FlatForest reserve(const RandomForest &rf);
    void build(const RandomForest &rf);

    /**
     * build(), freeing each tree's nodes as soon as they are copied.
     * Trees of the default forest are whole mapped pages
     * (DecisionTree::Nodes), so the parsed copy of a loaded model
     * shrinks as its arena fills and a load never holds both in full.
     */
    void build(RandomForest &&rf);

    /**
     * Compile a single fitted tree (a one-tree forest). Used for the
     * out-of-bag accumulation during training, where per-tree - not
     * mean - predictions are needed.
     */
    static FlatForest compile(const DecisionTree &tree);

    /**
     * Decompile tree @p t: its nodes renumbered back into preorder, the
     * numbering DecisionTree::fit emits, with leaves as fit leaves them
     * (feature and both children -1, threshold 0) and split nodes
     * valued 0, plus the depth the arena walks. For a fitted or loaded
     * tree that is the source DecisionTree, node for node.
     */
    DecisionTree tree(std::size_t t) const;

    /**
     * Write the forest in the model text format: "forest trees <n>",
     * then each tree() through DecisionTree::save. Byte-identical to
     * the text the source trees were fitted into or loaded from, so a
     * predictor saves from its arenas alone.
     */
    void save(std::ostream &os) const;

    bool compiled() const { return !_roots.empty(); }
    std::size_t treeCount() const { return _roots.size(); }
    std::size_t nodeCount() const { return _nodes.size(); }
    std::size_t leafCount() const { return _leafValue.size(); }

    /**
     * Mean prediction over all trees for each query: out[i] is the
     * prediction for x[i]. out.size() must equal x.size().
     * Bit-identical to calling RandomForest::predict(x[i]) for every i.
     */
    void predictBatch(std::span<const FeatureVector> x,
                      std::span<double> out) const;

    /**
     * Partial evaluation: residual forest for queries whose first
     * fixed.size() features equal `fixed`. Every split on a fixed
     * feature has a predetermined outcome, so those edges contract and
     * only splits on the remaining features survive. For the MPC
     * predictor the fixed prefix is the ten kernel features, which cuts
     * ~1150-node trees to ~25-node residuals (one specialization per
     * decision, dozens-to-hundreds of config evaluations against it).
     *
     * The residual forest preserves per-tree leaf values and tree
     * order, so its predictions are bit-identical to this forest's for
     * any query with the given prefix.
     */
    FlatForest specialize(std::span<const double> fixed) const;

    /** Single-query convenience over the same flat traversal. */
    double predict(const FeatureVector &f) const;

    /**
     * One tree's predictions for selected rows of a dataset:
     * out[j] = tree @p tree evaluated on x[rows[j]]. Exact leaf values
     * (no averaging), bit-identical to DecisionTree::predict on that
     * tree. This is the out-of-bag accumulation path: the forest is
     * compiled once after fitting and each tree streams its own OOB
     * row set through its slice of the arena, eight walkers at a time,
     * with no per-tree compile and no feature gathering.
     */
    void predictTreeBatch(std::size_t tree,
                          std::span<const FeatureVector> x,
                          std::span<const std::uint32_t> rows,
                          std::span<double> out) const;

    /**
     * Rows walked by every FlatForest in the process so far: each
     * predictBatch() adds its batch size, each predict() one. A
     * relaxed counter for diagnostics (fleet metrics, tests), not
     * synchronization.
     */
    static std::uint64_t rowsWalked();

    /**
     * Whether @p other holds the same compiled arena, bit for bit:
     * nodes, leaf indices and values, roots, depths and walk order
     * (tests).
     */
    bool sameArena(const FlatForest &other) const;

    /**
     * The node arena's base address modulo the cache line size: 0 iff
     * it is 64-byte aligned (pinned by test + the AlignedVector
     * allocator; a node then never straddles two lines).
     */
    std::size_t arenaMisalignment() const;

  private:
    /** Packed traversal record; see file comment for the layout. */
    struct Node
    {
        double threshold = 0.0;   ///< Split threshold (+inf at leaves).
        std::int32_t offset = 0;  ///< Left-child delta
                                  ///< (right = left + 1); 0 at leaves,
                                  ///< which self-loop.
        std::int16_t feature = 0; ///< Split feature (0 at leaves).
    };
    static_assert(sizeof(Node) == 16, "node record must stay packed");
    static_assert(kCacheLineBytes % sizeof(Node) == 0,
                  "a cache line must hold whole node records");

    void appendTree(std::span<const DecisionTree::Node> nodes);

    double predictOne(const FeatureVector &f,
                      std::span<double> leaf_scratch) const;

    /**
     * Sort _walkOrder by tree depth so the eight walkers of a
     * predictOne group finish together instead of idling at the
     * group's deepest tree. Walk order is free to differ from tree
     * order: results land in per-tree slots and are summed in tree
     * order regardless.
     */
    void finalizeWalkOrder();

    AlignedVector<Node> _nodes;         ///< BFS arena, all trees.
    std::vector<std::int32_t> _leafIdx; ///< Per arena slot: leaf-value
                                        ///< index, or -1 for internal.
    std::vector<std::uint32_t> _roots;  ///< Arena index of each root.
    std::vector<std::uint16_t> _depths; ///< Per-tree depth (walk count).
    std::vector<std::uint32_t> _walkOrder; ///< Trees by ascending depth.
    std::vector<double> _leafValue;     ///< Leaf predictions.
};

} // namespace gpupm::ml
