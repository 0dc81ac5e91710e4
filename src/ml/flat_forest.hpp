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
 * In the default scalar mode, predictions are bit-identical to the
 * scalar RandomForest::predict reference: the same (<=) split
 * comparisons on the same doubles, leaves accumulated in tree order,
 * one final division by the tree count.
 *
 * ## Quantized engine (SimdMode::Auto / Avx2 / Fallback)
 *
 * compile() additionally builds an int16-quantized mirror of the
 * arena. Per feature, an affine map sends the span of that feature's
 * split thresholds onto ~32000 integer cells; thresholds quantize by
 * flooring into a cell, features by flooring with saturation one cell
 * beyond each end (so any double, including +-inf and garbage, lands
 * in range; NaN maps to INT16_MIN, which - like the float comparison
 * NaN > t - always goes left). A node's whole traversal record packs
 * into one int64 - low half `feature << 16 | uint16(qthr)`, high half
 * the int32 child offset - in a gather-friendly arena, shrinking a
 * record from 16 to 8 bytes and a step's arena traffic to a single
 * load; leaves carry qthr = INT16_MAX, which no quantized feature
 * value exceeds, so they self-loop exactly like the float path. The
 * AVX2 kernel walks 8 rows (or 8 trees of one row) per instruction
 * step with 32-bit gathers into the packed records; the portable
 * fixed-point fallback runs the same integer comparisons scalar-wise
 * and is bit-identical to the SIMD kernel by construction (same
 * quantized inputs, same exact integer arithmetic, same tree-order
 * float accumulation of the unquantized leaf values). Both quantized
 * kernels also exploit the self-looping leaves for an early exit:
 * every few steps they test whether any walker still moved (an
 * internal node's offset is always positive, so "nobody moved" means
 * "everybody parked on a leaf") and stop walking the rest of the
 * fixed-depth budget. Typical paths are far shorter than the tree's
 * maximum depth, and the extra steps this skips are exactly the
 * no-ops, so results are unchanged.
 *
 * Because both flooring maps are monotone, a quantized walk equals the
 * float walk on feature values snapped to their cell floor: a split
 * decision can differ from the scalar oracle only when the feature
 * lies within one cell width (~1/32000 of that feature's threshold
 * span) of the threshold, and then only toward the left child. That is
 * the pinned quantization-error model the fuzz suite validates.
 */

#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "ml/decision_tree.hpp"
#include "ml/simd.hpp"

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
     * Select the evaluation engine: Scalar (default) runs the float64
     * oracle path; Auto/Avx2/Fallback run the quantized engine on the
     * resolved kernel (see simd.hpp). The quantized tables are always
     * built at compile() time, so switching between quantized kernels
     * never changes results; switching to or from Scalar changes which
     * engine - and therefore which rounding - produces the numbers,
     * so a predictor fixes its mode at construction and memo caches
     * stay consistent.
     */
    void setSimdMode(SimdMode m);
    SimdMode simdMode() const { return _mode; }
    /** The execution path the current mode resolved to on this host. */
    SimdPath simdPath() const { return _path; }

    /**
     * Mean prediction over all trees for each query: out[i] is the
     * prediction for x[i]. out.size() must equal x.size(). In scalar
     * mode, bit-identical to calling RandomForest::predict(x[i]) for
     * every i.
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
     * any query with the given prefix - *per engine*: in a quantized
     * mode the fixed edges are resolved with the quantized
     * comparisons, the surviving nodes keep the parent's quantized
     * thresholds verbatim, and the residual inherits the parent's
     * feature quantizers, so specialized and unspecialized quantized
     * walks agree exactly (and likewise for the float path).
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
     * with no per-tree compile and no feature gathering. Always runs
     * the float path: OOB accuracy reports must not inherit inference
     * quantization error.
     */
    void predictTreeBatch(std::size_t tree,
                          std::span<const FeatureVector> x,
                          std::span<const std::uint32_t> rows,
                          std::span<double> out) const;

    /**
     * Per-feature affine quantizer: a value x maps to integer cell
     * floor((x - lo) * inv). inv == 0 marks a feature no tree splits
     * on (its quantized value is pinned to 0).
     */
    struct FeatureQuantizer
    {
        double lo = 0.0;
        double inv = 0.0;
    };

    /** Quantization grid: cells across a feature's threshold span. */
    static constexpr std::int32_t kQuantCells = 32000;
    /** Centering bias so cells straddle zero in int16. */
    static constexpr std::int32_t kQuantBias = 16000;
    /** Leaf sentinel: no quantized feature value ever exceeds it. */
    static constexpr std::int16_t kQuantLeafThr = 0x7fff;
    /**
     * int16 slots per quantized feature row - numFeatures rounded up
     * to a full cache line so row starts stay 64-byte aligned and a
     * 32-bit gather of any feature slot stays inside the row's line.
     */
    static constexpr std::size_t kQuantRowStride = 32;
    static_assert(static_cast<std::size_t>(numFeatures) <=
                      kQuantRowStride,
                  "quantized row stride must cover the feature vector");

    /**
     * Quantize one feature value. Total on all doubles: NaN maps to
     * INT16_MIN (always-left, matching `NaN > t == false`), +-inf and
     * out-of-span values saturate one cell beyond the threshold grid.
     */
    static std::int16_t quantizeFeature(const FeatureQuantizer &qz,
                                        double x);
    /** Quantize a split threshold onto the same grid (clamped into it). */
    static std::int16_t quantizeThreshold(const FeatureQuantizer &qz,
                                          double t);

    /** The quantizer compile() derived for a feature (tests/diagnostics). */
    const FeatureQuantizer &quantizer(std::size_t feature) const
    {
        return _quant[feature];
    }

    /**
     * Quantize a batch of feature rows into the packed int16 layout the
     * fixed-point walks consume: row q lands at
     * rows[q * kQuantRowStride], features beyond numFeatures zeroed.
     * On the AVX2 path this runs a vectorized kernel over the SoA
     * quantizer tables; every other path quantizes per row. Both are
     * bit-identical to quantizeFeature() on each element, so the
     * engines stay interchangeable row-for-row.
     */
    void quantizeRows(std::span<const FeatureVector> x,
                      std::int16_t *rows) const;

    /**
     * Identity of this packed arena's *contents*: assigned from a
     * process-global counter each time compile() or specialize()
     * builds an arena, copied (not reassigned) on copy/move, and never
     * recycled. Two forests with the same id hold byte-identical
     * arenas, which is what makes it safe as a key for caches that
     * outlive any particular FlatForest object (a stale id simply
     * never matches again).
     */
    std::uint64_t arenaId() const { return _arenaId; }

    /**
     * Whether @p other holds the same compiled arena, bit for bit:
     * nodes, quantized nodes, leaf indices and values, roots, depths,
     * walk order and quantizers. Engine mode and arenaId() are not
     * compared (tests).
     */
    bool sameArena(const FlatForest &other) const;

    /**
     * Bitwise OR of every packed arena's base address modulo the cache
     * line size: 0 iff all arenas are 64-byte aligned (pinned by
     * test + the AlignedVector allocator; gathers then never straddle
     * lines).
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

    /** Quantized engine entry points (portable or AVX2 per _path). */
    void predictBatchQuantized(std::span<const FeatureVector> x,
                               std::span<double> out) const;
    double predictOneQuantized(const std::int16_t *qrow,
                               std::span<double> leaf_scratch) const;
    void quantizeRow(const double *f, std::int16_t *q) const;

    /**
     * Tree-major quantized walk over pre-quantized rows (stride
     * kQuantRowStride int16 each). Fills out[0..n) with the per-row
     * tree mean, accumulating leaves in tree order like every other
     * path. Shared by the direct batch walk and the residual walk
     * after an in-batch prefix specialization: a residual inherits
     * this forest's quantizers, so the same row matrix is valid
     * against both arenas.
     */
    void predictBatchQuantizedRows(const std::int16_t *rows,
                                   std::size_t n,
                                   std::span<double> out) const;

    /**
     * Quantized-prefix residual cache (thread-local, defined in the
     * .cpp). MPC batches score one kernel against many configurations,
     * so every row of a batch shares the kernel-feature prefix - and
     * successive decisions usually share it too, because the engine
     * only sees counters through the quantization grid and real
     * counter jitter rarely crosses a cell boundary. When the rows of
     * a call agree on a quantized prefix, one specialize() call
     * (~20 us, roughly thirty row walks) buys walks on ~50x smaller
     * residual trees for this call *and every later call that matches
     * the same prefix*, including the hill climb's single-row probes.
     * Bit-identical by specialize()'s contract: the residual agrees
     * with the parent for every query matching the fixed prefix, so a
     * cache hit changes which arena is walked but never the result.
     *
     * Returns the residual to walk, or nullptr to walk this arena.
     * Batches of kBatchSpecializeMinRows+ rows specialize immediately
     * (the call alone repays the build); smaller calls only build
     * after kResidualConfirmRows rows have matched the same candidate
     * prefix, so one-off kernels never pay for a residual they will
     * not reuse. Only forests whose trees are still full size consult
     * the cache (residuals themselves never re-specialize).
     */
    const FlatForest *cachedResidual(const double *x0,
                                     const std::int16_t *rows,
                                     std::size_t n) const;

    static constexpr std::size_t kBatchSpecializeMinRows = 64;
    static constexpr std::size_t kBatchSpecializeMinAvgNodes = 64;
    static constexpr std::uint32_t kResidualConfirmRows = 16;

    /**
     * Derive per-feature quantizers from the threshold spans and fill
     * the SoA quantized arena; runs at the end of compile().
     * specialize() instead *copies* the parent's quantizers and packed
     * thresholds so residual walks agree with the parent exactly.
     */
    void buildQuantTables();

    /**
     * Sort _walkOrder by tree depth so the eight walkers of a
     * predictOne group finish together instead of idling at the
     * group's deepest tree. Walk order is free to differ from tree
     * order: results land in per-tree slots and are summed in tree
     * order regardless.
     */
    void finalizeWalkOrder();

    /** The last steps of every compile: walk order, quantized
     *  mirror, a fresh arena id. */
    void seal();

    AlignedVector<Node> _nodes;         ///< BFS arena, all trees.
    std::vector<std::int32_t> _leafIdx; ///< Per arena slot: leaf-value
                                        ///< index, or -1 for internal.
    std::vector<std::uint32_t> _roots;  ///< Arena index of each root.
    std::vector<std::uint16_t> _depths; ///< Per-tree depth (walk count).
    std::vector<std::uint32_t> _walkOrder; ///< Trees by ascending depth.
    std::vector<double> _leafValue;     ///< Leaf predictions.

    /// Quantized mirror arena, one packed 8-byte record per slot: low
    /// 32 bits `feature << 16 | uint16(qthr)` (leaves:
    /// `0 << 16 | uint16(kQuantLeafThr)`), high 32 bits the child
    /// offset (0 at leaves). One load per traversal step; the AVX2
    /// kernels gather the two halves at scale 8 (little-endian x86).
    AlignedVector<std::int64_t> _qnodes;
    /// Per-feature affine quantizers (inv == 0: never split on).
    std::array<FeatureQuantizer, numFeatures> _quant{};
    /// The same quantizers in SoA form, padded to kQuantRowStride with
    /// inv == 0 entries, so the vectorized row quantizer loads 4-wide
    /// without bounds checks. Kept in lockstep with _quant by
    /// buildQuantTables() and specialize().
    alignas(kCacheLineBytes) std::array<double, kQuantRowStride> _qlo{};
    alignas(kCacheLineBytes) std::array<double, kQuantRowStride> _qinv{};

    SimdMode _mode = SimdMode::Scalar;  ///< Requested engine.
    SimdPath _path = SimdPath::Float64; ///< Resolved execution path.
    std::uint64_t _arenaId = 0;         ///< Arena identity; see arenaId().
};

} // namespace gpupm::ml
