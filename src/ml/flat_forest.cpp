#include "ml/flat_forest.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>
#include <ostream>
#include <utility>

#include "common/logging.hpp"
#include "ml/random_forest.hpp"
#include "trace/trace.hpp"

namespace gpupm::ml {

namespace {

std::atomic<std::uint64_t> g_rowsWalked{0};

} // namespace

void
FlatForest::appendTree(std::span<const DecisionTree::Node> nodes)
{
    GPUPM_ASSERT(!nodes.empty(), "cannot compile an empty tree");
    _roots.push_back(static_cast<std::uint32_t>(_nodes.size()));

    // Breadth-first renumbering: order[slot] is the source-node index
    // occupying arena slot root+slot. Children are enqueued together,
    // so a node's children land in adjacent slots and one relative
    // offset (to the left child) addresses both.
    std::vector<std::int32_t> order;
    std::vector<std::uint16_t> level;
    order.reserve(nodes.size());
    level.reserve(nodes.size());
    order.push_back(0);
    level.push_back(0);
    std::uint16_t depth = 0;
    for (std::size_t slot = 0; slot < order.size(); ++slot) {
        const auto &n = nodes[static_cast<std::size_t>(order[slot])];
        depth = std::max(depth, level[slot]);
        Node packed;
        if (n.feature >= 0) {
            GPUPM_ASSERT(n.feature <
                             static_cast<std::int32_t>(numFeatures),
                         "feature index out of FeatureVector range");
            const std::size_t left_slot = order.size();
            order.push_back(n.left);
            order.push_back(n.right);
            level.push_back(static_cast<std::uint16_t>(level[slot] + 1));
            level.push_back(static_cast<std::uint16_t>(level[slot] + 1));
            packed.threshold = n.threshold;
            packed.offset =
                static_cast<std::int32_t>(left_slot - slot);
            packed.feature = static_cast<std::int16_t>(n.feature);
            _leafIdx.push_back(-1);
        } else {
            // Self-looping leaf: f[0] > +inf is false for every double
            // (including +inf and NaN), so i += 0 + 0 parks the walker
            // here for the rest of its fixed-step walk.
            packed.threshold = std::numeric_limits<double>::infinity();
            packed.offset = 0;
            packed.feature = 0;
            _leafIdx.push_back(
                static_cast<std::int32_t>(_leafValue.size()));
            _leafValue.push_back(n.value);
        }
        _nodes.push_back(packed);
    }
    GPUPM_ASSERT(order.size() == nodes.size(),
                 "tree has unreachable nodes");
    _depths.push_back(depth);
}

void
FlatForest::finalizeWalkOrder()
{
    _walkOrder.resize(_roots.size());
    for (std::size_t t = 0; t < _walkOrder.size(); ++t)
        _walkOrder[t] = static_cast<std::uint32_t>(t);
    std::stable_sort(_walkOrder.begin(), _walkOrder.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return _depths[a] < _depths[b];
                     });
}

std::size_t
FlatForest::arenaMisalignment() const
{
    return static_cast<std::size_t>(
        reinterpret_cast<std::uintptr_t>(_nodes.data()) % kCacheLineBytes);
}

bool
FlatForest::sameArena(const FlatForest &other) const
{
    const auto same_bits = [](const auto &a, const auto &b) {
        return a.size() == b.size() &&
               (a.empty() || std::memcmp(a.data(), b.data(),
                                         a.size() * sizeof(a[0])) == 0);
    };
    // Node has padding, so it compares field by field.
    const auto same_node = [](const Node &a, const Node &b) {
        return std::bit_cast<std::uint64_t>(a.threshold) ==
                   std::bit_cast<std::uint64_t>(b.threshold) &&
               a.offset == b.offset && a.feature == b.feature;
    };
    return std::equal(_nodes.begin(), _nodes.end(), other._nodes.begin(),
                      other._nodes.end(), same_node) &&
           same_bits(_leafIdx, other._leafIdx) &&
           same_bits(_leafValue, other._leafValue) &&
           same_bits(_roots, other._roots) &&
           same_bits(_depths, other._depths) &&
           same_bits(_walkOrder, other._walkOrder);
}

FlatForest
FlatForest::compile(const RandomForest &rf)
{
    FlatForest ff = reserve(rf);
    ff.build(rf);
    return ff;
}

FlatForest
FlatForest::reserve(const RandomForest &rf)
{
    GPUPM_ASSERT(rf.fitted(), "cannot compile an unfitted forest");
    FlatForest ff;
    // Every table, the leaf table too (a binary tree of n nodes has
    // (n + 1) / 2 leaves), so build() frees no block on the way:
    // freeing an mmap-sized block raises glibc's dynamic mmap
    // threshold, and a later sweep's peak RSS with it.
    std::size_t leaves = 0;
    for (const auto &tree : rf.trees())
        leaves += (tree.nodeCount() + 1) / 2;
    ff._nodes.reserve(rf.totalNodes());
    ff._leafIdx.reserve(rf.totalNodes());
    ff._leafValue.reserve(leaves);
    ff._roots.reserve(rf.treeCount());
    ff._depths.reserve(rf.treeCount());
    ff._walkOrder.reserve(rf.treeCount());
    return ff;
}

void
FlatForest::build(const RandomForest &rf)
{
    GPUPM_ASSERT(!compiled(), "build on a compiled FlatForest");
    for (const auto &tree : rf.trees())
        appendTree(tree.nodes());
    finalizeWalkOrder();
}

void
FlatForest::build(RandomForest &&rf)
{
    GPUPM_ASSERT(!compiled(), "build on a compiled FlatForest");
    std::vector<DecisionTree> trees = std::move(rf).takeTrees();
    for (DecisionTree &tree : trees) {
        appendTree(tree.nodes());
        tree = DecisionTree();
    }
    finalizeWalkOrder();
}

FlatForest
FlatForest::compile(const DecisionTree &tree)
{
    GPUPM_ASSERT(tree.fitted(), "cannot compile an unfitted tree");
    FlatForest ff;
    ff.appendTree(tree.nodes());
    ff.finalizeWalkOrder();
    return ff;
}

DecisionTree
FlatForest::tree(std::size_t t) const
{
    GPUPM_ASSERT(t < _roots.size(), "tree index out of range");
    const std::size_t root = _roots[t];
    const std::size_t count =
        (t + 1 < _roots.size() ? _roots[t + 1] : _nodes.size()) - root;

    // Breadth-first slots put every child after its parent. So subtree
    // sizes accumulate back to front, and preorder numbers go front to
    // back: a left child follows its parent, a right child follows its
    // left sibling's subtree.
    std::vector<std::int32_t> size(count, 1);
    for (std::size_t s = count; s-- > 0;) {
        if (_leafIdx[root + s] < 0) {
            const std::size_t left = s + _nodes[root + s].offset;
            size[s] += size[left] + size[left + 1];
        }
    }
    std::vector<std::int32_t> pre(count, 0);
    DecisionTree::Nodes nodes(count);
    for (std::size_t s = 0; s < count; ++s) {
        DecisionTree::Node &n = nodes[static_cast<std::size_t>(pre[s])];
        const std::int32_t leaf = _leafIdx[root + s];
        if (leaf >= 0) {
            n.value = _leafValue[static_cast<std::size_t>(leaf)];
            continue;
        }
        const Node &packed = _nodes[root + s];
        const std::size_t left = s + packed.offset;
        n.feature = packed.feature;
        n.threshold = packed.threshold;
        n.left = pre[s] + 1;
        n.right = n.left + size[left];
        pre[left] = n.left;
        pre[left + 1] = n.right;
    }
    return DecisionTree(std::move(nodes), _depths[t]);
}

void
FlatForest::save(std::ostream &os) const
{
    GPUPM_ASSERT(compiled(), "cannot save an unfitted forest");
    os << "forest trees " << _roots.size() << '\n';
    for (std::size_t t = 0; t < _roots.size(); ++t)
        tree(t).save(os);
}

FlatForest
FlatForest::specialize(std::span<const double> fixed) const
{
    GPUPM_ASSERT(compiled(), "specialize on an uncompiled FlatForest");
    const Node *const nodes = _nodes.data();
    const double *const fv = fixed.data();
    const auto nf = static_cast<std::int16_t>(fixed.size());

    // Follow decided (fixed-feature) edges until a surviving split or
    // a leaf. Leaves encode feature 0 / threshold +inf, so they stop on
    // the offset test regardless of nf. The comparison is the walk's
    // own, so the residual agrees with the full walk bit for bit.
    const auto resolve = [&](std::uint32_t i) {
        for (;;) {
            const Node &nd = nodes[i];
            if (nd.offset == 0 || nd.feature >= nf)
                return i;
            i += static_cast<std::uint32_t>(nd.offset) +
                 (fv[nd.feature] > nd.threshold ? 1u : 0u);
        }
    };

    FlatForest out;
    out._roots.reserve(_roots.size());
    out._depths.reserve(_roots.size());

    // Residuals are typically ~2% of the parent (a specialize() call
    // only pays off when the prefix decides most splits), so a small
    // up-front reservation removes every growth copy on the hot path
    // without committing parent-sized allocations.
    const std::size_t hint =
        std::min<std::size_t>(_nodes.size(), 2048);
    out._nodes.reserve(hint);
    out._leafIdx.reserve(hint);
    out._leafValue.reserve(hint / 2 + 1);

    // Same breadth-first emission as appendTree, but over the resolved
    // subgraph of this arena. order[] holds source arena indices whose
    // splits survive; leaf values are copied so the residual forest is
    // self-contained.
    std::vector<std::uint32_t> order;
    std::vector<std::uint16_t> level;
    order.reserve(512);
    level.reserve(512);
    for (const std::uint32_t root : _roots) {
        out._roots.push_back(static_cast<std::uint32_t>(out._nodes.size()));
        order.clear();
        level.clear();
        order.push_back(resolve(root));
        level.push_back(0);
        std::uint16_t depth = 0;
        for (std::size_t slot = 0; slot < order.size(); ++slot) {
            const Node &nd = nodes[order[slot]];
            depth = std::max(depth, level[slot]);
            Node packed;
            if (nd.offset != 0) {
                const std::size_t left_slot = order.size();
                const std::uint32_t left =
                    order[slot] + static_cast<std::uint32_t>(nd.offset);
                order.push_back(resolve(left));
                order.push_back(resolve(left + 1));
                level.push_back(
                    static_cast<std::uint16_t>(level[slot] + 1));
                level.push_back(
                    static_cast<std::uint16_t>(level[slot] + 1));
                packed.threshold = nd.threshold;
                packed.offset =
                    static_cast<std::int32_t>(left_slot - slot);
                packed.feature = nd.feature;
                out._leafIdx.push_back(-1);
            } else {
                packed.threshold =
                    std::numeric_limits<double>::infinity();
                packed.offset = 0;
                packed.feature = 0;
                out._leafIdx.push_back(
                    static_cast<std::int32_t>(out._leafValue.size()));
                out._leafValue.push_back(
                    _leafValue[_leafIdx[order[slot]]]);
            }
            out._nodes.push_back(packed);
        }
        out._depths.push_back(depth);
    }
    out.finalizeWalkOrder();
    return out;
}

namespace {

/**
 * One branchless traversal step. Internal node: move to the left child
 * plus one if the feature exceeds the threshold. Leaf: threshold is
 * +inf and offset 0, so the walker stays put. Templated because the
 * packed node type is private to FlatForest.
 *
 * The walk saturates the load ports before anything else, so on
 * little-endian targets the offset and feature fields - which share
 * the 8-byte word at node offset 8 - are fetched with a single load
 * and split with ALU ops.
 */
template <typename NodeT>
[[gnu::always_inline]] inline std::uint32_t
step(const NodeT *nodes, std::uint32_t i, const double *f)
{
    const NodeT &nd = nodes[i];
    if constexpr (std::endian::native == std::endian::little) {
        static_assert(offsetof(NodeT, offset) == 8 &&
                          offsetof(NodeT, feature) == 12,
                      "fused meta load expects offset/feature at +8");
        std::uint64_t m;
        std::memcpy(&m, reinterpret_cast<const unsigned char *>(&nd) + 8,
                    sizeof(m));
        const auto off = static_cast<std::uint32_t>(m);
        // The feature index is never negative (leaves store 0), so the
        // 16-bit mask recovers it without sign handling.
        const auto feat =
            static_cast<std::uint32_t>((m >> 32) & 0xffffu);
        return i + off + (f[feat] > nd.threshold ? 1u : 0u);
    } else {
        return i + static_cast<std::uint32_t>(nd.offset) +
               (f[nd.feature] > nd.threshold ? 1u : 0u);
    }
}

/**
 * Walk W independent walkers a fixed number of steps. Each step is a
 * node load feeding a feature load feeding a compare - a ~14-cycle
 * dependence chain - so wall time is latency-bound and W concurrent
 * chains recover almost W-fold throughput until the load units
 * saturate. W = 8 measured best on this code (4 leaves latency on the
 * table, 16 starts spilling walker state).
 */
template <std::size_t W, typename NodeT>
[[gnu::always_inline]] inline void
walk(const NodeT *nodes, std::uint32_t (&idx)[W],
     const double *const (&feat)[W], std::uint16_t depth)
{
    // The fold over constant indices unrolls the walker loop
    // syntactically, so every idx[I] lives in a register across the
    // depth loop instead of bouncing through the stack. always_inline
    // on the lambda keeps the unrolled body inside the caller's loop
    // nest (GCC otherwise outlines it, re-marshalling all W walkers
    // through the stack per call).
    [&]<std::size_t... I>(std::index_sequence<I...>)
        __attribute__((always_inline)) {
        for (std::uint16_t d = 0; d < depth; ++d)
            ((idx[I] = step(nodes, idx[I], feat[I])), ...);
    }(std::make_index_sequence<W>{});
}

} // namespace

void
FlatForest::predictBatch(std::span<const FeatureVector> x,
                         std::span<double> out) const
{
    GPUPM_ASSERT(compiled(), "predict on an uncompiled FlatForest");
    GPUPM_ASSERT(out.size() == x.size(),
                 "predictBatch output size mismatch");
    const std::size_t n = x.size();
    trace::Span span(trace::Category::Ml, "ml.flatForest.predictBatch",
                     "queries", static_cast<double>(n));
    g_rowsWalked.fetch_add(n, std::memory_order_relaxed);

    if (n < 8) {
        // Too few queries to interleave; predictOne interleaves trees
        // instead. Scratch is thread_local so a warm hot path never
        // allocates.
        thread_local std::vector<double> leaf_scratch;
        leaf_scratch.resize(_roots.size());
        for (std::size_t q = 0; q < n; ++q)
            out[q] = predictOne(x[q], leaf_scratch);
        return;
    }

    std::fill(out.begin(), out.end(), 0.0);
    const Node *const nodes = _nodes.data();
    const std::int32_t *const leaf_idx = _leafIdx.data();
    const double *const leaf = _leafValue.data();

    // Tree-major: one tree's nodes stay cache-resident while the whole
    // batch walks it; eight queries walk concurrently for memory-level
    // parallelism. Per query the leaves accumulate in tree order,
    // matching the scalar reference sum exactly.
    for (std::size_t t = 0; t < _roots.size(); ++t) {
        const std::uint32_t root = _roots[t];
        const std::uint16_t depth = _depths[t];
        std::size_t q = 0;
        for (; q + 8 <= n; q += 8) {
            const double *feat[8];
            std::uint32_t idx[8];
            for (std::size_t w = 0; w < 8; ++w) {
                feat[w] = x[q + w].data();
                idx[w] = root;
            }
            walk(nodes, idx, feat, depth);
            for (std::size_t w = 0; w < 8; ++w)
                out[q + w] += leaf[leaf_idx[idx[w]]];
        }
        for (; q < n; ++q) {
            const double *const f = x[q].data();
            std::uint32_t i = root;
            for (std::uint16_t d = 0; d < depth; ++d)
                i = step(nodes, i, f);
            out[q] += leaf[leaf_idx[i]];
        }
    }

    const auto trees = static_cast<double>(_roots.size());
    for (auto &v : out)
        v /= trees;
}

void
FlatForest::predictTreeBatch(std::size_t tree,
                             std::span<const FeatureVector> x,
                             std::span<const std::uint32_t> rows,
                             std::span<double> out) const
{
    GPUPM_ASSERT(compiled(), "predict on an uncompiled FlatForest");
    GPUPM_ASSERT(tree < _roots.size(), "tree index out of range");
    GPUPM_ASSERT(out.size() == rows.size(),
                 "predictTreeBatch output size mismatch");

    const Node *const nodes = _nodes.data();
    const std::int32_t *const leaf_idx = _leafIdx.data();
    const double *const leaf = _leafValue.data();
    const std::uint32_t root = _roots[tree];
    const std::uint16_t depth = _depths[tree];
    const std::size_t n = rows.size();

    std::size_t q = 0;
    for (; q + 8 <= n; q += 8) {
        const double *feat[8];
        std::uint32_t idx[8];
        for (std::size_t w = 0; w < 8; ++w) {
            feat[w] = x[rows[q + w]].data();
            idx[w] = root;
        }
        walk(nodes, idx, feat, depth);
        for (std::size_t w = 0; w < 8; ++w)
            out[q + w] = leaf[leaf_idx[idx[w]]];
    }
    for (; q < n; ++q) {
        const double *const f = x[rows[q]].data();
        std::uint32_t i = root;
        for (std::uint16_t d = 0; d < depth; ++d)
            i = step(nodes, i, f);
        out[q] = leaf[leaf_idx[i]];
    }
}

double
FlatForest::predictOne(const FeatureVector &f,
                       std::span<double> leaf_scratch) const
{
    const Node *const nodes = _nodes.data();
    const std::int32_t *const leaf_idx = _leafIdx.data();
    const double *const leaf = _leafValue.data();
    const std::uint32_t *const roots = _roots.data();
    const std::uint16_t *const depths = _depths.data();
    const std::uint32_t *const order = _walkOrder.data();
    const std::size_t trees = _roots.size();
    const double *const fd = f.data();

    // Eight trees walk concurrently, grouped by ascending depth so a
    // group's walkers finish together (a group walks to its deepest
    // member; shallow walkers park on their self-looping leaves).
    // Leaves land in per-tree slots of the scratch array and are
    // reduced sequentially in tree order afterwards, so the sum
    // matches the scalar reference bit-for-bit.
    std::size_t g = 0;
    for (; g + 8 <= trees; g += 8) {
        const double *feat[8];
        std::uint32_t idx[8];
        const std::uint16_t depth = depths[order[g + 7]];
        for (std::size_t w = 0; w < 8; ++w) {
            feat[w] = fd;
            idx[w] = roots[order[g + w]];
        }
        walk(nodes, idx, feat, depth);
        for (std::size_t w = 0; w < 8; ++w)
            leaf_scratch[order[g + w]] = leaf[leaf_idx[idx[w]]];
    }
    for (; g < trees; ++g) {
        const std::uint32_t t = order[g];
        std::uint32_t i = roots[t];
        const std::uint16_t depth = depths[t];
        for (std::uint16_t d = 0; d < depth; ++d)
            i = step(nodes, i, fd);
        leaf_scratch[t] = leaf[leaf_idx[i]];
    }

    double s = 0.0;
    for (std::size_t k = 0; k < trees; ++k)
        s += leaf_scratch[k];
    return s / static_cast<double>(trees);
}

double
FlatForest::predict(const FeatureVector &f) const
{
    GPUPM_ASSERT(compiled(), "predict on an uncompiled FlatForest");
    thread_local std::vector<double> leaf_scratch;
    leaf_scratch.resize(_roots.size());
    g_rowsWalked.fetch_add(1, std::memory_order_relaxed);
    return predictOne(f, leaf_scratch);
}

std::uint64_t
FlatForest::rowsWalked()
{
    return g_rowsWalked.load(std::memory_order_relaxed);
}

} // namespace gpupm::ml
