#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "ml/decision_tree.hpp"

namespace gpupm::ml {
namespace {

/**
 * The legacy per-node-sort split scan: the reference oracle the
 * presorted engine (TreeBuilder) must reproduce bit for bit. At every
 * node it stable-sorts the node's rows by each candidate feature and
 * sweeps prefix sums for the best threshold, recursing in preorder.
 */
class LegacyScan
{
  public:
    /** Fit like DecisionTree::fit: same canonical rows, same rng use. */
    LegacyScan(const Dataset &data, std::span<const std::uint32_t> rows,
               const TreeOptions &opts, Pcg32 &rng)
        : _data(data), _opts(opts), _rng(rng)
    {
        // DecisionTree::fit's canonical bootstrap: ascending row order,
        // duplicates adjacent.
        std::vector<std::uint32_t> work(rows.begin(), rows.end());
        std::stable_sort(work.begin(), work.end());
        build(work, 0, work.size(), 0);
    }

    DecisionTree::Nodes nodes;
    int depth = 0;

  private:
    struct Split
    {
        int feature = -1;
        double threshold = 0.0;
        double score = std::numeric_limits<double>::infinity();
    };

    double
    mean(std::span<const std::uint32_t> rows) const
    {
        double s = 0.0;
        for (auto r : rows)
            s += _data.y[r];
        return rows.empty() ? 0.0 : s / static_cast<double>(rows.size());
    }

    /**
     * Best threshold for one feature: stable-sort the node's rows by
     * it from their canonical order (fixing the visit order of ties),
     * then score each boundary by the summed child SSE.
     */
    Split
    bestSplit(std::span<const std::uint32_t> rows, int feature,
              double total_sum, double total_sq)
    {
        Split best;
        best.feature = feature;
        _scratch.assign(rows.begin(), rows.end());
        std::stable_sort(_scratch.begin(), _scratch.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                             return _data.x[a][feature] <
                                    _data.x[b][feature];
                         });
        const std::size_t n = _scratch.size();
        const auto min_leaf =
            static_cast<std::size_t>(_opts.minSamplesLeaf);
        double left_sum = 0.0;
        for (std::size_t i = 0; i + 1 < n; ++i) {
            left_sum += _data.y[_scratch[i]];
            const double xv = _data.x[_scratch[i]][feature];
            const double xn = _data.x[_scratch[i + 1]][feature];
            const std::size_t nl = i + 1;
            const std::size_t nr = n - nl;
            if (xv == xn || nl < min_leaf || nr < min_leaf)
                continue;
            const double right_sum = total_sum - left_sum;
            const double score =
                total_sq - left_sum * left_sum / static_cast<double>(nl) -
                right_sum * right_sum / static_cast<double>(nr);
            if (score < best.score) {
                best.score = score;
                best.threshold = 0.5 * (xv + xn);
            }
        }
        return best;
    }

    std::int32_t
    build(std::vector<std::uint32_t> &rows, std::size_t begin,
          std::size_t end, int level)
    {
        depth = std::max(depth, level);
        const auto node_rows =
            std::span<const std::uint32_t>(rows).subspan(begin, end - begin);
        const auto leaf = [&] {
            DecisionTree::Node n;
            n.value = mean(node_rows);
            nodes.push_back(n);
            return static_cast<std::int32_t>(nodes.size() - 1);
        };
        if (level >= _opts.maxDepth ||
            node_rows.size() <
                static_cast<std::size_t>(_opts.minSamplesSplit)) {
            return leaf();
        }
        if (std::all_of(node_rows.begin(), node_rows.end(),
                        [&](std::uint32_t r) {
                            return _data.y[r] == _data.y[node_rows[0]];
                        })) {
            return leaf();
        }

        // mtry candidate features, drawn without replacement.
        std::array<int, numFeatures> order;
        std::iota(order.begin(), order.end(), 0);
        const int tries = _opts.mtry > 0
                              ? std::min(_opts.mtry, numFeatures)
                              : numFeatures;
        for (int i = 0; i < tries; ++i) {
            const auto j = i + static_cast<int>(_rng.nextBounded(
                                   static_cast<std::uint32_t>(
                                       numFeatures - i)));
            std::swap(order[i], order[j]);
        }
        double total_sum = 0.0, total_sq = 0.0;
        for (auto r : node_rows) {
            total_sum += _data.y[r];
            total_sq += _data.y[r] * _data.y[r];
        }
        Split best;
        for (int i = 0; i < tries; ++i) {
            const Split cand =
                bestSplit(node_rows, order[i], total_sum, total_sq);
            if (cand.score < best.score)
                best = cand;
        }
        if (best.feature < 0 || !std::isfinite(best.score))
            return leaf();

        // Stable, so each child keeps its canonical order.
        const auto mid_it = std::stable_partition(
            rows.begin() + static_cast<std::ptrdiff_t>(begin),
            rows.begin() + static_cast<std::ptrdiff_t>(end),
            [&](std::uint32_t r) {
                return _data.x[r][best.feature] <= best.threshold;
            });
        const auto mid = static_cast<std::size_t>(mid_it - rows.begin());
        if (mid == begin || mid == end)
            return leaf(); // numerical degenerate split

        DecisionTree::Node split;
        split.feature = best.feature;
        split.threshold = best.threshold;
        nodes.push_back(split);
        const auto idx = static_cast<std::int32_t>(nodes.size() - 1);
        const auto left = build(rows, begin, mid, level + 1);
        const auto right = build(rows, mid, end, level + 1);
        nodes[static_cast<std::size_t>(idx)].left = left;
        nodes[static_cast<std::size_t>(idx)].right = right;
        return idx;
    }

    const Dataset &_data;
    const TreeOptions &_opts;
    Pcg32 &_rng;
    std::vector<std::uint32_t> _scratch;
};

FeatureVector
fv(double x, double y = 0.0)
{
    FeatureVector f{};
    f[0] = x;
    f[1] = y;
    return f;
}

std::vector<std::uint32_t>
allRows(const Dataset &d)
{
    std::vector<std::uint32_t> rows(d.size());
    std::iota(rows.begin(), rows.end(), 0);
    return rows;
}

TEST(DecisionTree, ConstantTargetGivesSingleLeaf)
{
    Dataset d;
    for (int i = 0; i < 20; ++i)
        d.add(fv(i), 5.0);
    DecisionTree t;
    Pcg32 rng(1);
    t.fit(d, allRows(d), {}, rng);
    EXPECT_EQ(t.nodeCount(), 1u);
    EXPECT_DOUBLE_EQ(t.predict(fv(3.0)), 5.0);
    EXPECT_DOUBLE_EQ(t.predict(fv(-100.0)), 5.0);
}

TEST(DecisionTree, LearnsStepFunction)
{
    Dataset d;
    for (int i = 0; i < 50; ++i)
        d.add(fv(i), i < 25 ? 1.0 : 2.0);
    DecisionTree t;
    Pcg32 rng(2);
    t.fit(d, allRows(d), {}, rng);
    EXPECT_DOUBLE_EQ(t.predict(fv(10.0)), 1.0);
    EXPECT_DOUBLE_EQ(t.predict(fv(40.0)), 2.0);
}

TEST(DecisionTree, LearnsTwoDimensionalCheckerboard)
{
    Dataset d;
    for (int x = 0; x < 10; ++x) {
        for (int y = 0; y < 10; ++y) {
            double target = (x < 5) == (y < 5) ? 1.0 : -1.0;
            d.add(fv(x, y), target);
        }
    }
    DecisionTree t;
    Pcg32 rng(3);
    t.fit(d, allRows(d), {}, rng);
    EXPECT_DOUBLE_EQ(t.predict(fv(2, 2)), 1.0);
    EXPECT_DOUBLE_EQ(t.predict(fv(7, 2)), -1.0);
    EXPECT_DOUBLE_EQ(t.predict(fv(2, 7)), -1.0);
    EXPECT_DOUBLE_EQ(t.predict(fv(7, 7)), 1.0);
}

TEST(DecisionTree, RespectsMaxDepth)
{
    Dataset d;
    for (int i = 0; i < 256; ++i)
        d.add(fv(i), static_cast<double>(i));
    TreeOptions opts;
    opts.maxDepth = 3;
    opts.minSamplesLeaf = 1;
    opts.minSamplesSplit = 2;
    DecisionTree t;
    Pcg32 rng(4);
    t.fit(d, allRows(d), opts, rng);
    EXPECT_LE(t.depth(), 3);
    // Depth 3 -> at most 15 nodes.
    EXPECT_LE(t.nodeCount(), 15u);
}

TEST(DecisionTree, RespectsMinSamplesLeaf)
{
    Dataset d;
    for (int i = 0; i < 16; ++i)
        d.add(fv(i), static_cast<double>(i % 2));
    TreeOptions opts;
    opts.minSamplesLeaf = 8;
    DecisionTree t;
    Pcg32 rng(5);
    t.fit(d, allRows(d), opts, rng);
    // Only one split can satisfy 8 samples per side.
    EXPECT_LE(t.nodeCount(), 3u);
}

TEST(DecisionTree, DeterministicGivenSameRng)
{
    Dataset d;
    Pcg32 data_rng(99);
    for (int i = 0; i < 200; ++i) {
        double x = data_rng.uniform(0, 10);
        double y = data_rng.uniform(0, 10);
        d.add(fv(x, y), x * 2.0 + y);
    }
    TreeOptions opts;
    opts.mtry = 2;
    DecisionTree t1, t2;
    Pcg32 r1(7), r2(7);
    t1.fit(d, allRows(d), opts, r1);
    t2.fit(d, allRows(d), opts, r2);
    for (int i = 0; i < 50; ++i) {
        auto f = fv(i * 0.2, i * 0.1);
        EXPECT_DOUBLE_EQ(t1.predict(f), t2.predict(f));
    }
}

TEST(DecisionTree, FitsSubsetOnly)
{
    Dataset d;
    for (int i = 0; i < 20; ++i)
        d.add(fv(i), i < 10 ? 1.0 : 100.0);
    // Fit on the first half only: prediction ignores the second half.
    std::vector<std::uint32_t> rows(10);
    std::iota(rows.begin(), rows.end(), 0);
    DecisionTree t;
    Pcg32 rng(8);
    t.fit(d, rows, {}, rng);
    EXPECT_DOUBLE_EQ(t.predict(fv(15.0)), 1.0);
}

TEST(DecisionTree, DuplicateRowsAllowed)
{
    Dataset d;
    d.add(fv(1.0), 1.0);
    d.add(fv(2.0), 2.0);
    std::vector<std::uint32_t> rows = {0, 0, 0, 1, 1, 1, 0, 1};
    DecisionTree t;
    Pcg32 rng(9);
    TreeOptions opts;
    opts.minSamplesLeaf = 1;
    opts.minSamplesSplit = 2;
    t.fit(d, rows, opts, rng);
    EXPECT_DOUBLE_EQ(t.predict(fv(1.0)), 1.0);
    EXPECT_DOUBLE_EQ(t.predict(fv(2.0)), 2.0);
}

TEST(DecisionTree, LargeNodeBlocksAreMappedPages)
{
    // A block of kDirectMapBytes or more is whole pages from the
    // kernel (a malloc block starts past its chunk header, never on a
    // page boundary), so freeing a loaded tree leaves no free heap.
    const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    DecisionTree::Nodes big(kDirectMapBytes / sizeof(DecisionTree::Node));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.data()) % page, 0u);
    big.back().value = 1.0;
    DecisionTree::Nodes small(4);
    small.back().value = 2.0;
    EXPECT_NE(reinterpret_cast<std::uintptr_t>(small.data()) % page, 0u);
    const DecisionTree tree(std::move(big), 0);
    EXPECT_EQ(tree.nodes().back().value, 1.0);
}

TEST(DecisionTree, EmptyFitDies)
{
    Dataset d;
    d.add(fv(1.0), 1.0);
    DecisionTree t;
    Pcg32 rng(10);
    std::vector<std::uint32_t> empty;
    EXPECT_DEATH(t.fit(d, empty, {}, rng), "zero rows");
}

TEST(DecisionTree, PredictBeforeFitDies)
{
    DecisionTree t;
    EXPECT_DEATH(t.predict(fv(0.0)), "unfitted");
}

TEST(DecisionTree, PresortedMatchesLegacyScanOnFuzzedData)
{
    // The presorted engine must reproduce the legacy per-node-sort
    // scan bit-for-bit: same splits, same thresholds, same leaf sums.
    // Fuzz across shapes that stress tie handling — discrete features
    // (heavy value ties across rows with different targets), exactly
    // duplicated rows, and bootstrap row multisets.
    Pcg32 fuzz(0xf0225eedULL);
    for (int iter = 0; iter < 40; ++iter) {
        const std::size_t n = 30 + fuzz.nextBounded(250);
        Dataset d;
        for (std::size_t i = 0; i < n; ++i) {
            if (i > 0 && fuzz.nextBounded(5) == 0) {
                // Exact duplicate of an earlier row.
                const auto j = fuzz.nextBounded(static_cast<std::uint32_t>(i));
                d.add(d.x[j], d.y[j]);
                continue;
            }
            FeatureVector f{};
            for (int k = 0; k < numFeatures; ++k) {
                f[static_cast<std::size_t>(k)] =
                    (k % 2) ? static_cast<double>(fuzz.nextBounded(4))
                            : fuzz.uniform(0.0, 8.0);
            }
            d.add(f, fuzz.uniform(-5.0, 5.0));
        }

        // Bootstrap-style row multiset (duplicates, arbitrary order).
        std::vector<std::uint32_t> rows(n);
        for (auto &r : rows)
            r = fuzz.nextBounded(static_cast<std::uint32_t>(n));

        TreeOptions opts;
        opts.maxDepth = 2 + static_cast<int>(fuzz.nextBounded(12));
        opts.minSamplesLeaf = 1 + static_cast<int>(fuzz.nextBounded(4));
        opts.minSamplesSplit = 2 + static_cast<int>(fuzz.nextBounded(6));
        opts.mtry = static_cast<int>(fuzz.nextBounded(numFeatures + 1));

        const std::uint64_t seed = fuzz.nextU32();
        Pcg32 presorted_rng(seed, 0x7e57);
        Pcg32 legacy_rng(seed, 0x7e57);
        DecisionTree presorted;
        presorted.fit(d, rows, opts, presorted_rng);
        const LegacyScan legacy(d, rows, opts, legacy_rng);

        std::ostringstream a, b;
        presorted.save(a);
        DecisionTree(legacy.nodes, legacy.depth).save(b);
        ASSERT_EQ(a.str(), b.str())
            << "iter " << iter << " n=" << n << " mtry=" << opts.mtry
            << " maxDepth=" << opts.maxDepth;
        // Both paths must also leave the rng in the same state.
        EXPECT_EQ(presorted_rng.nextU32(), legacy_rng.nextU32());
    }
}

TEST(DecisionTree, ApproximatesSmoothFunction)
{
    Dataset d;
    Pcg32 rng(11);
    for (int i = 0; i < 2000; ++i) {
        double x = rng.uniform(0, 10);
        d.add(fv(x), std::sin(x));
    }
    DecisionTree t;
    TreeOptions opts;
    opts.maxDepth = 12;
    opts.minSamplesLeaf = 2;
    opts.minSamplesSplit = 4;
    Pcg32 fit_rng(12);
    t.fit(d, allRows(d), opts, fit_rng);
    double max_err = 0.0;
    for (double x = 0.5; x < 9.5; x += 0.1)
        max_err = std::max(max_err,
                           std::fabs(t.predict(fv(x)) - std::sin(x)));
    EXPECT_LT(max_err, 0.05);
}

} // namespace
} // namespace gpupm::ml
