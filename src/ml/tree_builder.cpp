#include "ml/tree_builder.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/logging.hpp"

namespace gpupm::ml {

void
TreeBuilder::fit(const Dataset &data, const DatasetOrder &order,
                 std::span<const std::uint32_t> rows,
                 const TreeOptions &opts, Pcg32 &rng,
                 DecisionTree::Nodes &nodes, int &depth)
{
    GPUPM_ASSERT(!rows.empty(), "cannot fit a tree on zero rows");
    GPUPM_ASSERT(order.rows() == data.size(),
                 "DatasetOrder built for a different dataset");

    _data = &data;
    _shared = &order;
    _opts = &opts;
    _rng = &rng;
    _nodes = &nodes;
    _depth = 0;
    const std::size_t n = data.size();

    // Bootstrap multiplicity per dataset row; duplicates are carried as
    // weights from here on, never as separate elements.
    _count.assign(n, 0);
    for (const auto r : rows)
        ++_count[r];
    _canon.clear();
    for (std::uint32_t r = 0; r < n; ++r) {
        if (_count[r] > 0)
            _canon.push_back(r);
    }
    _d = _canon.size();
    _goesLeft.resize(n);
    _bounce.resize(_d);

    // Per-feature orders by filtering the shared sorted view: one
    // linear walk per feature, no sorting. Shared ties are in ascending
    // row order, so the filtered order is "sorted by (value, row)".
    // The filter is branchless — whether a row was drawn is a ~63/37
    // coin flip, the worst case for a branch — so every step writes
    // and only the cursor advance is conditional. Undrawn rows write
    // one past the cursor, hence the single slack slot at the end of
    // the buffer (inner features overwrite their successor's first
    // slot, which is filled afterwards).
    _order.resize(static_cast<std::size_t>(numFeatures) * _d + 1);
    for (int f = 0; f < numFeatures; ++f) {
        const std::uint32_t *ge = order.feature(f);
        std::uint32_t *ord = featureOrder(f);
        std::size_t pos = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t r = ge[i];
            ord[pos] = r;
            pos += _count[r] > 0;
        }
    }

    nodes.clear();
    build(0, _d, rows.size(), 0);
    depth = _depth;
}

std::int32_t
TreeBuilder::makeLeaf(std::size_t begin, std::size_t end,
                      std::size_t weight)
{
    // Weighted mean in canonical order: a row of weight c contributes c
    // consecutive adds of the same target — the exact summation
    // sequence of the legacy rangeMean over the expanded rows.
    const double *y = _data->y.data();
    double s = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t r = _canon[i];
        const double yr = y[r];
        s += yr; // weight >= 1 for every row in an order: peel it
        for (std::uint32_t k = _count[r] - 1; k > 0; --k)
            s += yr;
    }
    DecisionTree::Node leaf;
    leaf.value = s / static_cast<double>(weight);
    _nodes->push_back(leaf);
    return static_cast<std::int32_t>(_nodes->size() - 1);
}

TreeBuilder::Split
TreeBuilder::bestSplit(std::size_t begin, std::size_t end,
                       std::size_t weight)
{
    const std::size_t d = end - begin;
    const auto min_leaf =
        static_cast<std::size_t>(_opts->minSamplesLeaf);
    const double *y = _data->y.data();

    // Candidate feature set (mtry without replacement) — identical rng
    // consumption to the legacy scan.
    std::array<int, numFeatures> order;
    std::iota(order.begin(), order.end(), 0);
    const int tries = _opts->mtry > 0 ? std::min(_opts->mtry, numFeatures)
                                      : numFeatures;
    for (int i = 0; i < tries; ++i) {
        auto j = i + static_cast<int>(_rng->nextBounded(
                         static_cast<std::uint32_t>(numFeatures - i)));
        std::swap(order[i], order[j]);
    }

    // Node target totals, once per node in canonical order; every
    // candidate feature scores against the same two doubles.
    double total_sum = 0.0, total_sq = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t r = _canon[i];
        const double yr = y[r];
        const double sq = yr * yr;
        total_sum += yr;
        total_sq += sq;
        for (std::uint32_t k = _count[r] - 1; k > 0; --k) {
            total_sum += yr;
            total_sq += sq;
        }
    }

    Split best;
    double best_score = std::numeric_limits<double>::infinity();
    for (int t = 0; t < tries; ++t) {
        const int feature = order[t];
        const std::uint32_t *ord = featureOrder(feature) + begin;
        const double *col = _shared->column(feature);

        // Weighted prefix sweep in this feature's sorted order. A
        // boundary exists only between distinct rows; equal-valued
        // neighbors are skipped exactly as the legacy sweep skips them,
        // and a weight-c row adds its target c times in sequence, so
        // left_sum takes the same values the expanded sweep produces.
        double left_sum = 0.0;
        std::size_t left_w = 0;
        double xv = col[ord[0]];
        for (std::size_t i = 0; i + 1 < d; ++i) {
            const std::uint32_t r = ord[i];
            const double yr = y[r];
            const std::uint32_t c = _count[r];
            left_sum += yr;
            for (std::uint32_t k = c - 1; k > 0; --k)
                left_sum += yr;
            left_w += c;
            const double xn = col[ord[i + 1]];
            if (xv == xn)
                continue; // can't split between equal feature values
            const double mid = 0.5 * (xv + xn);
            xv = xn;
            const std::size_t nl = left_w;
            const std::size_t nr = weight - nl;
            if (nl < min_leaf || nr < min_leaf)
                continue;
            const double right_sum = total_sum - left_sum;
            // SSE = sum(y^2) - nl*meanL^2 - nr*meanR^2; sum(y^2) is
            // constant across candidates, so minimize the negative
            // mean-square terms.
            const double score =
                total_sq -
                left_sum * left_sum / static_cast<double>(nl) -
                right_sum * right_sum / static_cast<double>(nr);
            if (score < best_score) {
                best_score = score;
                best.feature = feature;
                best.threshold = mid;
                best.score = score;
                best.valid = true;
            }
        }
    }
    if (best.valid && !std::isfinite(best.score))
        best.valid = false;
    return best;
}

void
TreeBuilder::sieve(std::size_t begin, std::size_t end, std::size_t left,
                   bool keep_left, bool keep_right)
{
    const std::size_t n = end - begin;
    const std::size_t right = n - left;

    // Every maintained order is partitioned stably by the side flag:
    // left entries compact forward in place, right entries bounce
    // through the scratch buffer. Both targets are written on every
    // step and only the cursors are conditional — the side flag is
    // data-dependent and would mispredict half the time as a branch.
    // Each subsequence keeps its relative order, which is what keeps
    // later splits and leaf sums bit-identical to per-node stable
    // sorts. A child that is terminal by weight or depth alone never
    // scans a feature order (its leaf mean reads the canonical order
    // only), so that side of the feature orders is left stale: only
    // the sides that can still split are compacted, and the canonical
    // order (last iteration) is always fully sieved.
    const int sieved = (keep_left || keep_right) ? numFeatures : 0;
    for (int f = 0; f <= sieved; ++f) {
        const bool canonical = f == sieved;
        std::uint32_t *arr =
            (canonical ? _canon.data() : featureOrder(f)) + begin;
        if (canonical || (keep_left && keep_right)) {
            std::size_t w = 0, r = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint32_t v = arr[i];
                const std::uint8_t g = _goesLeft[v];
                arr[w] = v;
                _bounce[r] = v;
                w += g;
                r += 1 - g;
            }
            std::memcpy(arr + left, _bounce.data(),
                        right * sizeof(std::uint32_t));
        } else if (keep_left) {
            std::size_t w = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint32_t v = arr[i];
                arr[w] = v;
                w += _goesLeft[v];
            }
        } else {
            std::size_t r = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint32_t v = arr[i];
                _bounce[r] = v;
                r += 1 - _goesLeft[v];
            }
            std::memcpy(arr + left, _bounce.data(),
                        right * sizeof(std::uint32_t));
        }
    }
}

std::int32_t
TreeBuilder::build(std::size_t begin, std::size_t end, std::size_t weight,
                   int level)
{
    _depth = std::max(_depth, level);
    const std::size_t d = end - begin;
    const auto min_split =
        static_cast<std::size_t>(_opts->minSamplesSplit);

    if (level >= _opts->maxDepth || weight < min_split)
        return makeLeaf(begin, end, weight);

    // Constant target -> leaf (duplicates are equal by construction, so
    // checking distinct rows decides exactly what the expanded check
    // would).
    bool constant = true;
    for (std::size_t i = begin + 1; i < end && constant; ++i)
        constant = _data->y[_canon[i]] == _data->y[_canon[begin]];
    if (constant)
        return makeLeaf(begin, end, weight);

    const Split best = bestSplit(begin, end, weight);
    if (!best.valid)
        return makeLeaf(begin, end, weight);

    // Left membership is a prefix of the split feature's order (it is
    // sorted, and the predicate is value <= threshold — the same
    // comparison the legacy partition applies per row, so a threshold
    // that rounds onto the next distinct value degenerates here too).
    const std::uint32_t *ord = featureOrder(best.feature) + begin;
    const double *col = _shared->column(best.feature);
    std::size_t left = 0;
    std::size_t left_w = 0;
    while (left < d && col[ord[left]] <= best.threshold) {
        left_w += _count[ord[left]];
        ++left;
    }
    if (left == 0 || left == d)
        return makeLeaf(begin, end, weight); // numerical degenerate split
    for (std::size_t i = 0; i < left; ++i)
        _goesLeft[ord[i]] = 1;
    for (std::size_t i = left; i < d; ++i)
        _goesLeft[ord[i]] = 0;

    const std::size_t right_w = weight - left_w;
    const bool left_can_split =
        level + 1 < _opts->maxDepth && left_w >= min_split;
    const bool right_can_split =
        level + 1 < _opts->maxDepth && right_w >= min_split;
    sieve(begin, end, left, left_can_split, right_can_split);

    DecisionTree::Node node;
    node.feature = best.feature;
    node.threshold = best.threshold;
    _nodes->push_back(node);
    const auto idx = static_cast<std::int32_t>(_nodes->size() - 1);

    const auto l = build(begin, begin + left, left_w, level + 1);
    const auto r = build(begin + left, end, right_w, level + 1);
    (*_nodes)[static_cast<std::size_t>(idx)].left = l;
    (*_nodes)[static_cast<std::size_t>(idx)].right = r;
    return idx;
}

} // namespace gpupm::ml
