/**
 * @file
 * CART regression tree (variance-reduction splits).
 *
 * Building block of the Random Forest (Breiman 2001) the paper uses for
 * kernel performance and power prediction. Supports per-split random
 * feature subsetting (mtry) and row subsets, so the forest can drive
 * bagging and feature bagging from outside.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/page_allocator.hpp"
#include "common/rng.hpp"
#include "ml/features.hpp"

namespace gpupm::ml {

/** Training data: row-major features plus one target per row. */
struct Dataset
{
    std::vector<FeatureVector> x;
    std::vector<double> y;

    std::size_t size() const { return x.size(); }
    void
    add(const FeatureVector &features, double target)
    {
        x.push_back(features);
        y.push_back(target);
    }
};

/**
 * Per-feature sorted row orders of a dataset, computed once and shared
 * read-only by every tree fitted on it. Each feature's order holds the
 * dataset's row indices sorted by (value, row); a tree derives its
 * bootstrap orders from this by a linear filtering pass instead of
 * sorting — the sort cost is paid once per dataset, not once per tree
 * (let alone once per node, as a per-node-sort scan does). The transposed
 * feature columns ride along so split sweeps read values from a dense
 * per-feature array instead of striding through the row-major dataset.
 */
struct DatasetOrder
{
    /** Feature-major sorted row indices: rows() entries per feature. */
    std::vector<std::uint32_t> sorted;
    /** Feature-major transposed values: columns[f][row]. */
    std::vector<double> columns;

    static DatasetOrder build(const Dataset &data);

    std::size_t rows() const { return _rows; }
    const std::uint32_t *feature(int f) const
    {
        return sorted.data() + static_cast<std::size_t>(f) * _rows;
    }
    const double *column(int f) const
    {
        return columns.data() + static_cast<std::size_t>(f) * _rows;
    }

  private:
    std::size_t _rows = 0;
};

/** Tree growth hyper-parameters. */
struct TreeOptions
{
    int maxDepth = 16;
    int minSamplesLeaf = 3;
    int minSamplesSplit = 6;
    /** Features tried per split; <=0 means all features. */
    int mtry = 0;
};

/**
 * Regression tree with array-packed nodes for cache-friendly inference.
 */
class DecisionTree
{
  public:
    struct Node
    {
        std::int32_t feature = -1; ///< -1 marks a leaf.
        double threshold = 0.0;    ///< Go left when x[feature] <= this.
        std::int32_t left = -1;
        std::int32_t right = -1;
        double value = 0.0; ///< Leaf prediction.
    };

    /**
     * A tree's nodes. A loaded model's trees live only until its arenas
     * compile, and a tree of the default forest (~400 KB) is mapped
     * whole, so the ~48 MB of parsed nodes go back to the kernel
     * instead of staying in the heap as free space (PageAllocator).
     */
    using Nodes = std::vector<Node, PageAllocator<Node>>;

    DecisionTree() = default;

    /**
     * A tree from its nodes, numbered as fit() numbers them (preorder:
     * index 0 is the root, a left subtree precedes its right sibling),
     * and its depth. FlatForest::tree() decompiles an arena into this.
     */
    DecisionTree(Nodes nodes, int depth);

    /**
     * Fit on the rows of @p data selected by @p rows (duplicates allowed,
     * as produced by bootstrap sampling; order is irrelevant — rows are
     * canonicalized to ascending order before fitting). @p rng drives
     * feature subsetting when opts.mtry > 0.
     */
    void fit(const Dataset &data, std::span<const std::uint32_t> rows,
             const TreeOptions &opts, Pcg32 &rng);

    /**
     * Same, with a precomputed DatasetOrder for @p data. The forest
     * passes one shared order so no tree ever sorts; the four-argument
     * overload builds a private one per call. The fitted tree is
     * identical either way.
     */
    void fit(const Dataset &data, std::span<const std::uint32_t> rows,
             const TreeOptions &opts, Pcg32 &rng,
             const DatasetOrder *order);

    /** Predict one sample; fatal if the tree has not been fitted. */
    double predict(const FeatureVector &f) const;

    /** Number of nodes (diagnostics). */
    std::size_t nodeCount() const { return _nodes.size(); }

    /** Maximum depth reached (diagnostics). */
    int depth() const { return _depth; }

    bool fitted() const { return !_nodes.empty(); }

    /**
     * The one node-line writer: a "tree <nodes> <depth>" header, then
     * `feature threshold left right value` per node, doubles at
     * max_digits10. saveRandomForest reaches it through FlatForest::save.
     */
    void save(std::ostream &os) const;

    /**
     * Read a tree written by save(); fatal on malformed input, or on
     * nodes that do not form one tree (checkShape).
     */
    static DecisionTree load(std::istream &is);

    /**
     * The three steps of load(), public so a loader can spread the
     * parsing of many trees over threads (ForestLoader). Each returns
     * its error message, or an empty string on success.
     *
     * readHeader() reads a "tree <nodes> <depth>" line.
     */
    static std::string readHeader(std::istream &is, std::size_t &count,
                                  int &depth);

    /**
     * Append node lines of @p is to @p lines verbatim, each ended by
     * '\n': @p n lines, or fewer once @p lines holds @p bytes or the
     * stream ends (check the stream to tell which). Returns the count
     * appended. Reads the stream buffer in chunks of kReadChunk bytes,
     * so @p lines may hold that much past its last line while reading;
     * the stream is left just past the last line taken.
     */
    static std::size_t readLines(std::istream &is, std::size_t n,
                                 std::size_t bytes, std::string &lines);
    static constexpr std::size_t kReadChunk = 2048;

    /**
     * The one node-line parser: parse out.size() lines of @p lines, the
     * nodes of a tree of @p count nodes, into @p out. Finds truncation,
     * out-of-range fields and children, non-finite values and trailing
     * junk; CRLF lines load. Touches only its arguments.
     */
    static std::string parseLines(std::string_view lines,
                                  std::size_t count, std::span<Node> out);

    /**
     * Whether parsed @p nodes form one tree of depth @p depth: every
     * node reached exactly once from node 0 through the children of
     * split nodes, the deepest @p depth levels below it. A child
     * reached twice (a cycle, or a node shared by two parents), a node
     * never reached, or a header depth the nodes do not have is an
     * error, returned as its message; empty on success. parseLines
     * checks each line alone, so a loader runs this on every tree
     * before compiling it.
     */
    static std::string checkShape(std::span<const Node> nodes, int depth);

    /** Read-only node storage (index 0 = root); FlatForest compiles it. */
    const Nodes &nodes() const { return _nodes; }

  private:
    friend class ForestLoader;

    Nodes _nodes;
    int _depth = 0;
};

} // namespace gpupm::ml
