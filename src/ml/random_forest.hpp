/**
 * @file
 * Random Forest regression (Breiman 2001), as used by the paper for
 * kernel performance and power prediction (Sec. IV-A3).
 *
 * Bootstrap-sampled CART trees with per-split feature subsetting; the
 * prediction is the mean over trees. Out-of-bag (OOB) predictions give
 * an unbiased generalization-error estimate without a holdout set.
 * ForestLoader reads saved forests back, parsing trees on a pool.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ml/decision_tree.hpp"

namespace gpupm::exec {
class ThreadPool;
}

namespace gpupm::ml {

/** Forest hyper-parameters. */
struct ForestOptions
{
    int numTrees = 60;
    TreeOptions tree{};
    /** Bootstrap sample size as a fraction of the dataset. */
    double sampleFraction = 1.0;
    std::uint64_t seed = 0x5eedf0425ULL;
    /**
     * Worker threads for tree fitting (1 = serial, 0 = hardware
     * concurrency). Every bootstrap row set and per-tree rng stream is
     * drawn serially up front, so the fitted forest — including its
     * OOB predictions — is byte-identical at every value.
     */
    std::size_t jobs = 1;

    /** Defaults tuned on the training corpus (see bench_rf_accuracy). */
    static ForestOptions
    regressionDefaults()
    {
        ForestOptions o;
        o.tree.mtry = 8;
        return o;
    }
};

class RandomForest
{
  public:
    /** Fit the forest; deterministic in opts.seed (at any opts.jobs). */
    void fit(const Dataset &data, const ForestOptions &opts);

    /**
     * Fit on a caller-provided pool (opts.jobs is ignored; null pool =
     * serial). Lets several forests share one pool and fit
     * concurrently — the trainer fits the time and power forests this
     * way. Same determinism contract as the two-argument overload.
     */
    void fit(const Dataset &data, const ForestOptions &opts,
             exec::ThreadPool *pool);

    /** Mean prediction over all trees. */
    double predict(const FeatureVector &f) const;

    /**
     * Out-of-bag prediction per training row (rows that were in-bag for
     * every tree come back empty). Computed during fit.
     */
    const std::vector<std::optional<double>> &oobPredictions() const
    {
        return _oob;
    }

    /** Mean absolute percentage error of the OOB predictions. */
    double oobMape(const Dataset &data) const;

    std::size_t treeCount() const { return _trees.size(); }
    bool fitted() const { return !_trees.empty(); }

    /** Whether OOB predictions exist (absent on a load()ed forest). */
    bool hasOobData() const { return !_oob.empty(); }

    /** Read-only tree access (FlatForest compiles from it). */
    const std::vector<DecisionTree> &trees() const { return _trees; }

    /** Move the trees out, leaving this forest unfitted. */
    std::vector<DecisionTree> takeTrees() &&
    {
        _oob.clear();
        return std::exchange(_trees, {});
    }

    /** Total node count across trees (memory/latency diagnostics). */
    std::size_t totalNodes() const;

    /**
     * Read a forest written by FlatForest::save (compile the forest to
     * write one); fatal on malformed input. Parses the trees in
     * parallel (ForestLoader). OOB predictions are training artifacts
     * and are not persisted.
     */
    static RandomForest load(std::istream &is);

  private:
    friend class ForestLoader;

    std::vector<DecisionTree> _trees;
    std::vector<std::optional<double>> _oob;
};

/**
 * Loads the forests of one model stream in parallel.
 *
 * The calling thread is the reader: in file order it reads each tree's
 * header, sizes the tree, and cuts its node lines into pieces of about
 * kPieceBytes (DecisionTree::readLines), consuming exactly the bytes a
 * serial load consumes. A transient pool sized at the hardware
 * concurrency parses and validates the pieces
 * (DecisionTree::parseLines) while the reader goes on. Each piece fills
 * its own range of its tree's nodes, so the loaded forests are the same
 * at any thread count. At most two pieces per worker are in flight, and
 * each stays below the allocator's mmap threshold, so the load leaves
 * no freed large block behind to raise it.
 *
 * Each tree whose lines all parsed is checked to form one tree
 * (DecisionTree::checkShape) before any arena walks it, by the task
 * that parses its last piece, so the checks overlap the reading.
 *
 * Errors: no pool task ends the process. A task keeps its piece's or
 * its tree's shape error. The reader cuts the whole stream, or stops at
 * the first error of its own (a header, a truncation), then drains the
 * pool and exits through GPUPM_FATAL with the earliest error in file
 * order, as "tree N: <message>" (N counts the stream's trees from 0),
 * so the report never depends on which piece parsed first. A forest or
 * section header error is reported only when no earlier tree failed.
 */
class ForestLoader
{
  public:
    /** Node-line text per parse task. */
    static constexpr std::size_t kPieceBytes = 32 * 1024;

    ForestLoader();
    /** Drains the pool; call finish() to collect the forests. */
    ~ForestLoader();

    ForestLoader(const ForestLoader &) = delete;
    ForestLoader &operator=(const ForestLoader &) = delete;

    /**
     * Read one "forest trees <n>" section and queue its trees for
     * parsing. @p out must outlive finish(), which fills it.
     */
    void read(std::istream &is, RandomForest &out);

    /**
     * Exit with @p message, a header error at the reader's position,
     * unless an earlier tree failed: then with that tree's error.
     */
    [[noreturn]] void fail(const std::string &message);

    /**
     * Wait for every queued piece, then move the trees into the
     * forests passed to read(); fatal on error. Ends the loader.
     */
    void finish();

  private:
    /** A tree being loaded. */
    struct Tree
    {
        DecisionTree tree;
        /**
         * Pieces still parsing, plus one while the reader cuts the
         * tree. Whoever drops it to zero checks the tree's shape.
         */
        std::atomic<std::size_t> pending{1};
        std::atomic<bool> failed{false}; ///< A piece did not parse.
        std::string shapeError;
    };
    struct Piece
    {
        std::size_t tree = 0; ///< Index in _trees.
        std::string error;
    };
    struct Section
    {
        RandomForest *forest;
        std::size_t first;
        std::size_t count;
    };

    /** Queue the parse of @p text into @p nodes. */
    void post(std::size_t tree, std::string *text,
              std::span<DecisionTree::Node> nodes);
    /** Drop one hold on @p tree; the last checks its shape, unless a
     *  piece failed (its nodes may then hold unchecked children). */
    static void release(Tree &tree);
    /** A cleared text buffer; waits while every buffer is in flight. */
    std::string *takeBuffer();
    /** Drain the pool, then exit with the earliest error, if any:
     *  a piece's, or a parsed tree's shape error. */
    void reportErrors();

    std::unique_ptr<exec::ThreadPool> _pool;
    /** Trees and pieces in file order; deques, so queued tasks'
     *  elements stay put while the reader appends. */
    std::deque<Tree> _trees;
    std::deque<Piece> _pieces;
    std::vector<Section> _sections;

    std::mutex _mutex;
    std::condition_variable _returned;
    std::vector<std::unique_ptr<std::string>> _buffers;
    std::vector<std::string *> _free;
};

} // namespace gpupm::ml
