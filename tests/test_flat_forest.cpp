/**
 * @file
 * Property tests for the flat batched inference engine: on any fitted
 * forest, FlatForest must be bit-identical to the scalar
 * RandomForest::predict reference - same doubles out, not merely
 * close - across batch shapes, save/load round trips, and partial
 * evaluation. Randomized forests and queries (fixed seeds) probe the
 * space of tree shapes a fitted model can take.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "hw/config.hpp"
#include "kernel/perf_model.hpp"
#include "ml/energy.hpp"
#include "ml/features.hpp"
#include "ml/flat_forest.hpp"
#include "ml/random_forest.hpp"
#include "ml/trainer.hpp"
#include "model_forests.hpp"
#include "workload/training.hpp"

namespace gpupm::ml {
namespace {

/** Exact bit equality; EXPECT_EQ on doubles would accept -0.0 == 0.0. */
::testing::AssertionResult
bitEqual(double a, double b)
{
    std::uint64_t ua = 0, ub = 0;
    std::memcpy(&ua, &a, sizeof(a));
    std::memcpy(&ub, &b, sizeof(b));
    if (ua == ub)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " and " << b << " differ in bits";
}

/** Random regression dataset over the full feature space. */
Dataset
randomData(std::size_t n, std::uint64_t seed)
{
    Dataset d;
    Pcg32 rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        FeatureVector f{};
        for (auto &x : f)
            x = rng.uniform(-4.0, 12.0);
        d.add(f, f[0] * 2.0 + f[10] * f[10] - f[16] +
                     rng.gaussian(0.0, 0.5));
    }
    return d;
}

RandomForest
randomForest(std::uint64_t seed, int trees = 12)
{
    ForestOptions opts;
    opts.numTrees = trees;
    opts.seed = seed;
    RandomForest rf;
    rf.fit(randomData(600, seed ^ 0xabcdULL), opts);
    return rf;
}

std::vector<FeatureVector>
randomQueries(std::size_t n, std::uint64_t seed)
{
    std::vector<FeatureVector> qs(n);
    Pcg32 rng(seed);
    for (auto &q : qs)
        for (auto &x : q)
            x = rng.uniform(-6.0, 14.0); // beyond the training range
    return qs;
}

TEST(FlatForest, FuzzBitIdenticalToScalar)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto rf = randomForest(seed);
        const auto ff = FlatForest::compile(rf);
        EXPECT_EQ(ff.treeCount(), rf.treeCount());
        for (const auto &q : randomQueries(64, seed * 31)) {
            EXPECT_TRUE(bitEqual(ff.predict(q), rf.predict(q)));
        }
    }
}

TEST(FlatForest, BatchShapesMatchScalar)
{
    const auto rf = randomForest(42);
    const auto ff = FlatForest::compile(rf);
    // 1 and 7 take the per-query path, 336 the tree-major path; the
    // duplicate probes that identical inputs stay identical outputs.
    for (std::size_t n : {1u, 7u, 336u}) {
        auto qs = randomQueries(n, n * 977);
        if (n > 2)
            qs[n - 1] = qs[0];
        std::vector<double> out(n);
        ff.predictBatch(qs, out);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(bitEqual(out[i], rf.predict(qs[i])));
    }
}

TEST(FlatForest, SingleTreeCompileMatchesTree)
{
    const auto rf = randomForest(7, 3);
    for (std::size_t t = 0; t < rf.treeCount(); ++t) {
        const auto ff = FlatForest::compile(rf.trees()[t]);
        EXPECT_EQ(ff.treeCount(), 1u);
        for (const auto &q : randomQueries(32, t + 5))
            EXPECT_TRUE(bitEqual(ff.predict(q), rf.trees()[t].predict(q)));
    }
}

TEST(FlatForest, SaveLoadCompileRoundTrip)
{
    const auto rf = randomForest(99);
    const auto ff = FlatForest::compile(rf);
    std::stringstream ss;
    ff.save(ss);
    const auto loaded = RandomForest::load(ss);
    const auto ff2 = FlatForest::compile(loaded);
    EXPECT_TRUE(ff.sameArena(ff2));
    EXPECT_EQ(ff.nodeCount(), ff2.nodeCount());
    EXPECT_EQ(ff.leafCount(), ff2.leafCount());
    for (const auto &q : randomQueries(64, 123))
        EXPECT_TRUE(bitEqual(ff.predict(q), ff2.predict(q)));
}

TEST(FlatForest, ConsumingBuildEqualsCompile)
{
    // The predictor's build frees each tree as soon as it is copied;
    // the arena it leaves is the one compile() makes of the same trees.
    const auto rf = randomForest(17);
    RandomForest consumed = rf;
    FlatForest ff = FlatForest::reserve(consumed);
    ff.build(std::move(consumed));
    EXPECT_TRUE(ff.sameArena(FlatForest::compile(rf)));
    EXPECT_FALSE(consumed.fitted()); // takeTrees() leaves it empty
}

TEST(FlatForest, SpecializeBitIdenticalForMatchingPrefix)
{
    const auto rf = randomForest(1234, 10);
    const auto ff = FlatForest::compile(rf);
    Pcg32 rng(555);
    for (int round = 0; round < 4; ++round) {
        std::vector<double> prefix(numKernelFeatures);
        for (auto &x : prefix)
            x = rng.uniform(-6.0, 14.0);
        const auto resid = ff.specialize(prefix);
        // Contracting the fixed-feature splits can only shrink a tree.
        EXPECT_EQ(resid.treeCount(), ff.treeCount());
        EXPECT_LE(resid.nodeCount(), ff.nodeCount());

        auto qs = randomQueries(48, 556 + round);
        for (auto &q : qs)
            for (int k = 0; k < numKernelFeatures; ++k)
                q[static_cast<std::size_t>(k)] =
                    prefix[static_cast<std::size_t>(k)];
        std::vector<double> a(qs.size()), b(qs.size());
        ff.predictBatch(qs, a);
        resid.predictBatch(qs, b);
        for (std::size_t i = 0; i < qs.size(); ++i) {
            EXPECT_TRUE(bitEqual(a[i], b[i]));
            EXPECT_TRUE(bitEqual(b[i], rf.predict(qs[i])));
        }
    }
}

/**
 * End-to-end: the predictor's batched path (specialization cache,
 * per-kernel prediction memo, residual forests) must reproduce the
 * pre-FlatForest scalar reference bit for bit, including on repeat
 * batches where every config is served from the memo.
 */
TEST(FlatForest, PredictorBatchMatchesScalarReference)
{
    TrainerOptions opts;
    opts.corpusSize = 6;
    opts.configStride = 8;
    opts.forest.numTrees = 8;
    auto pred = trainRandomForestPredictor(opts);
    const auto forests = forestsOf(*pred);

    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const hw::ConfigSpace space;
    const auto kernel = workload::trainingCorpus(1, 0x5150)[0];
    const auto c0 = hw::ConfigSpace::failSafe();
    const auto est = model.estimate(kernel, c0);
    PredictionQuery q;
    q.counters = model.counters(kernel, c0, est);
    q.instructions = kernel.instructions();

    const auto &cfgs = space.all();
    const double proxy = instructionProxy(q.counters);
    std::vector<Prediction> batch(cfgs.size());
    for (int repeat = 0; repeat < 3; ++repeat) {
        pred->predictBatch(q, cfgs, batch);
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            const auto feats = makeFeatures(q.counters, cfgs[i]);
            const double ref_t =
                std::exp(forests.time.predict(feats)) * proxy;
            const double ref_p = forests.power.predict(feats);
            EXPECT_TRUE(bitEqual(batch[i].time, ref_t));
            EXPECT_TRUE(bitEqual(batch[i].gpuPower, ref_p));
            // The scalar entry point must agree with the batch.
            const auto single = pred->predict(q, cfgs[i]);
            EXPECT_TRUE(bitEqual(single.time, batch[i].time));
            EXPECT_TRUE(bitEqual(single.gpuPower, batch[i].gpuPower));
        }
    }
}

TEST(FlatForest, EnergyBatchMatchesScalarLoop)
{
    TrainerOptions opts;
    opts.corpusSize = 4;
    opts.configStride = 12;
    opts.forest.numTrees = 6;
    auto pred = trainRandomForestPredictor(opts);

    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const hw::ConfigSpace space;
    const auto kernel = workload::trainingCorpus(1, 0x77)[0];
    const auto c0 = hw::ConfigSpace::maxPerformance();
    PredictionQuery q;
    q.counters = model.counters(kernel, c0, model.estimate(kernel, c0));
    q.instructions = kernel.instructions();

    EnergyModel energy{hw::ApuParams::defaults()};
    const auto &cfgs = space.all();
    std::vector<EnergyEstimate> batch(cfgs.size());
    energy.estimateBatch(*pred, q, cfgs, batch);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const auto ref = energy.estimate(*pred, q, cfgs[i]);
        EXPECT_TRUE(bitEqual(batch[i].time, ref.time));
        EXPECT_TRUE(bitEqual(batch[i].energy, ref.energy));
    }
}

TEST(FlatForest, LoadRejectsCorruptNodes)
{
    // Non-finite numerals never make it past the istream parse on this
    // toolchain (failbit on "nan"/"inf"/overflow), so they surface as
    // truncation; the explicit isfinite() check in load() backstops
    // parsers that do admit them. Either way a corrupted model must
    // die at load time, not poison later predictions.
    std::stringstream nan_value("tree 1 0\n-1 0 0 0 nan\n");
    EXPECT_DEATH(DecisionTree::load(nan_value), "truncated|non-finite");
    std::stringstream inf_thr("tree 1 0\n-1 inf 0 0 1.5\n");
    EXPECT_DEATH(DecisionTree::load(inf_thr), "truncated|non-finite");
    std::stringstream overflow("tree 1 0\n-1 1e999 0 0 1.5\n");
    EXPECT_DEATH(DecisionTree::load(overflow), "truncated|non-finite");
    std::stringstream bad_feat("tree 1 0\n99 0.5 0 0 1.5\n");
    EXPECT_DEATH(DecisionTree::load(bad_feat), "out of range");
    std::stringstream bad_child("tree 2 1\n0 0.5 1 7 0\n-1 0 0 0 1\n");
    EXPECT_DEATH(DecisionTree::load(bad_child), "out of range");
    std::stringstream shared("tree 3 1\n0 0.5 1 1 0\n-1 0 0 0 1\n"
                             "-1 0 0 0 2\n");
    EXPECT_DEATH(DecisionTree::load(shared), "reached twice");
    std::stringstream big_int("tree 1 0\n-1 0 0 99999999999 1.5\n");
    EXPECT_DEATH(DecisionTree::load(big_int), "out of range");
    std::stringstream short_line("tree 1 0\n-1 0 0 0\n");
    EXPECT_DEATH(DecisionTree::load(short_line), "truncated");
    // Trailing junk, after a field or as a sixth field, is corruption,
    // not something to skip.
    std::stringstream glued("tree 1 0\n-1 0 0 0 1.5x\n");
    EXPECT_DEATH(DecisionTree::load(glued), "malformed");
    std::stringstream extra("tree 1 0\n-1 0 0 0 1.5 7\n");
    EXPECT_DEATH(DecisionTree::load(extra), "trailing characters");
    std::stringstream junk("tree 1 0\n-1 0 0 0 1.5 # leaf\n");
    EXPECT_DEATH(DecisionTree::load(junk), "trailing characters");
}

TEST(FlatForest, LoadAcceptsCrlfNodeLines)
{
    std::stringstream crlf("tree 3 1\r\n0 0.5 1 2 0\r\n-1 0 0 0 1.5\r\n"
                           "-1 0 0 0 2.5\r\n");
    const auto t = DecisionTree::load(crlf);
    ASSERT_EQ(t.nodeCount(), 3u);
    FeatureVector f{};
    f[0] = 0.25;
    EXPECT_EQ(t.predict(f), 1.5);
    f[0] = 0.75;
    EXPECT_EQ(t.predict(f), 2.5);
}

TEST(FlatForest, OobMapeOnLoadedForestIsNanNotCrash)
{
    const auto rf = randomForest(31, 4);
    std::stringstream ss;
    FlatForest::compile(rf).save(ss);
    const auto loaded = RandomForest::load(ss);
    EXPECT_FALSE(loaded.hasOobData());
    const auto d = randomData(50, 9);
    EXPECT_TRUE(std::isnan(loaded.oobMape(d)));
}

/** Queries seeded with every nasty double the extractor could emit. */
std::vector<FeatureVector>
hostileQueries(std::size_t n, std::uint64_t seed)
{
    auto qs = randomQueries(n, seed);
    Pcg32 rng(seed ^ 0xfeedULL);
    const double specials[] = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        1e300,
        -1e300,
        -0.0,
        0.0,
    };
    for (auto &q : qs) {
        // One to four special values per query, the rest in-range.
        const int k = 1 + static_cast<int>(rng.nextU32() % 4u);
        for (int j = 0; j < k; ++j)
            q[rng.nextU32() % static_cast<std::uint32_t>(numFeatures)] =
                specials[rng.nextU32() % std::size(specials)];
    }
    return qs;
}

/**
 * Every entry point of the flat engine takes the recursive walk's
 * branch on any double: f > threshold goes right, so a NaN feature
 * goes left in both. Counted per entry point, so a failure says which
 * path split differently and how often.
 */
TEST(FlatForest, HostileFeaturesMatchTheRecursiveWalk)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto rf = randomForest(seed);
        const auto ff = FlatForest::compile(rf);
        const auto qs = hostileQueries(336, seed * 0x9d);

        std::size_t single = 0, specialized = 0;
        for (const auto &q : qs) {
            const double want = rf.predict(q);
            single += !bitEqual(ff.predict(q), want);
            const auto resid = ff.specialize(
                std::span<const double>(q.data(), numKernelFeatures));
            specialized += !bitEqual(resid.predict(q), want);
        }
        EXPECT_EQ(single, 0u) << "predict, seed " << seed;
        EXPECT_EQ(specialized, 0u) << "specialize, seed " << seed;

        for (const std::size_t n : {1u, 7u, 336u}) {
            std::vector<double> out(n);
            ff.predictBatch(std::span(qs).first(n), out);
            std::size_t batched = 0;
            for (std::size_t i = 0; i < n; ++i)
                batched += !bitEqual(out[i], rf.predict(qs[i]));
            EXPECT_EQ(batched, 0u)
                << "predictBatch n=" << n << ", seed " << seed;
        }
    }
}

TEST(FlatForest, ArenasAreCacheLineAligned)
{
    for (std::uint64_t seed : {3u, 8u, 15u}) {
        const auto rf = randomForest(seed);
        auto ff = FlatForest::compile(rf);
        EXPECT_EQ(ff.arenaMisalignment(), 0u);
        // Residual arenas are fresh allocations; same guarantee.
        std::vector<double> prefix(numKernelFeatures, 1.0);
        EXPECT_EQ(ff.specialize(prefix).arenaMisalignment(), 0u);
    }
}

TEST(FlatForest, RowsWalkedCounterAdvancesPerRow)
{
    const auto rf = randomForest(55);
    const auto qs = randomQueries(64, 56);
    std::vector<double> out(qs.size());

    const auto ff = FlatForest::compile(rf);
    const std::uint64_t before = FlatForest::rowsWalked();
    ff.predictBatch(qs, out);
    ff.predict(qs[0]);
    EXPECT_EQ(FlatForest::rowsWalked() - before, qs.size() + 1);
}

} // namespace
} // namespace gpupm::ml
