/**
 * @file
 * The Random Forest predictor's prediction table (ml::PredictionTable
 * behind RandomForestPredictor::predictBatch): values served from it
 * must be exactly what a cold walk of the same forests returns, however
 * threads interleave, however many predictors share a thread, however
 * many kernels pass through the bounded table, and across an online
 * refit. Run it under TSan (tools/run_sanitizers.sh) for the lock-free
 * hit path; run it with GPUPM_SIMD set for the quantized engines.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "hw/config.hpp"
#include "kernel/perf_model.hpp"
#include "ml/trainer.hpp"
#include "online/adaptive_predictor.hpp"
#include "online/forest_handle.hpp"
#include "workload/training.hpp"

namespace gpupm::ml {
namespace {

bool
bitEqual(const Prediction &a, const Prediction &b)
{
    return std::memcmp(&a.time, &b.time, sizeof(double)) == 0 &&
           std::memcmp(&a.gpuPower, &b.gpuPower, sizeof(double)) == 0;
}

std::shared_ptr<const RandomForestPredictor>
smallPredictor(std::uint64_t seed)
{
    TrainerOptions opts;
    opts.corpusSize = 6;
    opts.configStride = 8;
    opts.forest.numTrees = 8;
    opts.seed = seed;
    return trainRandomForestPredictor(opts);
}

/** Counters of corpus kernels at a few configs: distinct table keys. */
std::vector<PredictionQuery>
kernelQueries(std::size_t kernels)
{
    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const hw::ConfigSpace space;
    std::vector<PredictionQuery> qs;
    for (const auto &k : workload::trainingCorpus(kernels, 0x7ab1e)) {
        for (std::size_t ci = 0; ci < space.size(); ci += 97) {
            const auto &c = space.at(ci);
            PredictionQuery q;
            q.counters = model.counters(k, c, model.estimate(k, c));
            q.instructions = k.instructions();
            qs.push_back(q);
        }
    }
    return qs;
}

/**
 * A fresh predictor's cold walk: single queries on a predictor that
 * never saw a batch claim no table entry and walk the flat forests.
 */
std::vector<Prediction>
coldWalk(const RandomForestPredictor &trained, const PredictionQuery &q,
         std::span<const hw::HwConfig> cs)
{
    const RandomForestPredictor fresh(trained.timeForest(),
                                      trained.powerForest(),
                                      trained.simdMode());
    std::vector<Prediction> out(cs.size());
    for (std::size_t i = 0; i < cs.size(); ++i)
        out[i] = fresh.predict(q, cs[i]);
    EXPECT_EQ(fresh.predictionTable().liveEntries(), 0u);
    return out;
}

TEST(PredictorTable, FourThreadsInterleavedMatchAColdWalk)
{
    const auto rf = smallPredictor(0x7a41);
    const auto qs = kernelQueries(4);
    const hw::ConfigSpace space;
    const auto &cfgs = space.all();
    std::vector<std::vector<Prediction>> expected;
    for (const auto &q : qs)
        expected.push_back(coldWalk(*rf, q, cfgs));

    // Each thread visits every kernel in its own rotation, with batch
    // shapes that exercise full scans (residual walks), hill-climb
    // sized batches and single-config steps on a held entry, so fills
    // and hits of one entry race across threads.
    constexpr std::size_t kThreads = 4;
    std::vector<std::size_t> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::vector<Prediction> out(cfgs.size());
            for (std::size_t round = 0; round < 3; ++round) {
                for (std::size_t j = 0; j < qs.size(); ++j) {
                    const std::size_t k = (j + t * 3) % qs.size();
                    const std::size_t first = (t * 37 + round * 11) %
                                              (cfgs.size() - 5);
                    const std::size_t n =
                        (t + round) % 3 == 0 ? cfgs.size() - first : 5;
                    const std::span<const hw::HwConfig> cs(
                        cfgs.data() + first, n);
                    rf->predictBatch(qs[k], cs,
                                     std::span(out.data(), n));
                    for (std::size_t i = 0; i < n; ++i) {
                        if (!bitEqual(out[i], expected[k][first + i]))
                            ++mismatches[t];
                    }
                    const std::size_t one = (first + 3) % cfgs.size();
                    if (!bitEqual(rf->predict(qs[k], cfgs[one]),
                                  expected[k][one]))
                        ++mismatches[t];
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (std::size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
    EXPECT_GE(rf->predictionTable().liveEntries(), 1u);
    EXPECT_LE(rf->predictionTable().liveEntries(), qs.size());
}

TEST(PredictorTable, TwoPredictorsOnOneThreadNeverShareValues)
{
    const auto a = smallPredictor(0x7a41);
    const auto b = smallPredictor(0x51de);
    // The same forests on another engine: only the instance id tells
    // their entries apart.
    const auto q8 = std::make_shared<const RandomForestPredictor>(
        a->timeForest(), a->powerForest(), SimdMode::Fallback);
    const auto f64 = std::make_shared<const RandomForestPredictor>(
        a->timeForest(), a->powerForest(), SimdMode::Scalar);
    const std::vector<std::shared_ptr<const RandomForestPredictor>> preds{
        a, b, q8, f64};

    const auto q = kernelQueries(1)[0];
    const hw::ConfigSpace space;
    const auto &cfgs = space.all();
    std::vector<std::vector<Prediction>> expected;
    for (const auto &p : preds)
        expected.push_back(coldWalk(*p, q, cfgs));
    bool forests_differ = false;
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        forests_differ |= !bitEqual(expected[0][i], expected[1][i]);
    EXPECT_TRUE(forests_differ) << "the two forests agree everywhere; "
                                   "the test shows nothing";

    // Same counters, same configs, one thread, interleaved: each
    // predictor's batch fills or hits only its own entry.
    std::vector<Prediction> out(cfgs.size());
    for (int repeat = 0; repeat < 2; ++repeat) {
        for (std::size_t p = 0; p < preds.size(); ++p) {
            preds[p]->predictBatch(q, cfgs, out);
            for (std::size_t i = 0; i < cfgs.size(); ++i)
                ASSERT_TRUE(bitEqual(out[i], expected[p][i]))
                    << "predictor " << p << " config " << i;
            ASSERT_TRUE(
                bitEqual(preds[p]->predict(q, cfgs[7]), expected[p][7]));
        }
    }
    // A small forest's quantized and float walks may agree bit for bit,
    // so the engine pair is told apart by its entries: each predictor
    // claimed one of its own.
    for (const auto &p : preds)
        EXPECT_EQ(p->predictionTable().liveEntries(), 1u);
}

TEST(PredictorTable, BoundedEntryCountKeepsResultsExact)
{
    const auto rf = smallPredictor(0x7a41);
    const auto base = kernelQueries(1)[0];
    const hw::ConfigSpace space;
    const auto &cfgs = space.all();
    const std::array<hw::HwConfig, 2> pair{cfgs[3], cfgs[200]};

    // More distinct kernels than the table retains; each two-config
    // batch claims an entry.
    const std::size_t kernels = RandomForestPredictor::kTableEntries + 100;
    std::array<Prediction, 2> out;
    for (std::size_t k = 0; k < kernels; ++k) {
        PredictionQuery q = base;
        q.counters.globalWorkSize += static_cast<double>(k);
        rf->predictBatch(q, pair, out);
        if (k % 97 == 0 || k + 1 == kernels) {
            const auto ref = coldWalk(*rf, q, pair);
            ASSERT_TRUE(bitEqual(out[0], ref[0])) << "kernel " << k;
            ASSERT_TRUE(bitEqual(out[1], ref[1])) << "kernel " << k;
        }
    }
    EXPECT_LE(rf->predictionTable().liveEntries(),
              RandomForestPredictor::kTableEntries);
    EXPECT_GT(rf->predictionTable().liveEntries(),
              RandomForestPredictor::kTableEntries / 2);

    // An evicted kernel comes back with the same bits.
    const auto again = rf->predictionTable().liveEntries();
    rf->predictBatch(base, pair, out);
    const auto ref = coldWalk(*rf, base, pair);
    EXPECT_TRUE(bitEqual(out[0], ref[0]));
    EXPECT_TRUE(bitEqual(out[1], ref[1]));
    EXPECT_LE(rf->predictionTable().liveEntries(), again + 1);
}

TEST(PredictorTable, RefitUnderAdaptivePredictorServesNoOldValue)
{
    const auto gen0 = smallPredictor(0x7a41);
    const auto gen1 = smallPredictor(0x51de);
    online::ForestHandle handle(gen0);
    const online::AdaptivePredictor adaptive(handle);

    const auto q = kernelQueries(1)[0];
    const hw::ConfigSpace space;
    const auto &cfgs = space.all();
    const auto old_values = coldWalk(*gen0, q, cfgs);
    const auto new_values = coldWalk(*gen1, q, cfgs);

    std::vector<Prediction> out(cfgs.size());
    adaptive.predictBatch(q, cfgs, out);
    for (std::size_t i = 0; i < cfgs.size(); ++i)
        ASSERT_TRUE(bitEqual(out[i], old_values[i]));

    // After the refit is published, the same kernel's batch, partial
    // batches and single queries all come from the new forests, even
    // though the thread still holds the old generation's entry.
    handle.publish(gen1);
    std::size_t changed = 0;
    adaptive.predictBatch(q, std::span(cfgs).first(5),
                          std::span(out).first(5));
    for (std::size_t i = 0; i < 5; ++i)
        ASSERT_TRUE(bitEqual(out[i], new_values[i]));
    adaptive.predictBatch(q, cfgs, out);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        ASSERT_TRUE(bitEqual(out[i], new_values[i])) << "config " << i;
        changed += !bitEqual(out[i], old_values[i]);
        ASSERT_TRUE(bitEqual(adaptive.predict(q, cfgs[i]), new_values[i]));
    }
    EXPECT_GT(changed, 0u) << "the generations agree; the test shows "
                              "nothing";
}

} // namespace
} // namespace gpupm::ml
