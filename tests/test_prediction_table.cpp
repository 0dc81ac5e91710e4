/**
 * @file
 * The Random Forest predictor's prediction table (ml::PredictionTable
 * behind RandomForestPredictor::predictBatch): values served from it
 * must be exactly what a cold walk of the same forests on the same
 * hardware model returns, however threads interleave, however many
 * predictors share a thread, however many kernels pass through the
 * bounded table, whichever model scores them, and across an online
 * refit. A fleet's sessions share the table of the one predictor they
 * are served by. Run it under TSan (tools/run_sanitizers.sh) for the
 * lock-free hit path.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "hw/config.hpp"
#include "hw/model.hpp"
#include "kernel/perf_model.hpp"
#include "model_forests.hpp"
#include "ml/flat_forest.hpp"
#include "ml/trainer.hpp"
#include "online/adaptive_predictor.hpp"
#include "online/forest_handle.hpp"
#include "serve/server.hpp"
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
 * never saw a batch claim no table entry and walk the flat forests
 * (with q.model's descriptors).
 */
std::vector<Prediction>
coldWalk(const RandomForestPredictor &trained, const PredictionQuery &q,
         std::span<const hw::HwConfig> cs)
{
    auto forests = forestsOf(trained);
    const RandomForestPredictor fresh(std::move(forests.time),
                                      std::move(forests.power));
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
    // The same forests again: only the instance id tells its entries
    // from a's.
    auto forests = forestsOf(*a);
    const auto twin = std::make_shared<const RandomForestPredictor>(
        std::move(forests.time), std::move(forests.power));
    const std::vector<std::shared_ptr<const RandomForestPredictor>> preds{
        a, b, twin};

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
    // a and its twin agree bit for bit, so they are told apart by
    // their entries: each predictor claimed one of its own.
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
    const std::size_t kernels = PredictionTable::kRetained + 100;
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
              PredictionTable::kRetained);
    EXPECT_GT(rf->predictionTable().liveEntries(),
              PredictionTable::kRetained / 2);

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

TEST(PredictorTable, DifferentHardwareModelsNeverShareValues)
{
    const auto rf = smallPredictor(0x7a41);
    const hw::ConfigSpace space;
    const auto &cfgs = space.all();
    // An equal-parameter copy is still another model: identity is the
    // model object, not its name or parameters.
    auto copy = hw::makeModel("paper-copy", hw::ApuParams::defaults());
    const std::weak_ptr<const hw::HardwareModel> copy_alive = copy;
    const std::vector<hw::HardwareModelPtr> models = {
        hw::paperApu(), hw::HardwareCatalog::instance().get("eco-apu"),
        copy};

    std::vector<std::vector<Prediction>> values;
    std::vector<Prediction> out(cfgs.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
        PredictionQuery q = kernelQueries(1)[0];
        q.model = models[m];
        const auto want = coldWalk(*rf, q, cfgs);
        // A kernel another model already scored is walked again (by
        // the time and the power forest), into an entry of its own.
        const std::uint64_t before = FlatForest::rowsWalked();
        rf->predictBatch(q, cfgs, out);
        EXPECT_EQ(FlatForest::rowsWalked() - before, 2 * cfgs.size())
            << models[m]->name() << " was served another model's values";
        EXPECT_EQ(rf->predictionTable().liveEntries(), m + 1);
        for (std::size_t i = 0; i < cfgs.size(); ++i)
            ASSERT_TRUE(bitEqual(out[i], want[i]))
                << models[m]->name() << " config " << i;
        values.push_back(out);
    }
    std::size_t eco_differs = 0;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        // Equal parameters give equal descriptors, hence equal bits.
        ASSERT_TRUE(bitEqual(values[2][i], values[0][i])) << i;
        eco_differs += !bitEqual(values[1][i], values[0][i]);
    }
    EXPECT_GT(eco_differs, 0u) << "eco-apu scored like paper-apu; the "
                                  "model does not reach the rows";

    // The entry pins its model: with every caller's handle gone, the
    // model lives on as long as the table holds its entry.
    copy.reset();
    EXPECT_FALSE(copy_alive.expired());
}

TEST(PredictorTable, SecondSessionOnTheSameKernelWalksNoRows)
{
    const auto rf = smallPredictor(0x7a41);
    serve::FleetServer server(rf);
    serve::SessionOptions opts;
    opts.optimizedRuns = 1;
    const auto app = workload::randomApplication(0x42, 4);
    const auto play = [&] {
        const auto id = server.createSession(app, opts);
        serve::Session *s = server.sessions().checkout(id);
        std::vector<std::size_t> configs;
        while (!s->finished())
            configs.push_back(s->step().configIndex);
        server.sessions().checkin(id);
        return configs;
    };

    std::uint64_t before = FlatForest::rowsWalked();
    const auto first = play();
    ASSERT_GT(FlatForest::rowsWalked(), before);
    const std::size_t live = rf->predictionTable().liveEntries();
    ASSERT_GT(live, 0u);

    // Another tenant on the same application is served from the table.
    before = FlatForest::rowsWalked();
    EXPECT_EQ(play(), first);
    EXPECT_EQ(FlatForest::rowsWalked(), before);
    EXPECT_EQ(rf->predictionTable().liveEntries(), live);
}

TEST(PredictorTable, ConcurrentCrossThreadFillAndHit)
{
    // Every thread re-fills and re-reads the same few kernels on two
    // models in its own order, through overlapping windows of the
    // configs, so slots of one entry are filled by one thread while
    // another reads them. Every value must match the forests bit for
    // bit, and TSan must see no race on an entry's slots.
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kIters = 40;
    const auto rf = smallPredictor(0x51de);
    const hw::ConfigSpace space;
    const auto &cfgs = space.all();
    const auto base = kernelQueries(1);
    std::vector<PredictionQuery> qs;
    for (const auto &model :
         {hw::paperApu(), hw::HardwareCatalog::instance().get("perf-apu")}) {
        for (std::size_t k = 0; k < 3; ++k) {
            qs.push_back(base[k]);
            qs.back().model = model;
        }
    }
    std::vector<std::vector<Prediction>> want;
    for (const auto &q : qs)
        want.push_back(coldWalk(*rf, q, cfgs));

    std::vector<std::size_t> failures(kThreads, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const std::size_t n = 48;
            std::vector<Prediction> got(n);
            for (std::size_t i = 0; i < kIters; ++i) {
                const std::size_t k = (t + i) % qs.size();
                // A thread-specific window: partial overlaps make some
                // slots hits and some fresh fills.
                const std::size_t lo = (t * 7 + i * 5) % (cfgs.size() - n);
                rf->predictBatch(qs[k], std::span(cfgs).subspan(lo, n), got);
                for (std::size_t j = 0; j < n; ++j)
                    failures[t] += !bitEqual(got[j], want[k][lo + j]);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (std::size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(failures[t], 0u) << "thread " << t;
    EXPECT_EQ(rf->predictionTable().liveEntries(), qs.size());
}

} // namespace
} // namespace gpupm::ml
