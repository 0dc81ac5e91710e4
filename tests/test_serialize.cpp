#include <gtest/gtest.h>

#include <sstream>

#include "kernel/perf_model.hpp"
#include "ml/serialize.hpp"
#include "workload/training.hpp"

namespace gpupm::ml {
namespace {

TrainerOptions
tinyOptions()
{
    TrainerOptions opts;
    opts.corpusSize = 8;
    opts.configStride = 8;
    opts.forest.numTrees = 8;
    return opts;
}

TEST(Serialize, RoundTripIsBitExact)
{
    auto original = trainRandomForestPredictor(tinyOptions());
    std::stringstream buffer;
    saveRandomForest(*original, buffer);
    auto loaded = loadRandomForest(buffer);

    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const hw::ConfigSpace space;
    const auto ks = workload::trainingCorpus(4, 0xfeed);
    for (const auto &k : ks) {
        for (std::size_t ci = 0; ci < space.size(); ci += 31) {
            const auto &c = space.at(ci);
            PredictionQuery q;
            const auto est = model.estimate(k, c);
            q.counters = model.counters(k, c, est);
            q.instructions = k.instructions();
            const auto a = original->predict(q, c);
            const auto b = loaded->predict(q, c);
            EXPECT_DOUBLE_EQ(a.time, b.time);
            EXPECT_DOUBLE_EQ(a.gpuPower, b.gpuPower);
        }
    }
}

TEST(Serialize, SecondRoundTripIdenticalText)
{
    auto original = trainRandomForestPredictor(tinyOptions());
    std::stringstream s1;
    saveRandomForest(*original, s1);
    auto loaded = loadRandomForest(s1);
    std::stringstream s2;
    saveRandomForest(*loaded, s2);
    EXPECT_EQ(s1.str(), s2.str());
}

TEST(Serialize, PreservesForestStructure)
{
    auto original = trainRandomForestPredictor(tinyOptions());
    std::stringstream buffer;
    saveRandomForest(*original, buffer);
    auto loaded = loadRandomForest(buffer);
    EXPECT_EQ(loaded->timeFlat().treeCount(),
              original->timeFlat().treeCount());
    EXPECT_EQ(loaded->timeFlat().nodeCount(),
              original->timeFlat().nodeCount());
    EXPECT_EQ(loaded->powerFlat().nodeCount(),
              original->powerFlat().nodeCount());
    EXPECT_TRUE(loaded->timeFlat().sameArena(original->timeFlat()));
    EXPECT_TRUE(loaded->powerFlat().sameArena(original->powerFlat()));
}

TEST(Serialize, RejectsGarbage)
{
    std::stringstream s("not a model at all");
    EXPECT_EXIT(loadRandomForest(s), testing::ExitedWithCode(1),
                "gpupm-rf");
}

TEST(Serialize, RejectsWrongVersion)
{
    std::stringstream s("gpupm-rf v9\nfeatures 17\n");
    EXPECT_EXIT(loadRandomForest(s), testing::ExitedWithCode(1),
                "gpupm-rf");
}

TEST(Serialize, RejectsFeatureMismatch)
{
    std::stringstream s("gpupm-rf v1\nfeatures 3\n");
    EXPECT_EXIT(loadRandomForest(s), testing::ExitedWithCode(1),
                "retrain");
}

TEST(Serialize, RejectsTruncatedStream)
{
    auto original = trainRandomForestPredictor(tinyOptions());
    std::stringstream buffer;
    saveRandomForest(*original, buffer);
    std::string text = buffer.str();
    std::stringstream truncated(text.substr(0, text.size() / 2));
    EXPECT_EXIT(loadRandomForest(truncated),
                testing::ExitedWithCode(1), ".*");
}

TEST(Serialize, TreeSaveRequiresFit)
{
    DecisionTree t;
    std::stringstream s;
    EXPECT_DEATH(t.save(s), "unfitted");
    FlatForest ff;
    EXPECT_DEATH(ff.save(s), "unfitted");
}

} // namespace
} // namespace gpupm::ml
