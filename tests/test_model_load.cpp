/**
 * @file
 * The parallel model load (ml::ForestLoader behind loadRandomForest):
 * a trained predictor put through save and load comes back bit for bit
 * - text, compiled arenas and predictions - at any thread count, and a
 * corrupt stream fails with the error of its earliest corrupt tree.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hw/config.hpp"
#include "kernel/perf_model.hpp"
#include "ml/serialize.hpp"
#include "workload/training.hpp"

namespace gpupm::ml {
namespace {

/** Trained once; its trees are large enough to span several pieces. */
const RandomForestPredictor &
trained()
{
    static const auto predictor = [] {
        TrainerOptions opts;
        opts.corpusSize = 48;
        opts.configStride = 2;
        opts.forest.numTrees = 8;
        opts.jobs = 0;
        return trainRandomForestPredictor(opts);
    }();
    return *predictor;
}

std::string
save(const RandomForestPredictor &predictor)
{
    std::ostringstream os;
    saveRandomForest(predictor, os);
    return os.str();
}

const std::string &
savedText()
{
    static const std::string text = save(trained());
    return text;
}

std::unique_ptr<RandomForestPredictor>
load(const std::string &text)
{
    std::istringstream is(text);
    return loadRandomForest(is);
}

/** Offset of node line @p line of tree @p tree (file order). */
std::size_t
nodeLine(const std::string &text, std::size_t tree, std::size_t line)
{
    std::size_t pos = 0;
    for (std::size_t t = 0; t <= tree; ++t)
        pos = text.find("\ntree ", pos) + 1;
    pos = text.find('\n', pos) + 1; // past the tree header
    for (std::size_t l = 0; l < line; ++l)
        pos = text.find('\n', pos) + 1;
    return pos;
}

std::string
replaceLine(std::string text, std::size_t at, const std::string &with)
{
    text.replace(at, text.find('\n', at) - at, with);
    return text;
}

/** Nodes of tree @p tree in file order (time forest first). */
std::size_t
treeNodes(std::size_t tree)
{
    const auto &time = trained().timeForest().trees();
    return tree < time.size()
               ? time[tree].nodeCount()
               : trained().powerForest().trees()[tree - time.size()]
                     .nodeCount();
}

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(ModelLoad, TreesSpanSeveralPieces)
{
    // The fixture must exercise the piece split, not only whole trees.
    const std::size_t first = nodeLine(savedText(), 0, 0);
    const std::size_t last = nodeLine(savedText(), 0, treeNodes(0));
    EXPECT_GT(last - first, 2 * ForestLoader::kPieceBytes);
}

TEST(ModelLoad, SaveOfLoadIsByteIdentical)
{
    EXPECT_EQ(save(*load(savedText())), savedText());
}

TEST(ModelLoad, ArenasEqualCompileOfInMemoryForests)
{
    const auto loaded = load(savedText());
    const FlatForest time = FlatForest::compile(trained().timeForest());
    const FlatForest power = FlatForest::compile(trained().powerForest());
    EXPECT_TRUE(loaded->timeFlat().sameArena(time));
    EXPECT_TRUE(loaded->powerFlat().sameArena(power));
    EXPECT_TRUE(trained().timeFlat().sameArena(time));
    EXPECT_FALSE(time.sameArena(power));
}

TEST(ModelLoad, PredictionsBitIdenticalUnderScalarAndFallback)
{
    const auto loaded = load(savedText());
    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const hw::ConfigSpace space;
    const auto &cfgs = space.all();
    for (const SimdMode mode : {SimdMode::Scalar, SimdMode::Fallback}) {
        const RandomForestPredictor a(trained().timeForest(),
                                      trained().powerForest(), mode);
        const RandomForestPredictor b(loaded->timeForest(),
                                      loaded->powerForest(), mode);
        for (const auto &k : workload::trainingCorpus(3, 0x10ad)) {
            const auto c0 = hw::ConfigSpace::maxPerformance();
            PredictionQuery q;
            q.counters = model.counters(k, c0, model.estimate(k, c0));
            q.instructions = k.instructions();
            std::vector<Prediction> pa(cfgs.size()), pb(cfgs.size());
            a.predictBatch(q, cfgs, pa);
            b.predictBatch(q, cfgs, pb);
            for (std::size_t i = 0; i < cfgs.size(); ++i) {
                EXPECT_TRUE(bitEqual(pa[i].time, pb[i].time));
                EXPECT_TRUE(bitEqual(pa[i].gpuPower, pb[i].gpuPower));
            }
        }
    }
}

TEST(ModelLoad, EightConcurrentLoadsGiveEqualModels)
{
    std::vector<std::unique_ptr<RandomForestPredictor>> models(8);
    std::vector<std::thread> threads;
    for (auto &m : models)
        threads.emplace_back([&m] { m = load(savedText()); });
    for (auto &t : threads)
        t.join();
    for (const auto &m : models) {
        EXPECT_EQ(save(*m), savedText());
        EXPECT_TRUE(m->timeFlat().sameArena(models[0]->timeFlat()));
        EXPECT_TRUE(m->powerFlat().sameArena(models[0]->powerFlat()));
    }
}

TEST(ModelLoad, SingleTreeLoadUsesTheSameParser)
{
    const std::size_t header = nodeLine(savedText(), 0, 0);
    std::istringstream is(savedText().substr(
        savedText().rfind('\n', header - 2) + 1));
    const DecisionTree tree = DecisionTree::load(is);
    const auto &want = trained().timeForest().trees()[0].nodes();
    ASSERT_EQ(tree.nodes().size(), want.size());
    EXPECT_EQ(tree.depth(), trained().timeForest().trees()[0].depth());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(tree.nodes()[i].feature, want[i].feature);
        EXPECT_TRUE(bitEqual(tree.nodes()[i].threshold, want[i].threshold));
        EXPECT_EQ(tree.nodes()[i].left, want[i].left);
        EXPECT_EQ(tree.nodes()[i].right, want[i].right);
        EXPECT_TRUE(bitEqual(tree.nodes()[i].value, want[i].value));
    }
}

TEST(ModelLoad, FileStreamAndCrlfLoadTheSameModel)
{
    // A file buffer refills in blocks; the reader's put-back must land
    // every section header where the next read expects it.
    const std::string path = testing::TempDir() + "model_load_test.rf";
    {
        std::ofstream os(path, std::ios::binary);
        os << savedText();
    }
    std::ifstream file(path, std::ios::binary);
    EXPECT_EQ(save(*loadRandomForest(file)), savedText());
    std::remove(path.c_str());

    std::string crlf;
    for (const char c : savedText())
        crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
    EXPECT_EQ(save(*load(crlf)), savedText());
}

TEST(ModelLoad, LastLineWithoutNewlineLoads)
{
    std::istringstream is("tree 3 1\n0 0.5 1 2 0\n-1 0 0 0 1.5\n"
                          "-1 0 0 0 2.5");
    const DecisionTree t = DecisionTree::load(is);
    ASSERT_EQ(t.nodeCount(), 3u);
    EXPECT_TRUE(is.eof());
    FeatureVector f{};
    f[0] = 0.75;
    EXPECT_EQ(t.predict(f), 2.5);
}

TEST(ModelLoadDeathTest, TwoCorruptTreesReportTheFirst)
{
    // Tree 1 is corrupt in its last piece, tree 2 in its first: the
    // earlier tree in file order is reported, whichever parses first.
    std::string text = replaceLine(
        savedText(), nodeLine(savedText(), 2, 0), "0 0.5 1 999999 0");
    text = replaceLine(text, nodeLine(text, 1, treeNodes(1) - 1),
                       "-1 0 0 0 1.5x");
    EXPECT_EXIT(load(text), testing::ExitedWithCode(1),
                "tree 1: malformed tree node field");
}

TEST(ModelLoadDeathTest, StreamTruncatedMidForest)
{
    // Cut inside a power-forest tree, mid-line.
    const std::size_t tree = trained().timeForest().treeCount() + 2;
    const std::size_t cut = nodeLine(savedText(), tree, treeNodes(tree) / 2);
    EXPECT_EXIT(load(savedText().substr(0, cut + 3)),
                testing::ExitedWithCode(1),
                "tree " + std::to_string(tree) +
                    ": truncated tree node list");
}

TEST(ModelLoadDeathTest, CorruptLineBeforeTheCutWins)
{
    const std::size_t cut = nodeLine(savedText(), 4, 40);
    const std::string text =
        replaceLine(savedText(), nodeLine(savedText(), 4, 30),
                    "-1 0 0 0 1.5 # leaf");
    EXPECT_EXIT(load(text.substr(0, cut)), testing::ExitedWithCode(1),
                "tree 4: trailing characters on tree node line");
}

TEST(ModelLoadDeathTest, HeaderErrorAfterACorruptTreeReportsTheTree)
{
    std::string text = replaceLine(
        savedText(), nodeLine(savedText(), 0, 5), "-1 nan 0 0 1.5");
    text.replace(text.find("target power"), 12, "target watts");
    EXPECT_EXIT(load(text), testing::ExitedWithCode(1),
                "tree 0: tree node with non-finite threshold or value");
    EXPECT_EXIT(load(replaceLine(savedText(), savedText().find("target power"),
                                 "target watts")),
                testing::ExitedWithCode(1), "expected 'target power'");
}

} // namespace
} // namespace gpupm::ml
