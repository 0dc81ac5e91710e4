/**
 * @file
 * Model save and load. The save writes from the predictor's compiled
 * arenas (FlatForest::tree/save): decompiled trees equal their sources
 * node for node, and a predictor saves the bytes of the forests it was
 * built from. The parallel load (ml::ForestLoader behind
 * loadRandomForest) brings a saved predictor back bit for bit - text,
 * compiled arenas and predictions - at any thread count, and a corrupt
 * stream, or node lines that do not form one tree, fails with the error
 * of its earliest bad tree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "hw/config.hpp"
#include "kernel/perf_model.hpp"
#include "ml/serialize.hpp"
#include "model_forests.hpp"
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
    const FlatForest &time = trained().timeFlat();
    return tree < time.treeCount()
               ? time.tree(tree).nodeCount()
               : trained().powerFlat().tree(tree - time.treeCount())
                     .nodeCount();
}

/** Node line @p line of tree @p tree with its field @p field set. */
std::string
withField(const std::string &text, std::size_t tree, std::size_t line,
          std::size_t field, const std::string &value)
{
    const std::size_t at = nodeLine(text, tree, line);
    std::istringstream is(text.substr(at, text.find('\n', at) - at));
    std::vector<std::string> fields;
    for (std::string f; is >> f;)
        fields.push_back(f);
    fields.at(field) = value;
    std::string joined;
    for (const auto &f : fields)
        joined += (joined.empty() ? "" : " ") + f;
    return replaceLine(text, at, joined);
}

/** A model of one tree per target: @p time_tree, then a leaf. */
std::string
smallModel(const std::string &time_tree)
{
    return "gpupm-rf v1\nfeatures " + std::to_string(numFeatures) +
           "\ntarget time\nforest trees 1\n" + time_tree +
           "target power\nforest trees 1\ntree 1 0\n-1 0 -1 -1 30\n";
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
    const auto forests = forestsOf(trained());
    const FlatForest time = FlatForest::compile(forests.time);
    const FlatForest power = FlatForest::compile(forests.power);
    EXPECT_TRUE(loaded->timeFlat().sameArena(time));
    EXPECT_TRUE(loaded->powerFlat().sameArena(power));
    EXPECT_TRUE(trained().timeFlat().sameArena(time));
    EXPECT_TRUE(trained().powerFlat().sameArena(power));
    EXPECT_FALSE(time.sameArena(power));
}

TEST(ModelLoad, PredictionsBitIdenticalToTrained)
{
    // The trained forests and the loaded ones, each read back from what
    // its predictor saves.
    const auto trained_forests = forestsOf(trained());
    const auto loaded_forests = forestsOf(*load(savedText()));
    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const hw::ConfigSpace space;
    const auto &cfgs = space.all();
    const RandomForestPredictor a(trained_forests.time,
                                  trained_forests.power);
    const RandomForestPredictor b(loaded_forests.time,
                                  loaded_forests.power);
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
    const DecisionTree source = trained().timeFlat().tree(0);
    const auto &want = source.nodes();
    ASSERT_EQ(tree.nodes().size(), want.size());
    EXPECT_EQ(tree.depth(), source.depth());
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

/**
 * Append a random subtree to @p nodes in preorder, rooted at @p level:
 * a split until @p max_depth with probability 3/4, or, in a lopsided
 * tree, always, with one leaf child on a random side.
 */
std::int32_t
growTree(Pcg32 &rng, int level, int max_depth, bool lopsided,
         DecisionTree::Nodes &nodes, int &depth)
{
    depth = std::max(depth, level);
    const auto at = static_cast<std::int32_t>(nodes.size());
    nodes.emplace_back();
    const bool split =
        level < max_depth && (lopsided || rng.nextBounded(4) != 0);
    if (!split) {
        // Now and then a negative zero, which must keep its sign.
        nodes.back().value =
            rng.nextBounded(16) == 0 ? -0.0 : rng.uniform(-50.0, 50.0);
        return at;
    }
    DecisionTree::Node n;
    n.feature = static_cast<std::int32_t>(
        rng.nextBounded(static_cast<std::uint32_t>(numFeatures)));
    n.threshold = rng.uniform(-1e6, 1e6);
    const int leaf_side = lopsided ? static_cast<int>(rng.nextBounded(2)) : -1;
    n.left = growTree(rng, level + 1, leaf_side == 0 ? level + 1 : max_depth,
                      lopsided, nodes, depth);
    n.right = growTree(rng, level + 1, leaf_side == 1 ? level + 1 : max_depth,
                       lopsided, nodes, depth);
    nodes[static_cast<std::size_t>(at)] = n;
    return at;
}

std::string
treeText(const DecisionTree &tree)
{
    std::ostringstream os;
    tree.save(os);
    return os.str();
}

TEST(ModelLoad, DecompiledTreesEqualFuzzedSources)
{
    // Single leaves, lopsided chains and bushy trees, depth 0 to 16:
    // each compiles to an arena that decompiles to its source, node for
    // node, and a forest of them saves its own text back.
    Pcg32 rng(0xdec0de);
    std::string forest_text = "forest trees 96\n";
    for (int i = 0; i < 96; ++i) {
        const int max_depth = i % 17;
        const bool lopsided = i % 3 == 1;
        DecisionTree::Nodes nodes;
        int depth = 0;
        growTree(rng, 0, max_depth, lopsided, nodes, depth);
        const DecisionTree source(nodes, depth);
        const DecisionTree back = FlatForest::compile(source).tree(0);
        ASSERT_EQ(back.nodeCount(), nodes.size()) << "tree " << i;
        EXPECT_EQ(back.depth(), depth) << "tree " << i;
        for (std::size_t j = 0; j < nodes.size(); ++j) {
            const auto &a = back.nodes()[j];
            const auto &b = nodes[j];
            ASSERT_EQ(a.feature, b.feature) << "tree " << i << " node " << j;
            ASSERT_EQ(a.left, b.left) << "tree " << i << " node " << j;
            ASSERT_EQ(a.right, b.right) << "tree " << i << " node " << j;
            ASSERT_TRUE(bitEqual(a.threshold, b.threshold));
            ASSERT_TRUE(bitEqual(a.value, b.value));
        }
        forest_text += treeText(source);
    }
    std::istringstream is(forest_text);
    std::ostringstream os;
    FlatForest::compile(RandomForest::load(is)).save(os);
    EXPECT_EQ(os.str(), forest_text);
}

TEST(ModelLoad, PredictorSavesTheTextOfItsSourceForests)
{
    // The model text written tree by tree from fitted forests is what a
    // predictor built from them saves from its arenas.
    Dataset time_data, power_data;
    Pcg32 rng(0x5a7e);
    for (int i = 0; i < 400; ++i) {
        FeatureVector f{};
        for (auto &x : f)
            x = rng.uniform(-4.0, 12.0);
        time_data.add(f, f[0] - 0.5 * f[12] + rng.gaussian(0.0, 0.3));
        power_data.add(f, 20.0 + f[3] * f[14]);
    }
    ForestOptions opts;
    opts.numTrees = 6;
    RandomForest time, power;
    time.fit(time_data, opts);
    opts.seed ^= 0x9ab3;
    power.fit(power_data, opts);

    std::string want =
        "gpupm-rf v1\nfeatures " + std::to_string(numFeatures) + "\n";
    for (const auto &[name, forest] :
         {std::pair{"time", &time}, std::pair{"power", &power}}) {
        want += std::string("target ") + name + "\nforest trees " +
                std::to_string(forest->treeCount()) + "\n";
        for (const auto &tree : forest->trees())
            want += treeText(tree);
    }
    EXPECT_EQ(save(RandomForestPredictor(time, power)), want);
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
    const std::size_t tree = trained().timeFlat().treeCount() + 2;
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

TEST(ModelLoadDeathTest, SelfCycleIsRejected)
{
    // The root is its own left child: a walk from the root would queue
    // it forever.
    EXPECT_EXIT(load(smallModel("tree 3 1\n0 0.5 0 2 0\n-1 0 -1 -1 1\n"
                                "-1 0 -1 -1 2\n")),
                testing::ExitedWithCode(1),
                "tree 0: tree node 0 is reached twice from the root");
    // The same in a tree of the fixture that spans several pieces.
    EXPECT_EXIT(load(withField(savedText(), 3, 0, 2, "0")),
                testing::ExitedWithCode(1),
                "tree 3: tree node 0 is reached twice from the root");
}

TEST(ModelLoadDeathTest, BackEdgeToAnAncestorIsRejected)
{
    // Node 2's right child is its parent, node 1.
    EXPECT_EXIT(load(smallModel("tree 7 3\n0 0.5 1 6 0\n1 0.5 2 5 0\n"
                                "2 0.5 3 1 0\n-1 0 -1 -1 1\n"
                                "-1 0 -1 -1 2\n-1 0 -1 -1 3\n"
                                "-1 0 -1 -1 4\n")),
                testing::ExitedWithCode(1),
                "tree 0: tree node 1 is reached twice from the root");
}

TEST(ModelLoadDeathTest, SharedChildIsRejected)
{
    // Both of the root's edges lead to node 1; node 2 is left over.
    EXPECT_EXIT(load(smallModel("tree 3 1\n0 0.5 1 1 0\n-1 0 -1 -1 1\n"
                                "-1 0 -1 -1 2\n")),
                testing::ExitedWithCode(1),
                "tree 0: tree node 1 is reached twice from the root");
}

TEST(ModelLoadDeathTest, UnreachableNodeIsRejected)
{
    // Node 1 became a leaf, cutting off the subtree of nodes 2 and 3.
    EXPECT_EXIT(load(smallModel("tree 5 2\n0 0.5 1 4 0\n-1 0 -1 -1 1\n"
                                "-1 0 -1 -1 2\n-1 0 -1 -1 3\n"
                                "-1 0 -1 -1 4\n")),
                testing::ExitedWithCode(1),
                "tree 0: tree node 2 is not reached from the root");
}

TEST(ModelLoadDeathTest, HeaderDepthMustMatchTheNodes)
{
    // The arena walks the depth of the nodes, and a save writes it; a
    // header that says otherwise would not survive a load and save.
    EXPECT_EXIT(load(smallModel("tree 3 7\n0 0.5 1 2 0\n-1 0 -1 -1 1\n"
                                "-1 0 -1 -1 2\n")),
                testing::ExitedWithCode(1),
                "tree 0: tree header depth 7 but its nodes are 1 deep");
}

TEST(ModelLoadDeathTest, ShapeErrorsRankInFileOrder)
{
    // A shape error is reported against a later tree's parse error, and
    // an earlier tree's parse error against a shape error.
    const std::string shared = withField(savedText(), 2, 0, 3, "1");
    EXPECT_EXIT(load(replaceLine(shared, nodeLine(shared, 5, 7),
                                 "-1 0 0 0 1.5x")),
                testing::ExitedWithCode(1),
                "tree 2: tree node 1 is reached twice from the root");
    EXPECT_EXIT(load(replaceLine(shared, nodeLine(shared, 1, 7),
                                 "-1 0 0 0 1.5x")),
                testing::ExitedWithCode(1),
                "tree 1: malformed tree node field");
}

} // namespace
} // namespace gpupm::ml
