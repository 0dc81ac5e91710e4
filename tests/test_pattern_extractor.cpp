#include <gtest/gtest.h>

#include "mpc/pattern_extractor.hpp"

namespace gpupm::mpc {
namespace {

kernel::KernelCounters
countersFor(double valu, double gws = 1e6)
{
    kernel::KernelCounters c;
    c.globalWorkSize = gws;
    c.valuInsts = valu;
    c.vfetchInsts = 10.0;
    return c;
}

std::vector<std::size_t>
window(const PatternExtractor &pe, std::size_t first, std::size_t count)
{
    std::vector<std::size_t> out{99}; // stale content must be cleared
    pe.expectedWindow(first, count, out);
    return out;
}

TEST(PatternExtractor, RegistersDistinctKernels)
{
    PatternExtractor pe;
    auto a = pe.observe(countersFor(100.0), 1e-3, 20.0, 1e8, nullptr);
    auto b = pe.observe(countersFor(3000.0), 2e-3, 25.0, 2e8, nullptr);
    EXPECT_NE(a, b);
    EXPECT_EQ(pe.storeSize(), 2u);
    // Re-observing kernel A reuses its id.
    auto a2 = pe.observe(countersFor(100.0), 1.2e-3, 21.0, 1e8, nullptr);
    EXPECT_EQ(a2, a);
    EXPECT_EQ(pe.storeSize(), 2u);
}

TEST(PatternExtractor, FeedbackRefreshesStore)
{
    PatternExtractor pe;
    auto id = pe.observe(countersFor(100.0), 1e-3, 20.0, 1e8, nullptr);
    pe.observe(countersFor(100.0), 5e-3, 30.0, 1e8, nullptr);
    EXPECT_DOUBLE_EQ(pe.record(id).time, 5e-3);
    EXPECT_DOUBLE_EQ(pe.record(id).gpuPower, 30.0);
}

TEST(PatternExtractor, LearnsSequenceAcrossRuns)
{
    PatternExtractor pe;
    pe.beginRun();
    auto a = pe.observe(countersFor(100.0), 1e-3, 1.0, 1.0, nullptr);
    auto b = pe.observe(countersFor(3000.0), 1e-3, 1.0, 1.0, nullptr);
    pe.observe(countersFor(100.0), 1e-3, 1.0, 1.0, nullptr);
    EXPECT_FALSE(pe.hasLearnedSequence());

    pe.beginRun(); // commits ABA
    EXPECT_TRUE(pe.hasLearnedSequence());
    EXPECT_EQ(pe.learnedSequenceLength(), 3u);
    EXPECT_EQ(pe.learnedSequence(), (std::vector<std::size_t>{a, b, a}));
}

TEST(PatternExtractor, ExpectedWindowFromLearnedSequence)
{
    PatternExtractor pe;
    pe.beginRun();
    auto a = pe.observe(countersFor(100.0), 1e-3, 1.0, 1.0, nullptr);
    auto b = pe.observe(countersFor(3000.0), 1e-3, 1.0, 1.0, nullptr);
    auto c = pe.observe(countersFor(30.0), 1e-3, 1.0, 1.0, nullptr);
    pe.beginRun();

    EXPECT_EQ(window(pe, 0, 3),
              (std::vector<std::size_t>{a, b, c}));
    EXPECT_EQ(window(pe, 1, 2), (std::vector<std::size_t>{b, c}));
    // Truncated at the end of the sequence.
    EXPECT_EQ(window(pe, 2, 5), (std::vector<std::size_t>{c}));
    EXPECT_TRUE(window(pe, 3, 2).empty());
}

TEST(PatternExtractor, DeviationBreaksSequence)
{
    PatternExtractor pe;
    pe.beginRun();
    pe.observe(countersFor(100.0), 1e-3, 1.0, 1.0, nullptr);
    pe.observe(countersFor(3000.0), 1e-3, 1.0, 1.0, nullptr);
    pe.beginRun();
    EXPECT_TRUE(pe.hasLearnedSequence());
    // Second run starts with a different kernel.
    pe.observe(countersFor(30.0), 1e-3, 1.0, 1.0, nullptr);
    EXPECT_FALSE(pe.hasLearnedSequence());
}

TEST(PatternExtractor, BrokenRunDoesNotOverwriteGoodSequence)
{
    PatternExtractor pe;
    pe.beginRun();
    pe.observe(countersFor(100.0), 1e-3, 1.0, 1.0, nullptr);
    pe.observe(countersFor(3000.0), 1e-3, 1.0, 1.0, nullptr);
    pe.beginRun(); // learned AB
    pe.observe(countersFor(30.0), 1e-3, 1.0, 1.0, nullptr); // deviates
    pe.beginRun();
    // The deviating run is discarded; AB remains learned.
    EXPECT_EQ(pe.learnedSequenceLength(), 2u);
}

TEST(PatternExtractor, DetectPeriodBasics)
{
    using V = std::vector<std::size_t>;
    EXPECT_EQ(PatternExtractor::detectPeriod(V{0, 1, 0, 1, 0, 1}), 2u);
    EXPECT_EQ(PatternExtractor::detectPeriod(V{7, 7, 7, 7}), 1u);
    EXPECT_EQ(PatternExtractor::detectPeriod(V{0, 1, 2, 0, 1, 2}), 3u);
    EXPECT_FALSE(PatternExtractor::detectPeriod(V{0, 1, 2, 3}));
    EXPECT_FALSE(PatternExtractor::detectPeriod(V{0}));
    EXPECT_FALSE(PatternExtractor::detectPeriod(V{}));
}

TEST(PatternExtractor, InRunPeriodicityPredictsFuture)
{
    PatternExtractor pe;
    pe.beginRun();
    auto a = pe.observe(countersFor(100.0), 1e-3, 1.0, 1.0, nullptr);
    auto b = pe.observe(countersFor(3000.0), 1e-3, 1.0, 1.0, nullptr);
    pe.observe(countersFor(100.0), 1e-3, 1.0, 1.0, nullptr);
    pe.observe(countersFor(3000.0), 1e-3, 1.0, 1.0, nullptr);
    // No previous run, but the ABAB periodicity predicts the future.
    EXPECT_EQ(window(pe, 4, 3),
              (std::vector<std::size_t>{a, b, a}));
}

TEST(PatternExtractor, ChosenConfigCached)
{
    PatternExtractor pe;
    auto id = pe.observe(countersFor(100.0), 1e-3, 1.0, 1.0, nullptr);
    EXPECT_FALSE(pe.record(id).lastChosenConfig.has_value());
    pe.mutableRecord(id).lastChosenConfig = hw::ConfigSpace::failSafe();
    EXPECT_EQ(*pe.record(id).lastChosenConfig,
              hw::ConfigSpace::failSafe());
}

TEST(PatternExtractor, BadIdDies)
{
    PatternExtractor pe;
    EXPECT_DEATH(pe.record(0), "store id");
}

} // namespace
} // namespace gpupm::mpc
