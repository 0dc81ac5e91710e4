/**
 * @file
 * serve::InferenceBroker, serve::SessionPredictor and
 * ml::PredictionTable contract tests: bit-identity of brokered
 * evaluation against direct predictRows, the three flush triggers
 * (batch-full, all-waiting coalescing, deadline safety net), the
 * per-session kernel LRU (hits, passthrough modes, eviction) and the
 * fleet-shared prediction table (sharing, key isolation, hot-swap,
 * lifetime, concurrent fills). Run under -DGPUPM_TSAN=ON to validate
 * the broker's and the table's locking discipline.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "kernel/perf_model.hpp"
#include "ml/features.hpp"
#include "ml/trainer.hpp"
#include "serve/broker.hpp"
#include "serve/server.hpp"
#include "serve/session_manager.hpp"
#include "serve/session_predictor.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/training.hpp"

namespace gpupm::serve {
namespace {

std::shared_ptr<const ml::RandomForestPredictor>
tinyRf(std::uint64_t seed = ml::TrainerOptions{}.seed)
{
    ml::TrainerOptions opts;
    opts.corpusSize = 8;
    opts.configStride = 8;
    opts.forest.numTrees = 8;
    opts.seed = seed;
    return ml::trainRandomForestPredictor(opts);
}

/** Feature rows mixing several kernels and configs (broker input). */
std::vector<ml::FeatureVector>
sampleRows(std::size_t n, std::uint64_t seed)
{
    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const auto ks = workload::trainingCorpus(4, seed);
    const hw::ConfigSpace space;
    std::vector<ml::FeatureVector> rows;
    rows.reserve(n);
    for (std::size_t i = 0; rows.size() < n; ++i) {
        const auto &k = ks[i % ks.size()];
        const auto &c = space.at((i * 37) % space.size());
        const auto est = model.estimate(k, c);
        const auto counters = model.counters(k, c, est);
        rows.push_back(ml::combineFeatures(
            ml::makeKernelFeatures(counters), ml::configFeatures(c)));
    }
    return rows;
}

/** Reusable all-or-nothing rendezvous for the concurrency tests. */
class Barrier
{
  public:
    explicit Barrier(std::size_t n) : _expected(n) {}

    void
    arriveAndWait()
    {
        std::unique_lock lock(_mutex);
        const std::size_t generation = _generation;
        if (++_arrived == _expected) {
            _arrived = 0;
            ++_generation;
            _cv.notify_all();
            return;
        }
        _cv.wait(lock,
                 [&] { return _generation != generation; });
    }

  private:
    std::mutex _mutex;
    std::condition_variable _cv;
    std::size_t _expected;
    std::size_t _arrived = 0;
    std::size_t _generation = 0;
};

TEST(InferenceBroker, EvaluateIsBitIdenticalToDirectPredictRows)
{
    auto rf = tinyRf();
    const auto rows = sampleRows(24, 0xabc);

    std::vector<double> direct_t(rows.size()), direct_p(rows.size());
    rf->predictRows(rows, direct_t, direct_p);

    InferenceBroker broker(rf);
    std::vector<double> t(rows.size()), p(rows.size());
    broker.evaluate(rows, t, p);

    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(t[i], direct_t[i]) << "row " << i;
        EXPECT_EQ(p[i], direct_p[i]) << "row " << i;
    }
    EXPECT_EQ(broker.queryCount(), rows.size());
}

TEST(InferenceBroker, SerialClientDegeneratesToImmediateFlush)
{
    // With no other in-flight decision, waiting cannot grow the batch:
    // every evaluate must flush itself without hitting the deadline.
    auto rf = tinyRf();
    telemetry::Registry reg;
    BrokerOptions opts;
    opts.flushDeadline = std::chrono::microseconds(60'000'000);
    InferenceBroker broker(rf, opts, &reg);

    const auto rows = sampleRows(6, 0x111);
    std::vector<double> t(rows.size()), p(rows.size());
    InferenceBroker::DecisionScope scope(broker);
    for (int i = 0; i < 5; ++i)
        broker.evaluate(rows, t, p);

    EXPECT_EQ(broker.flushCount(), 5u);
    EXPECT_EQ(broker.queryCount(), 5 * rows.size());
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("broker.flush_all_waiting"), 5u);
    EXPECT_EQ(snap.counters.at("broker.flush_deadline"), 0u);
}

TEST(InferenceBroker, FlushesWhenBatchFull)
{
    auto rf = tinyRf();
    telemetry::Registry reg;
    BrokerOptions opts;
    opts.maxBatch = 8; // one 16-row request overflows immediately
    InferenceBroker broker(rf, opts, &reg);

    const auto rows = sampleRows(16, 0x222);
    std::vector<double> t(rows.size()), p(rows.size());
    broker.evaluate(rows, t, p);

    EXPECT_EQ(broker.flushCount(), 1u);
    EXPECT_EQ(reg.snapshot().counters.at("broker.flush_full"), 1u);
}

TEST(InferenceBroker, CoalescesConcurrentDecisionsIntoOneFlush)
{
    constexpr std::size_t kClients = 4;
    auto rf = tinyRf();
    telemetry::Registry reg;
    BrokerOptions opts;
    // Deadline far beyond the test runtime: the only way results can
    // arrive is the all-waiting trigger firing once all four clients
    // have submitted - which is exactly the coalescing we assert.
    opts.flushDeadline = std::chrono::microseconds(60'000'000);
    InferenceBroker broker(rf, opts, &reg);

    const auto rows = sampleRows(8, 0x333);
    std::vector<double> direct_t(rows.size()), direct_p(rows.size());
    rf->predictRows(rows, direct_t, direct_p);

    Barrier ready(kClients);
    std::vector<std::thread> clients;
    std::vector<std::vector<double>> ts(kClients), ps(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
        ts[i].resize(rows.size());
        ps[i].resize(rows.size());
        clients.emplace_back([&, i] {
            InferenceBroker::DecisionScope scope(broker);
            // Every client is inside a scope before anyone submits, so
            // the all-waiting trigger cannot fire on a partial batch.
            ready.arriveAndWait();
            broker.evaluate(rows, ts[i], ps[i]);
        });
    }
    for (auto &t : clients)
        t.join();

    EXPECT_EQ(broker.flushCount(), 1u);
    EXPECT_EQ(broker.queryCount(), kClients * rows.size());
    for (std::size_t i = 0; i < kClients; ++i) {
        EXPECT_EQ(ts[i], direct_t) << "client " << i;
        EXPECT_EQ(ps[i], direct_p) << "client " << i;
    }
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("broker.flush_all_waiting"), 1u);
    const auto &req = snap.histograms.at("broker.batch_requests");
    EXPECT_EQ(req.count, 1u);
    EXPECT_EQ(req.sum, kClients);
}

TEST(InferenceBroker, DeadlineFlushRescuesUnaccountedScopes)
{
    auto rf = tinyRf();
    telemetry::Registry reg;
    BrokerOptions opts;
    opts.flushDeadline = std::chrono::microseconds(2000);
    InferenceBroker broker(rf, opts, &reg);

    const auto rows = sampleRows(4, 0x444);
    std::vector<double> direct_t(rows.size()), direct_p(rows.size());
    rf->predictRows(rows, direct_t, direct_p);

    // The main thread holds a decision scope but never submits - the
    // situation the deadline exists for: the all-waiting count can
    // never be reached, so the waiter must rescue itself.
    InferenceBroker::DecisionScope idle(broker);
    std::vector<double> t(rows.size()), p(rows.size());
    std::thread client([&] {
        InferenceBroker::DecisionScope scope(broker);
        broker.evaluate(rows, t, p);
    });
    client.join();

    EXPECT_EQ(t, direct_t);
    EXPECT_EQ(p, direct_p);
    EXPECT_GE(reg.snapshot().counters.at("broker.flush_deadline"), 1u);
}

TEST(InferenceBroker, ConcurrentStressStaysBitIdentical)
{
    constexpr std::size_t kClients = 4;
    constexpr int kIters = 25;
    auto rf = tinyRf();
    InferenceBroker broker(rf);

    std::vector<std::thread> clients;
    std::vector<int> failures(kClients, 0);
    for (std::size_t i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            const auto rows = sampleRows(5 + i, 0x1000 + i);
            std::vector<double> want_t(rows.size()),
                want_p(rows.size());
            rf->predictRows(rows, want_t, want_p);
            std::vector<double> t(rows.size()), p(rows.size());
            for (int k = 0; k < kIters; ++k) {
                InferenceBroker::DecisionScope scope(broker);
                broker.evaluate(rows, t, p);
                if (t != want_t || p != want_p)
                    ++failures[i];
            }
        });
    }
    for (auto &t : clients)
        t.join();
    for (std::size_t i = 0; i < kClients; ++i)
        EXPECT_EQ(failures[i], 0) << "client " << i;
    EXPECT_EQ(broker.queryCount(),
              kIters * (5 * kClients + (0 + 1 + 2 + 3)));
}

/** One kernel's query + the dense config list the governor scores. */
struct QueryFixture
{
    ml::PredictionQuery query;
    std::vector<hw::HwConfig> configs;
};

QueryFixture
sampleQuery(std::uint64_t seed, std::size_t num_configs = 32)
{
    const kernel::GroundTruthModel model{hw::ApuParams::defaults()};
    const auto k = workload::trainingCorpus(1, seed)[0];
    const hw::ConfigSpace space;
    QueryFixture out;
    const auto c0 = hw::ConfigSpace::maxPerformance();
    const auto est = model.estimate(k, c0);
    out.query.counters = model.counters(k, c0, est);
    out.query.instructions = k.instructions();
    for (std::size_t i = 0; i < num_configs; ++i)
        out.configs.push_back(space.at((i * 29) % space.size()));
    return out;
}

TEST(SessionPredictor, BitIdenticalToWrappedPredictor)
{
    auto rf = tinyRf();
    const auto fx = sampleQuery(0xaaa);
    std::vector<ml::Prediction> want(fx.configs.size());
    rf->predictBatch(fx.query, fx.configs, want);

    SessionPredictor sp(rf, /*broker=*/nullptr, hw::paperApu());
    ASSERT_TRUE(sp.accelerated());
    for (int pass = 0; pass < 2; ++pass) { // miss pass, then memo pass
        std::vector<ml::Prediction> got(fx.configs.size());
        sp.predictBatch(fx.query, fx.configs, got);
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].time, want[i].time)
                << "pass " << pass << " config " << i;
            EXPECT_EQ(got[i].gpuPower, want[i].gpuPower)
                << "pass " << pass << " config " << i;
        }
    }
    EXPECT_EQ(sp.cachedKernels(), 1u);

    // Scalar predict() serves from the same memo.
    const auto one = sp.predict(fx.query, fx.configs[3]);
    EXPECT_EQ(one.time, want[3].time);
    EXPECT_EQ(one.gpuPower, want[3].gpuPower);
}

TEST(SessionPredictor, SecondPassIsServedFromTheCache)
{
    auto rf = tinyRf();
    telemetry::Registry reg;
    SessionPredictor sp(rf, nullptr, hw::paperApu(), {}, &reg);
    const auto fx = sampleQuery(0xbbb);
    std::vector<ml::Prediction> out(fx.configs.size());

    sp.predictBatch(fx.query, fx.configs, out);
    const auto after_first = reg.snapshot();
    EXPECT_EQ(after_first.counters.at("serve.cache_miss_queries"),
              fx.configs.size());
    EXPECT_EQ(after_first.counters.at("serve.cache_hit_queries"), 0u);

    sp.predictBatch(fx.query, fx.configs, out);
    const auto after_second = reg.snapshot();
    EXPECT_EQ(after_second.counters.at("serve.cache_miss_queries"),
              fx.configs.size());
    EXPECT_EQ(after_second.counters.at("serve.cache_hit_queries"),
              fx.configs.size());
}

TEST(SessionPredictor, RoutesMissesThroughTheBroker)
{
    auto rf = tinyRf();
    InferenceBroker broker(rf);
    SessionPredictor sp(rf, &broker, hw::paperApu());
    const auto fx = sampleQuery(0xccc);
    std::vector<ml::Prediction> want(fx.configs.size());
    rf->predictBatch(fx.query, fx.configs, want);

    std::vector<ml::Prediction> got(fx.configs.size());
    sp.predictBatch(fx.query, fx.configs, got);
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].time, want[i].time) << i;
        EXPECT_EQ(got[i].gpuPower, want[i].gpuPower) << i;
    }
    EXPECT_EQ(broker.queryCount(), fx.configs.size());

    // The memo pass never reaches the broker.
    sp.predictBatch(fx.query, fx.configs, got);
    EXPECT_EQ(broker.queryCount(), fx.configs.size());
}

TEST(SessionPredictor, CapZeroIsAPassthrough)
{
    auto rf = tinyRf();
    SessionPredictorOptions opts;
    opts.kernelCacheCap = 0;
    SessionPredictor sp(rf, nullptr, hw::paperApu(), opts);
    EXPECT_FALSE(sp.accelerated());

    const auto fx = sampleQuery(0xddd);
    std::vector<ml::Prediction> want(fx.configs.size());
    rf->predictBatch(fx.query, fx.configs, want);
    std::vector<ml::Prediction> got(fx.configs.size());
    sp.predictBatch(fx.query, fx.configs, got);
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].time, want[i].time) << i;
        EXPECT_EQ(got[i].gpuPower, want[i].gpuPower) << i;
    }
    EXPECT_EQ(sp.cachedKernels(), 0u);
}

TEST(SessionPredictor, NonRandomForestBaseIsAPassthrough)
{
    // Oracle-family predictors consult ground truth, so counters are
    // not a safe cache key; the decorator must not engage.
    auto gt = std::make_shared<const ml::GroundTruthPredictor>(hw::ApuParams::defaults());
    SessionPredictor sp(gt, nullptr, hw::paperApu());
    EXPECT_FALSE(sp.accelerated());
    EXPECT_EQ(sp.name(), gt->name());
}

TEST(SessionPredictor, EvictsLeastRecentlyUsedKernelAtCap)
{
    auto rf = tinyRf();
    telemetry::Registry reg;
    SessionPredictorOptions opts;
    opts.kernelCacheCap = 2;
    SessionPredictor sp(rf, nullptr, hw::paperApu(), opts, &reg);

    const auto a = sampleQuery(1), b = sampleQuery(2),
               c = sampleQuery(3);
    std::vector<ml::Prediction> out(a.configs.size());
    sp.predictBatch(a.query, a.configs, out);
    sp.predictBatch(b.query, b.configs, out);
    EXPECT_EQ(sp.cachedKernels(), 2u);
    EXPECT_EQ(sp.cacheEvictions(), 0u);

    sp.predictBatch(c.query, c.configs, out); // evicts a (LRU)
    EXPECT_EQ(sp.cachedKernels(), 2u);
    EXPECT_EQ(sp.cacheEvictions(), 1u);
    EXPECT_EQ(reg.snapshot().counters.at("serve.kernel_evictions"), 1u);

    // b and c stay warm; re-querying them evicts nothing further.
    sp.predictBatch(b.query, b.configs, out);
    sp.predictBatch(c.query, c.configs, out);
    EXPECT_EQ(sp.cacheEvictions(), 1u);

    // a was evicted: touching it again displaces the colder of b/c.
    sp.predictBatch(a.query, a.configs, out);
    EXPECT_EQ(sp.cacheEvictions(), 2u);
}

TEST(SessionPredictor, ClearCacheDropsEveryEntry)
{
    auto rf = tinyRf();
    SessionPredictor sp(rf, nullptr, hw::paperApu());
    const auto fx = sampleQuery(0xeee);
    std::vector<ml::Prediction> out(fx.configs.size());
    sp.predictBatch(fx.query, fx.configs, out);
    EXPECT_EQ(sp.cachedKernels(), 1u);
    sp.clearCache();
    EXPECT_EQ(sp.cachedKernels(), 0u);
}

/** Counter value, 0 when the counter was never created. */
std::uint64_t
counter(const telemetry::Registry &reg, const char *name)
{
    const auto snap = reg.snapshot();
    const auto it = snap.counters.find(name);
    return it != snap.counters.end() ? it->second : 0;
}

void
expectSameBits(const std::vector<ml::Prediction> &got,
               const std::vector<ml::Prediction> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].time, want[i].time) << "config " << i;
        EXPECT_EQ(got[i].gpuPower, want[i].gpuPower) << "config " << i;
    }
}

TEST(PredictionTable, SecondSessionOnTheSameKernelWalksNoRows)
{
    auto rf = tinyRf();
    InferenceBroker broker(rf);
    ml::PredictionTable table;
    telemetry::Registry reg;
    SessionPredictor first(rf, &broker, hw::paperApu(), {}, &reg,
                           nullptr, &table);
    SessionPredictor second(rf, &broker, hw::paperApu(), {}, &reg,
                            nullptr, &table);
    const auto fx = sampleQuery(0x5a5);
    std::vector<ml::Prediction> want(fx.configs.size());
    rf->predictBatch(fx.query, fx.configs, want);

    std::vector<ml::Prediction> got(fx.configs.size());
    first.predictBatch(fx.query, fx.configs, got);
    expectSameBits(got, want);
    EXPECT_EQ(broker.queryCount(), fx.configs.size());

    // Another tenant on the same kernel is served from the table.
    second.predictBatch(fx.query, fx.configs, got);
    expectSameBits(got, want);
    EXPECT_EQ(broker.queryCount(), fx.configs.size());
    EXPECT_EQ(counter(reg, "serve.cache_miss_queries"), fx.configs.size());
    EXPECT_EQ(counter(reg, "serve.cache_hit_queries"), fx.configs.size());
    EXPECT_EQ(second.cachedKernels(), 1u);
    EXPECT_EQ(table.liveEntries(), 1u);
}

TEST(PredictionTable, DifferentHardwareModelsNeverShareValues)
{
    auto rf = tinyRf();
    ml::PredictionTable table;
    const auto fx = sampleQuery(0x6b6);
    // An equal-parameter copy is still another model: identity is the
    // model object, not its name or parameters.
    const std::vector<hw::HardwareModelPtr> models = {
        hw::paperApu(), hw::HardwareCatalog::instance().get("eco-apu"),
        hw::makeModel("paper-copy", hw::ApuParams::defaults())};

    // Every session stays resident, so each model's entry is live
    // while the next model looks its kernel up.
    std::vector<std::unique_ptr<SessionPredictor>> sessions;
    for (const auto &model : models) {
        telemetry::Registry reg;
        sessions.push_back(std::make_unique<SessionPredictor>(
            rf, nullptr, model, SessionPredictorOptions{}, &reg, nullptr,
            &table));
        SessionPredictor alone(rf, nullptr, model);
        std::vector<ml::Prediction> got(fx.configs.size()),
            want(fx.configs.size());
        sessions.back()->predictBatch(fx.query, fx.configs, got);
        alone.predictBatch(fx.query, fx.configs, want);
        expectSameBits(got, want);
        EXPECT_EQ(counter(reg, "serve.cache_miss_queries"),
                  fx.configs.size())
            << model->name() << " was served another model's values";
    }
    EXPECT_EQ(table.liveEntries(), models.size());
}

TEST(PredictionTable, HotSwapNeverServesOutgoingGenerationValues)
{
    auto gen0 = tinyRf();
    auto gen1 = tinyRf(0x5eed);
    const auto fx = sampleQuery(0x7c7);
    std::vector<ml::Prediction> want0(fx.configs.size()),
        want1(fx.configs.size());
    gen0->predictBatch(fx.query, fx.configs, want0);
    gen1->predictBatch(fx.query, fx.configs, want1);
    bool differs = false;
    for (std::size_t i = 0; i < want0.size(); ++i)
        differs = differs || want0[i].time != want1[i].time;
    ASSERT_TRUE(differs) << "the generations must predict differently";

    for (const bool brokered : {false, true}) {
        SCOPED_TRACE(brokered ? "brokered" : "direct");
        online::ForestHandle handle(gen0);
        InferenceBroker broker(handle);
        InferenceBroker *b = brokered ? &broker : nullptr;
        ml::PredictionTable table;
        SessionPredictor early(gen0, b, hw::paperApu(), {}, nullptr,
                               &handle, &table);
        SessionPredictor late(gen0, b, hw::paperApu(), {}, nullptr,
                              &handle, &table);
        std::vector<ml::Prediction> got(fx.configs.size());
        early.predictBatch(fx.query, fx.configs, got);
        expectSameBits(got, want0);
        handle.publish(gen1);

        // Neither a session holding the outgoing entry nor a new one
        // may see the outgoing generation's values.
        late.predictBatch(fx.query, fx.configs, got);
        expectSameBits(got, want1);
        early.predictBatch(fx.query, fx.configs, got);
        expectSameBits(got, want1);
        // Both handles moved; the outgoing entry died with them.
        EXPECT_EQ(table.liveEntries(), 1u);
    }
}

TEST(PredictionTable, TwoServersOnOnePredictorKeepSeparateTables)
{
    auto rf = tinyRf();
    FleetServer one(rf), two(rf);
    EXPECT_NE(&one.predictionTable(), &two.predictionTable());

    const auto play = [](FleetServer &server) {
        SessionOptions opts;
        opts.optimizedRuns = 1;
        const auto id = server.createSession(
            workload::randomApplication(0x42, 4), opts);
        Session *s = server.sessions().checkout(id);
        while (!s->finished())
            s->step();
        server.sessions().checkin(id);
        return counter(server.telemetry(), "serve.cache_miss_queries");
    };
    const auto misses = play(one);
    ASSERT_GT(misses, 0u);
    // The same tenant on the second server walks the same rows again.
    EXPECT_EQ(play(two), misses);
}

TEST(PredictionTable, EntryIsFreedWhenItsLastSessionIsEvicted)
{
    auto rf = tinyRf();
    ml::PredictionTable table;
    SessionManager mgr(rf, nullptr, {}, hw::paperApu(), nullptr, nullptr,
                       nullptr, &table);
    SessionOptions opts;
    opts.optimizedRuns = 1;
    const auto app = workload::randomApplication(0x43, 4);
    const auto a = mgr.create(app, opts);
    const auto b = mgr.create(app, opts);
    for (const auto id : {a, b}) {
        Session *s = mgr.checkout(id);
        while (!s->finished())
            s->step();
        mgr.checkin(id);
    }
    const std::size_t live = table.liveEntries();
    ASSERT_GT(live, 0u);
    Session *sb = mgr.checkout(b);
    EXPECT_EQ(sb->predictor().cachedKernels(), live);
    mgr.checkin(b);

    // b runs the same app, so it still holds every entry a held.
    ASSERT_TRUE(mgr.evict(a));
    EXPECT_EQ(table.liveEntries(), live);
    ASSERT_TRUE(mgr.evict(b));
    EXPECT_EQ(table.liveEntries(), 0u);
}

TEST(PredictionTable, CapZeroStaysAPassthrough)
{
    auto rf = tinyRf();
    InferenceBroker broker(rf);
    ml::PredictionTable table;
    SessionPredictorOptions opts;
    opts.kernelCacheCap = 0;
    SessionPredictor sp(rf, &broker, hw::paperApu(), opts, nullptr,
                        nullptr, &table);
    const auto fx = sampleQuery(0x8d8);
    std::vector<ml::Prediction> want(fx.configs.size());
    rf->predictBatch(fx.query, fx.configs, want);
    std::vector<ml::Prediction> got(fx.configs.size());
    for (int pass = 0; pass < 2; ++pass) {
        sp.predictBatch(fx.query, fx.configs, got);
        expectSameBits(got, want);
    }
    EXPECT_EQ(sp.cachedKernels(), 0u);
    EXPECT_EQ(table.liveEntries(), 0u);
    EXPECT_EQ(broker.queryCount(), 0u);
}

TEST(PredictionTable, ConcurrentCrossShardFillAndHit)
{
    // Sessions of two shards (one broker each) share one table. Every
    // thread re-fills and re-reads the same few kernels in its own
    // order; a cap of 2 keeps handles churning through acquire and
    // release. Every value must match the forests bit for bit, and
    // TSan must see no race on an entry's slots.
    constexpr std::size_t kThreads = 4;
    constexpr int kIters = 40;
    auto rf = tinyRf();
    InferenceBroker shard0(rf), shard1(rf);
    ml::PredictionTable table;
    std::vector<QueryFixture> kernels;
    std::vector<std::vector<ml::Prediction>> want;
    for (std::uint64_t k = 0; k < 3; ++k) {
        kernels.push_back(sampleQuery(0x900 + k, 48));
        want.emplace_back(kernels.back().configs.size());
        rf->predictBatch(kernels.back().query, kernels.back().configs,
                         want.back());
    }

    Barrier start(kThreads);
    std::vector<int> failures(kThreads, 0);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            InferenceBroker &broker = t % 2 ? shard1 : shard0;
            SessionPredictorOptions opts;
            opts.kernelCacheCap = 2;
            SessionPredictor sp(rf, &broker, hw::paperApu(), opts,
                                nullptr, nullptr, &table);
            start.arriveAndWait();
            for (int i = 0; i < kIters; ++i) {
                const std::size_t k = (t + static_cast<std::size_t>(i)) % 3;
                // A thread-specific window of the configs: partial
                // overlaps make some slots hits and some fresh fills.
                const std::size_t n = kernels[k].configs.size();
                const std::size_t lo = (t * 7 + static_cast<std::size_t>(i) * 5) % (n / 2);
                const std::span<const hw::HwConfig> cs(
                    kernels[k].configs.data() + lo, n / 2);
                std::vector<ml::Prediction> got(cs.size());
                InferenceBroker::DecisionScope scope(broker);
                sp.predictBatch(kernels[k].query, cs, got);
                for (std::size_t j = 0; j < got.size(); ++j) {
                    if (got[j].time != want[k][lo + j].time ||
                        got[j].gpuPower != want[k][lo + j].gpuPower)
                        ++failures[t];
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();
    for (std::size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(failures[t], 0) << "thread " << t;
    EXPECT_EQ(table.liveEntries(), 0u);
}

} // namespace
} // namespace gpupm::serve
