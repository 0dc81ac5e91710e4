/**
 * @file
 * Heap accounting for the governor's steady state: once warm, an
 * untraced MPC decide() + observe() on the Random Forest predictor must
 * not allocate. This executable replaces the global operator new and
 * counts the allocations the test thread makes inside a counting scope;
 * everything else (training, simulation, gtest) allocates freely.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "ml/trainer.hpp"
#include "mpc/governor.hpp"
#include "policy/turbo_core.hpp"
#include "sim/simulator.hpp"
#include "workload/benchmarks.hpp"

namespace {

/** Set around the measured calls; only this thread's calls count. */
thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;

/** malloc, or aligned_alloc for an over-aligned @p align; null on failure. */
void *
tryAllocate(std::size_t n, std::size_t align) noexcept
{
    if (t_counting)
        ++t_allocations;
    if (n == 0)
        n = 1;
    if (align <= alignof(std::max_align_t))
        return std::malloc(n);
    return std::aligned_alloc(align, (n + align - 1) / align * align);
}

void *
allocate(std::size_t n, std::size_t align)
{
    if (void *p = tryAllocate(n, align))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every replaceable form is replaced, so no block allocated here is
// released by a sanitizer's own operator delete or vice versa.
void *
operator new(std::size_t n)
{
    return allocate(n, 0);
}

void *
operator new[](std::size_t n)
{
    return allocate(n, 0);
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    return allocate(n, static_cast<std::size_t>(a));
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return allocate(n, static_cast<std::size_t>(a));
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return tryAllocate(n, 0);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return tryAllocate(n, 0);
}

void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    return tryAllocate(n, static_cast<std::size_t>(a));
}

void *
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    return tryAllocate(n, static_cast<std::size_t>(a));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace gpupm::mpc {
namespace {

/** Forwards to the governor, keeping the observations of each run. */
class Recorder : public sim::Governor
{
  public:
    explicit Recorder(sim::Governor &inner) : _inner(inner) {}

    std::string name() const override { return _inner.name(); }

    void
    beginRun(const std::string &app, Throughput target) override
    {
        observations.clear();
        _inner.beginRun(app, target);
    }

    sim::Decision decide(std::size_t i) override { return _inner.decide(i); }

    void
    observe(const sim::Observation &obs) override
    {
        observations.push_back(obs);
        _inner.observe(obs);
    }

    std::vector<sim::Observation> observations;

  private:
    sim::Governor &_inner;
};

TEST(DecisionAllocation, WarmUntracedMpcDecisionAllocatesNothing)
{
    ml::TrainerOptions opts;
    opts.corpusSize = 6;
    opts.configStride = 8;
    opts.forest.numTrees = 8;
    std::shared_ptr<const ml::PerfPowerPredictor> rf =
        ml::trainRandomForestPredictor(opts);

    const auto app = workload::makeBenchmark("Spmv");
    sim::Simulator sim{hw::paperApu()};
    policy::TurboCoreGovernor turbo{hw::paperApu()};
    const Throughput target = sim.run(app, turbo).throughput();

    MpcGovernor gov(rf, {}, hw::paperApu());
    Recorder recorder(gov);
    sim.run(app, recorder, target); // profiling (PPK) run
    sim.run(app, recorder, target); // first optimized run
    ASSERT_FALSE(gov.profiling());
    const auto observations = recorder.observations;
    ASSERT_FALSE(observations.empty());

    // Replaying one run's observations makes every later replay ask
    // for the same (kernel, counters) keys, so after the warm-up
    // replays each one has been scored and the measured replay is the
    // steady state the governor reaches on a relaunching application.
    std::size_t allocations = 0;
    std::size_t windowed = 0;
    for (int replay = 0; replay < 3; ++replay) {
        const bool measured = replay == 2;
        gov.beginRun(app.name, target);
        t_allocations = 0;
        for (const auto &obs : observations) {
            t_counting = measured;
            gov.decide(obs.index);
            gov.observe(obs);
            t_counting = false;
            windowed += measured && gov.lastDecision().tag == 'W';
        }
        allocations = t_allocations;
    }
    EXPECT_EQ(allocations, 0u);
    // The measured run went through the hill climb, not only the
    // zero-evaluation budget path.
    EXPECT_GT(windowed, 0u);
    EXPECT_GT(gov.runStats().uniqueEvaluations, 0u);
}

} // namespace
} // namespace gpupm::mpc
