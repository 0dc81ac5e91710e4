/**
 * @file
 * Self-test of the benchmark's own arithmetic: percentiles and the
 * ten-beyond rule, medians across windows, self time from nested
 * spans, open-loop latency from due times on a synthetic schedule, the
 * retry rule, and the check that a run reports exactly the manifest's
 * metrics. run.py runs it after every build; any failure stops
 * the benchmark.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "report.hpp"
#include "spans.hpp"

using namespace perfbench;
using gpupm::trace::SpanEvent;

namespace {

int failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__,   \
                         __LINE__, #cond);                                 \
            ++failures;                                                    \
        }                                                                  \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
percentilesAndTenBeyond()
{
    std::vector<double> ramp;
    for (int i = 1000; i >= 1; --i)
        ramp.push_back(i);
    const LatencySummary s = summarize(ramp);
    CHECK(s.count == 1000);
    CHECK(near(s.p50, 500.5));
    // Rank 0.99 * 999 = 989.01 between 990 and 991.
    CHECK(near(s.p99, 990.01));
    CHECK(s.beyondP99 == 10);

    std::vector<double> short_;
    for (int i = 1; i <= 900; ++i)
        short_.push_back(i);
    const LatencySummary t = summarize(short_);
    CHECK(t.beyondP99 == 9);

    // Ties at the top still leave ten samples ranked beyond the p99.
    std::vector<double> flat(1000, 7.0);
    CHECK(summarize(flat).beyondP99 == 10);

    std::vector<double> empty;
    CHECK(summarize(empty).count == 0);
    CHECK(near(median({3.0, 1.0, 2.0}), 2.0));
    CHECK(near(median({4.0, 1.0, 3.0, 2.0}), 2.5));
    CHECK(near(mean({1.0, 2.0, 6.0}), 3.0));
}

void
windowedMedians()
{
    // Three windows of 1000 steps; the third is a host stall that adds
    // 1 s to every step. Medians across windows ignore it.
    std::vector<std::vector<double>> windows(3);
    for (int i = 1; i <= 1000; ++i) {
        windows[0].push_back(i);
        windows[1].push_back(2.0 * i);
        windows[2].push_back(1e6 + i);
    }
    const WindowedSummary s = summarizeWindows(windows, {10.0, 30.0, 20.0});
    CHECK(s.windows == 3);
    CHECK(s.samples == 3000);
    CHECK(near(s.p50, 1001.0));
    CHECK(near(s.p99, 1980.02));
    CHECK(near(s.rate, 20.0));
    CHECK(s.minBeyondP99 == 10);
    CHECK(s.tailSupported());

    // One window too short for a p99 fails the ten-beyond rule.
    std::vector<std::vector<double>> uneven(2);
    for (int i = 1; i <= 1000; ++i)
        uneven[0].push_back(i);
    for (int i = 1; i <= 900; ++i)
        uneven[1].push_back(i);
    CHECK(!summarizeWindows(uneven, {1.0, 1.0}).tailSupported());
}

SpanEvent
span(const char *name, std::uint32_t tid, std::uint64_t start,
     std::uint64_t dur)
{
    SpanEvent e;
    e.name = name;
    e.tid = tid;
    e.startNs = start;
    e.durNs = dur;
    return e;
}

void
selfTimeFromNestedSpans()
{
    // Thread 1: A[0,100) holds B[10,40) (which holds C[20,30)) and
    // D[50,90). The wait W overlaps everything but is not nested.
    // Thread 2: E[0,50) overlaps A in time only.
    const std::vector<SpanEvent> events = {
        span("C", 1, 20, 10), span("A", 1, 0, 100), span("W", 1, 0, 200),
        span("D", 1, 50, 40), span("B", 1, 10, 30), span("E", 2, 0, 50),
    };
    const auto nested = nestSpans(events, {"W"});
    CHECK(nested[1].selfNs == 30); // A: 100 - B 30 - D 40
    CHECK(nested[4].selfNs == 20); // B: 30 - C 10
    CHECK(nested[0].selfNs == 10); // C
    CHECK(nested[3].selfNs == 40); // D
    CHECK(nested[5].selfNs == 50); // E, other thread
    CHECK(nested[2].selfNs == 200); // W, a wait
    CHECK(nested[0].parent == 4);
    CHECK(nested[4].parent == 1);
    CHECK(nested[3].parent == 1);
    CHECK(nested[1].parent == -1);
    CHECK(nested[2].parent == -1);
    CHECK(nested[5].parent == -1);

    // Equal starts: the longer span encloses the shorter one.
    const std::vector<SpanEvent> same = {span("in", 1, 5, 10),
                                         span("out", 1, 5, 30)};
    const auto n2 = nestSpans(same);
    CHECK(n2[0].parent == 1);
    CHECK(n2[1].selfNs == 20);

    // A child ending past its parent only covers the overlap.
    const std::vector<SpanEvent> ragged = {span("p", 1, 0, 10),
                                           span("c", 1, 6, 10)};
    CHECK(nestSpans(ragged)[0].selfNs == 6);

    SpanTable table;
    addToTable(table, events, nested);
    CHECK(lookup(table, "A").count == 1);
    CHECK(near(lookup(table, "B").selfNs, 20.0));
    CHECK(lookup(table, "missing").count == 0);
}

void
openLoopLatencyFromDueTime()
{
    // Steps due every 1 ms from t = 0. The server stalls the first
    // step until t = 5 ms, then answers each step 0.1 ms after it is
    // sent. Step k may only go out once step k-1 is answered.
    OpenLoopTenant t(0.0, 1.0);
    double now = 0.0;
    std::vector<double> fromDue;
    std::vector<double> late;
    for (int k = 0; k < 8; ++k) {
        now = std::max(now, t.nextDue());
        CHECK(t.ready(now));
        late.push_back(t.onSend(now));
        CHECK(!t.ready(now));
        now = k == 0 ? 5.0 : now + 0.1;
        fromDue.push_back(t.onReply(now));
    }
    const double expected[8] = {5.0, 4.1, 3.2, 2.3, 1.4, 0.5, 0.1, 0.1};
    for (int k = 0; k < 8; ++k)
        CHECK(std::fabs(fromDue[k] - expected[k]) < 1e-9);
    // The generator ran 4 ms late on step 1, on time from step 6.
    CHECK(std::fabs(late[1] - 4.0) < 1e-9);
    CHECK(std::fabs(late[6]) < 1e-9);

    // Not ready before the next due time.
    OpenLoopTenant u(0.5, 2.0);
    CHECK(!u.ready(0.4));
    CHECK(u.ready(0.5));
}

void
retryKeepsTheFirstSend()
{
    StepClock c;
    c.begin(1.0);
    c.begin(2.0); // Rejected, sent again.
    CHECK(c.pending());
    CHECK(near(c.finish(3.5), 2.5));
    CHECK(!c.pending());
    c.begin(4.0);
    CHECK(near(c.finish(4.25), 0.25));
}

void
overheadDirection()
{
    CHECK(near(overheadPct(100.0, 110.0, true), 10.0));
    CHECK(near(overheadPct(100.0, 90.0, false), 10.0));
    CHECK(near(overheadPct(100.0, 95.0, true), -5.0));
    CHECK(near(overheadPct(0.0, 5.0, true), 0.0));
}

void
manifestCheck()
{
    const std::vector<MetricSpec> want = {{"a_s", "s"}, {"b", "count"}};

    Report exact;
    exact.add("b", 1.0, "count");
    exact.add("a_s", 0.5, "s");
    exact.expectExactly(want);
    CHECK(exact.correct());

    Report missing;
    missing.add("a_s", 0.5, "s");
    missing.expectExactly(want);
    CHECK(!missing.correct());

    Report extra;
    extra.add("a_s", 0.5, "s");
    extra.add("b", 1.0, "count");
    extra.add("c", 1.0, "count");
    extra.expectExactly(want);
    CHECK(!extra.correct());

    Report wrongUnit;
    wrongUnit.add("a_s", 500.0, "ms");
    wrongUnit.add("b", 1.0, "count");
    wrongUnit.expectExactly(want);
    CHECK(!wrongUnit.correct());

    Report twice;
    twice.add("a_s", 0.5, "s");
    twice.add("a_s", 0.6, "s");
    twice.add("b", 1.0, "count");
    twice.expectExactly(want);
    CHECK(!twice.correct());
}

} // namespace

int
main()
{
    percentilesAndTenBeyond();
    windowedMedians();
    selfTimeFromNestedSpans();
    openLoopLatencyFromDueTime();
    retryKeepsTheFirstSend();
    overheadDirection();
    manifestCheck();
    if (failures != 0) {
        std::fprintf(stderr, "perfbench self-test: %d failures\n",
                     failures);
        return 1;
    }
    std::fprintf(stderr, "perfbench self-test: OK\n");
    return 0;
}
