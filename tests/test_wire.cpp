/**
 * @file
 * Wire-protocol unit tests: every message type round-trips exactly
 * (including IEEE-754 bit patterns), the frame reader reassembles
 * frames from arbitrary fragmentation, and malformed input is rejected
 * without ever reading out of bounds.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "serve/wire.hpp"

namespace gpupm::serve::wire {
namespace {

/** Strip the length+type envelope, returning just the payload. */
std::vector<std::uint8_t>
payloadOf(const std::vector<std::uint8_t> &frame, MsgType expect)
{
    EXPECT_GE(frame.size(), 5u);
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(frame[static_cast<
                   std::size_t>(i)])
               << (8 * i);
    EXPECT_EQ(frame.size(), 4u + len);
    EXPECT_EQ(frame[4], static_cast<std::uint8_t>(expect));
    return {frame.begin() + 5, frame.end()};
}

TEST(Wire, OpenRoundTripsIncludingBenchName)
{
    OpenMsg m;
    m.tenant = 0x1122334455667788ULL;
    m.optimizedRuns = 7;
    m.kernelCacheCap = 0;
    m.bench = "mandelbulbGPU";
    std::vector<std::uint8_t> buf;
    encodeOpen(buf, m);
    const auto got = decodeOpen(payloadOf(buf, MsgType::Open));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->tenant, m.tenant);
    EXPECT_EQ(got->optimizedRuns, m.optimizedRuns);
    EXPECT_EQ(got->kernelCacheCap, m.kernelCacheCap);
    EXPECT_EQ(got->bench, m.bench);
}

TEST(Wire, OpenV2RoundTripsModelAndQos)
{
    OpenMsg m;
    m.tenant = 11;
    m.optimizedRuns = 3;
    m.kernelCacheCap = 8;
    m.bench = "color";
    m.hwModel = "eco-apu";
    m.qosKind = WireQosKind::Deadline;
    m.qosValue = 1.25;
    std::vector<std::uint8_t> buf;
    encodeOpen(buf, m);
    const auto got = decodeOpen(payloadOf(buf, MsgType::Open));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->version, kWireVersion);
    EXPECT_EQ(got->hwModel, "eco-apu");
    EXPECT_EQ(got->qosKind, WireQosKind::Deadline);
    EXPECT_EQ(got->qosValue, 1.25);
}

TEST(Wire, OpenV1FrameDecodesWithDefaults)
{
    // A legacy peer sends no tail after the bench name; the decoder
    // must accept the frame and report catalog-default model/QoS.
    OpenMsg m;
    m.tenant = 4;
    m.bench = "mis";
    m.version = 1; // emit the legacy layout
    m.hwModel = "ignored-on-v1";
    std::vector<std::uint8_t> buf;
    encodeOpen(buf, m);
    const auto got = decodeOpen(payloadOf(buf, MsgType::Open));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->version, 1);
    EXPECT_TRUE(got->hwModel.empty());
    EXPECT_EQ(got->qosKind, WireQosKind::UniformAlpha);
    EXPECT_EQ(got->qosValue, 0.0);
}

TEST(Wire, OpenRejectsTruncatedOrMalformedV2Tail)
{
    OpenMsg m;
    m.tenant = 9;
    m.bench = "spmv";
    m.hwModel = "perf-apu";
    m.qosKind = WireQosKind::Deadline;
    m.qosValue = 2.0;
    std::vector<std::uint8_t> buf;
    encodeOpen(buf, m);
    const auto payload = payloadOf(buf, MsgType::Open);
    ASSERT_TRUE(decodeOpen(payload).has_value());

    // The tail is version(1) + len(2) + model(8) + kind(1) + f64(8) =
    // 20 bytes; every cut inside it must reject, never fall back to
    // defaults (a half-sent tail is a protocol error, not a v1 frame).
    for (std::size_t cut = 1; cut < 20; ++cut) {
        std::vector<std::uint8_t> shorter(
            payload.begin(),
            payload.end() - static_cast<std::ptrdiff_t>(cut));
        EXPECT_FALSE(decodeOpen(shorter).has_value()) << "cut=" << cut;
    }

    auto padded = payload;
    padded.push_back(0); // trailing garbage
    EXPECT_FALSE(decodeOpen(padded).has_value());

    auto future = payload;
    future[payload.size() - 20] = 3; // unknown version byte
    EXPECT_FALSE(decodeOpen(future).has_value());

    auto bad_kind = payload;
    bad_kind[payload.size() - 9] = 7; // out-of-range QoS kind
    EXPECT_FALSE(decodeOpen(bad_kind).has_value());
}

TEST(Wire, OpenedAndStepRoundTrip)
{
    std::vector<std::uint8_t> buf;
    encodeOpened(buf, {42, 1000001, 96});
    const auto opened = decodeOpened(payloadOf(buf, MsgType::Opened));
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(opened->tenant, 42u);
    EXPECT_EQ(opened->session, 1000001u);
    EXPECT_EQ(opened->totalDecisions, 96u);

    buf.clear();
    encodeStep(buf, {1000001});
    const auto step = decodeStep(payloadOf(buf, MsgType::Step));
    ASSERT_TRUE(step.has_value());
    EXPECT_EQ(step->session, 1000001u);
}

TEST(Wire, DecisionRoundTripsFloatBitsExactly)
{
    DecisionMsg m;
    m.session = 9;
    m.run = 2;
    m.index = 31;
    m.configIndex = 167;
    m.kernelTag = 'S';
    m.degraded = 1;
    // Hostile doubles: denormal, negative zero, huge, and a specific
    // NaN payload - the wire must carry the exact bit pattern.
    m.kernelTime = std::numeric_limits<double>::denorm_min();
    m.overheadTime = -0.0;
    m.cpuEnergy = 1.7976931348623157e308;
    m.gpuEnergy = std::numeric_limits<double>::quiet_NaN();
    m.evaluations = 84;
    std::vector<std::uint8_t> buf;
    encodeDecision(buf, m);
    const auto got = decodeDecision(payloadOf(buf, MsgType::Decision));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->session, m.session);
    EXPECT_EQ(got->run, m.run);
    EXPECT_EQ(got->index, m.index);
    EXPECT_EQ(got->configIndex, m.configIndex);
    EXPECT_EQ(got->kernelTag, m.kernelTag);
    EXPECT_EQ(got->degraded, m.degraded);
    const auto bits = [](double v) {
        std::uint64_t u;
        std::memcpy(&u, &v, sizeof(u));
        return u;
    };
    EXPECT_EQ(bits(got->kernelTime), bits(m.kernelTime));
    EXPECT_EQ(bits(got->overheadTime), bits(m.overheadTime));
    EXPECT_EQ(bits(got->cpuEnergy), bits(m.cpuEnergy));
    EXPECT_EQ(bits(got->gpuEnergy), bits(m.gpuEnergy));
    EXPECT_EQ(got->evaluations, m.evaluations);
}

TEST(Wire, RejectValidatesReasonRange)
{
    std::vector<std::uint8_t> buf;
    encodeReject(buf, {5, RejectReason::Finished});
    auto payload = payloadOf(buf, MsgType::Reject);
    const auto got = decodeReject(payload);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->session, 5u);
    EXPECT_EQ(got->reason, RejectReason::Finished);

    payload.back() = 200; // out-of-range reason byte
    EXPECT_FALSE(decodeReject(payload).has_value());
}

TEST(Wire, StatsRoundTripsManyEntries)
{
    StatsMsg m;
    for (int i = 0; i < 100; ++i)
        m.entries.emplace_back("counter." + std::to_string(i),
                               static_cast<std::uint64_t>(i) << 32);
    std::vector<std::uint8_t> buf;
    encodeStats(buf, m);
    const auto got = decodeStats(payloadOf(buf, MsgType::Stats));
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->entries.size(), m.entries.size());
    EXPECT_EQ(got->entries, m.entries);
}

TEST(Wire, StatsRejectsAbsurdEntryCount)
{
    // A count claiming more entries than the payload could possibly
    // hold must fail before any allocation-sized-by-attacker happens.
    std::vector<std::uint8_t> payload = {0xff, 0xff, 0xff, 0x7f};
    EXPECT_FALSE(decodeStats(payload).has_value());
}

TEST(Wire, StatsRoundTripsPowercapFields)
{
    StatsMsg m;
    m.entries.emplace_back("powercap.violations", 7u);
    m.fleetBudgetWatts = 250.5;
    std::vector<std::uint8_t> buf;
    encodeStats(buf, m);
    const auto got = decodeStats(payloadOf(buf, MsgType::Stats));
    ASSERT_TRUE(got.has_value());
    const auto bits = [](double v) {
        std::uint64_t u = 0;
        std::memcpy(&u, &v, sizeof u);
        return u;
    };
    EXPECT_EQ(got->entries, m.entries);
    EXPECT_EQ(bits(got->fleetBudgetWatts), bits(m.fleetBudgetWatts));
}

TEST(Wire, StatsRejectsTruncatedPowercapTail)
{
    // The budget tail is part of the fixed frame layout, not an
    // optional extension: a frame cut anywhere inside it must be
    // rejected, not decoded with a zeroed budget.
    StatsMsg m;
    m.entries.emplace_back("serve.decisions", 9u);
    m.fleetBudgetWatts = 100.0;
    std::vector<std::uint8_t> buf;
    encodeStats(buf, m);
    auto payload = payloadOf(buf, MsgType::Stats);
    ASSERT_TRUE(decodeStats(payload).has_value());
    for (std::size_t cut = 1; cut <= 8; ++cut) {
        std::vector<std::uint8_t> shorter(
            payload.begin(),
            payload.end() - static_cast<std::ptrdiff_t>(cut));
        EXPECT_FALSE(decodeStats(shorter).has_value()) << "cut=" << cut;
    }
}

TEST(Wire, StatsRejectsTheOldThreeCounterTail)
{
    // Older servers appended cap violations, arbiter ticks and deadline
    // misses as three u64s after the budget. Those counters now travel
    // only as entries; a payload in the old layout must fail closed so
    // a mismatched client/server pair never misreads it.
    StatsMsg m;
    m.entries.emplace_back("powercap.violations", 3u);
    m.fleetBudgetWatts = 150.0;
    std::vector<std::uint8_t> buf;
    encodeStats(buf, m);
    auto payload = payloadOf(buf, MsgType::Stats);
    for (const std::uint64_t old_field : {3ull, 1ull, 0ull})
        for (int byte = 0; byte < 8; ++byte)
            payload.push_back(
                static_cast<std::uint8_t>(old_field >> (8 * byte)));
    EXPECT_FALSE(decodeStats(payload).has_value());
}

TEST(Wire, ErrorRoundTrips)
{
    std::vector<std::uint8_t> buf;
    encodeError(buf, {"corrupt frame stream"});
    const auto got = decodeError(payloadOf(buf, MsgType::Error));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->message, "corrupt frame stream");
}

TEST(Wire, DecodeRejectsTruncatedAndOversizedPayloads)
{
    std::vector<std::uint8_t> buf;
    encodeStep(buf, {77});
    auto payload = payloadOf(buf, MsgType::Step);

    auto truncated = payload;
    truncated.pop_back();
    EXPECT_FALSE(decodeStep(truncated).has_value());

    auto padded = payload;
    padded.push_back(0); // trailing garbage must be rejected too
    EXPECT_FALSE(decodeStep(padded).has_value());
}

TEST(Wire, FrameReaderReassemblesByteByByte)
{
    std::vector<std::uint8_t> stream;
    encodeStep(stream, {1});
    encodeOpened(stream, {2, 3, 4});
    encodeStatsReq(stream);

    FrameReader reader;
    std::vector<Frame> frames;
    for (std::uint8_t b : stream) {
        reader.append(&b, 1);
        while (auto f = reader.next())
            frames.push_back(std::move(*f));
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].type, MsgType::Step);
    EXPECT_EQ(frames[1].type, MsgType::Opened);
    EXPECT_EQ(frames[2].type, MsgType::StatsReq);
    EXPECT_TRUE(frames[2].payload.empty());
    EXPECT_EQ(reader.buffered(), 0u);
    EXPECT_FALSE(reader.corrupt());

    const auto step = decodeStep(frames[0].payload);
    ASSERT_TRUE(step.has_value());
    EXPECT_EQ(step->session, 1u);
}

TEST(Wire, FrameReaderHandlesManyFramesInOneAppend)
{
    std::vector<std::uint8_t> stream;
    constexpr std::size_t kFrames = 1000;
    for (std::size_t i = 0; i < kFrames; ++i)
        encodeStep(stream, {i});
    FrameReader reader;
    reader.append(stream.data(), stream.size());
    std::size_t n = 0;
    while (auto f = reader.next()) {
        const auto step = decodeStep(f->payload);
        ASSERT_TRUE(step.has_value());
        EXPECT_EQ(step->session, n);
        ++n;
    }
    EXPECT_EQ(n, kFrames);
}

TEST(Wire, FrameReaderFlagsImpossibleLengths)
{
    // Length zero cannot even hold the type byte.
    const std::uint8_t zero[5] = {0, 0, 0, 0, 1};
    FrameReader r1;
    r1.append(zero, sizeof(zero));
    EXPECT_FALSE(r1.next().has_value());
    EXPECT_TRUE(r1.corrupt());

    // Length beyond the frame cap is corrupt, not a huge allocation.
    const std::uint8_t huge[5] = {0xff, 0xff, 0xff, 0xff, 1};
    FrameReader r2;
    r2.append(huge, sizeof(huge));
    EXPECT_FALSE(r2.next().has_value());
    EXPECT_TRUE(r2.corrupt());

    // Corrupt is sticky: further appends and reads yield nothing.
    std::vector<std::uint8_t> good;
    encodeStep(good, {1});
    r2.append(good.data(), good.size());
    EXPECT_FALSE(r2.next().has_value());
}

TEST(Wire, FrameReaderCompactsConsumedBytes)
{
    // Enough traffic to cross the lazy-compaction threshold; buffered()
    // must drop back to zero once everything is consumed.
    FrameReader reader;
    std::vector<std::uint8_t> frame;
    encodeError(frame, {std::string(1024, 'x')});
    for (int round = 0; round < 64; ++round) {
        reader.append(frame.data(), frame.size());
        ASSERT_TRUE(reader.next().has_value());
    }
    EXPECT_EQ(reader.buffered(), 0u);
}

} // namespace
} // namespace gpupm::serve::wire
