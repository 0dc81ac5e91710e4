/**
 * @file
 * Binary wire protocol for the fleet decision server.
 *
 * Frames are length-prefixed: a little-endian u32 byte count covering
 * everything after itself, then a u8 message type, then the typed
 * payload. All integers are little-endian regardless of host order
 * and all doubles travel as the IEEE-754 bit pattern in a u64, so a
 * decision stream round-trips bit-exactly - the wire never perturbs
 * the determinism contract (gpupm-client --verify leans on this).
 *
 * The protocol is deliberately small - a session-open handshake, a
 * step request, its decision reply, explicit rejections with typed
 * reasons (the visible face of load shedding), and a counters
 * snapshot:
 *
 *   client -> server   Open(tenant, optimizedRuns, kernelCacheCap
 *                           (ignored), bench name)
 *   server -> client   Opened(tenant, session id, totalDecisions)
 *   client -> server   Step(session)
 *   server -> client   Decision(session, run, index, config, tag,
 *                               degraded, times, energies, evals)
 *                    | Reject(session, reason)
 *   client -> server   StatsReq()
 *   server -> client   Stats(key/value counters, fleet budget watts)
 *   server -> client   Error(message)   (protocol violations; the
 *                                        server closes after sending)
 *
 * FrameReader reassembles frames from an arbitrary-sized byte stream
 * (nonblocking sockets deliver fragments); oversized or truncated-
 * length frames mark the stream corrupt, which the server answers
 * with Error + close. Parsing never throws and never reads out of
 * bounds: every decode returns nullopt on malformed payloads.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace gpupm::serve::wire {

enum class MsgType : std::uint8_t
{
    Open = 1,
    Opened = 2,
    Step = 3,
    Decision = 4,
    Reject = 5,
    StatsReq = 6,
    Stats = 7,
    Error = 8,
};

/** Typed rejection causes (Reject frames). */
enum class RejectReason : std::uint8_t
{
    QueueFull = 0,      ///< Shard queue full: load shed at admission.
    Busy = 1,           ///< Session already has a step in flight.
    UnknownSession = 2, ///< Never opened or already evicted.
    Finished = 3,       ///< Session played all its runs.
    BadBench = 4,       ///< Open named an unknown benchmark.
    BadModel = 5,       ///< Open named a model absent from the catalog.
    BadQos = 6,         ///< Open carried an unusable QoS spec.
};

/**
 * Protocol version spoken by this build. Version 2 extends Open with a
 * hardware-model name and a QoS spec; every other frame is unchanged.
 * Version-1 Opens (no tail after the bench name) are still accepted and
 * resolve to the server's catalog default with uniform-slowdown QoS, so
 * old clients keep working against new servers.
 */
constexpr std::uint8_t kWireVersion = 2;

/** QoS kinds carried in a v2 Open tail (mirrors mpc::QosSpec::Kind). */
enum class WireQosKind : std::uint8_t
{
    UniformAlpha = 0, ///< qosValue = alpha; 0 keeps the server default.
    Deadline = 1,     ///< qosValue = deadline slack factor (> 0).
};

/** Upper bound on a frame's post-length bytes; larger = corrupt. */
constexpr std::size_t kMaxFrameBytes = 1u << 20;

struct Frame
{
    MsgType type = MsgType::Error;
    std::vector<std::uint8_t> payload;
};

struct OpenMsg
{
    std::uint64_t tenant = 0;
    std::uint32_t optimizedRuns = 2;
    /**
     * Former per-session prediction-cache cap. The server keeps no
     * per-session cache any more and ignores the value; the field stays
     * so the Open frame's bytes, and kWireVersion, are unchanged and
     * older clients still decode.
     */
    std::uint32_t kernelCacheCap = 32;
    std::string bench;
    /**
     * Version this Open travels as. Encoding with 1 emits the legacy
     * frame (no tail) for compatibility tests and old-client emulation;
     * decode reports the version the peer actually sent.
     */
    std::uint8_t version = kWireVersion;
    /** Catalog model name; empty = the server's default model. */
    std::string hwModel;
    WireQosKind qosKind = WireQosKind::UniformAlpha;
    /** Alpha (UniformAlpha; 0 = server default) or deadline factor. */
    double qosValue = 0.0;
};

struct OpenedMsg
{
    std::uint64_t tenant = 0;
    std::uint64_t session = 0;
    std::uint32_t totalDecisions = 0;
};

struct StepMsg
{
    std::uint64_t session = 0;
};

struct DecisionMsg
{
    std::uint64_t session = 0;
    std::uint32_t run = 0;
    std::uint32_t index = 0;
    std::uint32_t configIndex = 0;
    std::uint8_t kernelTag = 0;
    std::uint8_t degraded = 0;
    double kernelTime = 0.0;
    double overheadTime = 0.0;
    double cpuEnergy = 0.0;
    double gpuEnergy = 0.0;
    std::uint32_t evaluations = 0;
};

struct RejectMsg
{
    std::uint64_t session = 0;
    RejectReason reason = RejectReason::UnknownSession;
};

/**
 * The server's telemetry registry as key/value entries, then one f64
 * tail. Counters (powercap.violations, powercap.arbiter_ticks,
 * serve.deadline_misses, ...) travel only as entries; the tail holds
 * the fleet budget, a setting rather than a counter.
 *
 * Layout change without a version bump: Stats used to end with three
 * more u64s (cap violations, arbiter ticks, deadline misses) after the
 * budget. Only Open is versioned, so the layouts are told apart by
 * length alone: each decoder rejects the other's payload (trailing or
 * missing bytes), and a mismatched client/server pair fails closed
 * instead of misreading counters.
 */
struct StatsMsg
{
    std::vector<std::pair<std::string, std::uint64_t>> entries;
    /** Configured fleet budget in watts; 0 = no arbiter. */
    double fleetBudgetWatts = 0.0;
};

struct ErrorMsg
{
    std::string message;
};

/** Append one complete frame (length + type + payload) to @p out. */
void encodeOpen(std::vector<std::uint8_t> &out, const OpenMsg &m);
void encodeOpened(std::vector<std::uint8_t> &out, const OpenedMsg &m);
void encodeStep(std::vector<std::uint8_t> &out, const StepMsg &m);
void encodeDecision(std::vector<std::uint8_t> &out,
                    const DecisionMsg &m);
void encodeReject(std::vector<std::uint8_t> &out, const RejectMsg &m);
void encodeStatsReq(std::vector<std::uint8_t> &out);
void encodeStats(std::vector<std::uint8_t> &out, const StatsMsg &m);
void encodeError(std::vector<std::uint8_t> &out, const ErrorMsg &m);

/** Decode a frame payload; nullopt on any malformed byte layout. */
std::optional<OpenMsg> decodeOpen(std::span<const std::uint8_t> p);
std::optional<OpenedMsg> decodeOpened(std::span<const std::uint8_t> p);
std::optional<StepMsg> decodeStep(std::span<const std::uint8_t> p);
std::optional<DecisionMsg>
decodeDecision(std::span<const std::uint8_t> p);
std::optional<RejectMsg> decodeReject(std::span<const std::uint8_t> p);
std::optional<StatsMsg> decodeStats(std::span<const std::uint8_t> p);
std::optional<ErrorMsg> decodeError(std::span<const std::uint8_t> p);

/**
 * Incremental frame reassembly over a fragmented byte stream. Feed
 * whatever recv() produced; next() yields complete frames in order.
 * Consumed bytes are compacted lazily, so append/next are amortized
 * linear in the bytes received.
 */
class FrameReader
{
  public:
    explicit FrameReader(std::size_t maxFrame = kMaxFrameBytes)
        : _maxFrame(maxFrame)
    {
    }

    void append(const std::uint8_t *data, std::size_t n);

    /** The next complete frame, or nullopt until more bytes arrive. */
    std::optional<Frame> next();

    /** Sticky: a frame declared an impossible length. */
    bool corrupt() const { return _corrupt; }

    /** Bytes buffered but not yet consumed (tests/diagnostics). */
    std::size_t buffered() const { return _buf.size() - _pos; }

  private:
    std::size_t _maxFrame;
    std::vector<std::uint8_t> _buf;
    std::size_t _pos = 0;
    bool _corrupt = false;
};

} // namespace gpupm::serve::wire
