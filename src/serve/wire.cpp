#include "serve/wire.hpp"

#include <bit>
#include <cstring>

namespace gpupm::serve::wire {
namespace {

/*
 * Little-endian primitive writers/readers. Shifted-byte form, not
 * memcpy of the host representation, so big-endian hosts produce the
 * same stream.
 */

void
putU8(std::vector<std::uint8_t> &out, std::uint8_t v)
{
    out.push_back(v);
}

void
putU16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putF64(std::vector<std::uint8_t> &out, double v)
{
    putU64(out, std::bit_cast<std::uint64_t>(v));
}

/** Bounds-checked forward cursor; any overrun poisons ok(). */
class Cursor
{
  public:
    explicit Cursor(std::span<const std::uint8_t> p) : _p(p) {}

    bool ok() const { return _ok; }
    bool done() const { return _ok && _at == _p.size(); }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return _p[_at++];
    }

    std::uint16_t
    u16()
    {
        if (!need(2))
            return 0;
        std::uint16_t v = 0;
        for (int i = 0; i < 2; ++i)
            v |= static_cast<std::uint16_t>(_p[_at++]) << (8 * i);
        return v;
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(_p[_at++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(_p[_at++]) << (8 * i);
        return v;
    }

    double f64() { return std::bit_cast<double>(u64()); }

    std::string
    str(std::size_t n)
    {
        if (!need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(_p.data() + _at),
                      n);
        _at += n;
        return s;
    }

  private:
    bool
    need(std::size_t n)
    {
        if (!_ok || _p.size() - _at < n) {
            _ok = false;
            return false;
        }
        return true;
    }

    std::span<const std::uint8_t> _p;
    std::size_t _at = 0;
    bool _ok = true;
};

/** Reserve the length slot, write type + body, then patch the length. */
class FrameWriter
{
  public:
    FrameWriter(std::vector<std::uint8_t> &out, MsgType type)
        : _out(out), _lenAt(out.size())
    {
        putU32(_out, 0);
        putU8(_out, static_cast<std::uint8_t>(type));
    }

    ~FrameWriter()
    {
        const auto len =
            static_cast<std::uint32_t>(_out.size() - _lenAt - 4);
        for (int i = 0; i < 4; ++i)
            _out[_lenAt + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(len >> (8 * i));
    }

    std::vector<std::uint8_t> &body() { return _out; }

  private:
    std::vector<std::uint8_t> &_out;
    std::size_t _lenAt;
};

} // namespace

void
encodeOpen(std::vector<std::uint8_t> &out, const OpenMsg &m)
{
    FrameWriter f(out, MsgType::Open);
    putU64(f.body(), m.tenant);
    putU32(f.body(), m.optimizedRuns);
    putU32(f.body(), m.kernelCacheCap);
    putU16(f.body(), static_cast<std::uint16_t>(m.bench.size()));
    for (char c : m.bench)
        putU8(f.body(), static_cast<std::uint8_t>(c));
    if (m.version < 2)
        return; // legacy frame: nothing after the bench name
    putU8(f.body(), m.version);
    putU16(f.body(), static_cast<std::uint16_t>(m.hwModel.size()));
    for (char c : m.hwModel)
        putU8(f.body(), static_cast<std::uint8_t>(c));
    putU8(f.body(), static_cast<std::uint8_t>(m.qosKind));
    putF64(f.body(), m.qosValue);
}

std::optional<OpenMsg>
decodeOpen(std::span<const std::uint8_t> p)
{
    Cursor c(p);
    OpenMsg m;
    m.tenant = c.u64();
    m.optimizedRuns = c.u32();
    m.kernelCacheCap = c.u32();
    const std::uint16_t len = c.u16();
    m.bench = c.str(len);
    if (!c.ok())
        return std::nullopt;
    if (c.done()) {
        // Version-1 frame: catalog-default hardware, default QoS.
        m.version = 1;
        return m;
    }
    // v2 tail: version byte, model name, QoS kind + value. Anything
    // truncated, over-long or out of range is malformed - a half-sent
    // tail must not silently fall back to defaults.
    m.version = c.u8();
    if (m.version != kWireVersion)
        return std::nullopt;
    const std::uint16_t model_len = c.u16();
    m.hwModel = c.str(model_len);
    const std::uint8_t kind = c.u8();
    m.qosValue = c.f64();
    if (!c.done() ||
        kind > static_cast<std::uint8_t>(WireQosKind::Deadline))
        return std::nullopt;
    m.qosKind = static_cast<WireQosKind>(kind);
    return m;
}

void
encodeOpened(std::vector<std::uint8_t> &out, const OpenedMsg &m)
{
    FrameWriter f(out, MsgType::Opened);
    putU64(f.body(), m.tenant);
    putU64(f.body(), m.session);
    putU32(f.body(), m.totalDecisions);
}

std::optional<OpenedMsg>
decodeOpened(std::span<const std::uint8_t> p)
{
    Cursor c(p);
    OpenedMsg m;
    m.tenant = c.u64();
    m.session = c.u64();
    m.totalDecisions = c.u32();
    if (!c.done())
        return std::nullopt;
    return m;
}

void
encodeStep(std::vector<std::uint8_t> &out, const StepMsg &m)
{
    FrameWriter f(out, MsgType::Step);
    putU64(f.body(), m.session);
}

std::optional<StepMsg>
decodeStep(std::span<const std::uint8_t> p)
{
    Cursor c(p);
    StepMsg m;
    m.session = c.u64();
    if (!c.done())
        return std::nullopt;
    return m;
}

void
encodeDecision(std::vector<std::uint8_t> &out, const DecisionMsg &m)
{
    FrameWriter f(out, MsgType::Decision);
    putU64(f.body(), m.session);
    putU32(f.body(), m.run);
    putU32(f.body(), m.index);
    putU32(f.body(), m.configIndex);
    putU8(f.body(), m.kernelTag);
    putU8(f.body(), m.degraded);
    putF64(f.body(), m.kernelTime);
    putF64(f.body(), m.overheadTime);
    putF64(f.body(), m.cpuEnergy);
    putF64(f.body(), m.gpuEnergy);
    putU32(f.body(), m.evaluations);
}

std::optional<DecisionMsg>
decodeDecision(std::span<const std::uint8_t> p)
{
    Cursor c(p);
    DecisionMsg m;
    m.session = c.u64();
    m.run = c.u32();
    m.index = c.u32();
    m.configIndex = c.u32();
    m.kernelTag = c.u8();
    m.degraded = c.u8();
    m.kernelTime = c.f64();
    m.overheadTime = c.f64();
    m.cpuEnergy = c.f64();
    m.gpuEnergy = c.f64();
    m.evaluations = c.u32();
    if (!c.done())
        return std::nullopt;
    return m;
}

void
encodeReject(std::vector<std::uint8_t> &out, const RejectMsg &m)
{
    FrameWriter f(out, MsgType::Reject);
    putU64(f.body(), m.session);
    putU8(f.body(), static_cast<std::uint8_t>(m.reason));
}

std::optional<RejectMsg>
decodeReject(std::span<const std::uint8_t> p)
{
    Cursor c(p);
    RejectMsg m;
    m.session = c.u64();
    const std::uint8_t reason = c.u8();
    if (!c.done() || reason > static_cast<std::uint8_t>(
                                  RejectReason::BadQos))
        return std::nullopt;
    m.reason = static_cast<RejectReason>(reason);
    return m;
}

void
encodeStatsReq(std::vector<std::uint8_t> &out)
{
    FrameWriter f(out, MsgType::StatsReq);
}

void
encodeStats(std::vector<std::uint8_t> &out, const StatsMsg &m)
{
    FrameWriter f(out, MsgType::Stats);
    putU32(f.body(), static_cast<std::uint32_t>(m.entries.size()));
    for (const auto &[key, value] : m.entries) {
        putU16(f.body(), static_cast<std::uint16_t>(key.size()));
        for (char c : key)
            putU8(f.body(), static_cast<std::uint8_t>(c));
        putU64(f.body(), value);
    }
    putF64(f.body(), m.fleetBudgetWatts);
}

std::optional<StatsMsg>
decodeStats(std::span<const std::uint8_t> p)
{
    Cursor c(p);
    StatsMsg m;
    const std::uint32_t n = c.u32();
    // Each entry costs at least 10 bytes; an absurd count fails fast
    // instead of reserving unbounded memory.
    if (static_cast<std::size_t>(n) * 10 > p.size())
        return std::nullopt;
    m.entries.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint16_t len = c.u16();
        std::string key = c.str(len);
        const std::uint64_t value = c.u64();
        if (!c.ok())
            return std::nullopt;
        m.entries.emplace_back(std::move(key), value);
    }
    m.fleetBudgetWatts = c.f64();
    if (!c.done())
        return std::nullopt;
    return m;
}

void
encodeError(std::vector<std::uint8_t> &out, const ErrorMsg &m)
{
    FrameWriter f(out, MsgType::Error);
    putU16(f.body(), static_cast<std::uint16_t>(m.message.size()));
    for (char c : m.message)
        putU8(f.body(), static_cast<std::uint8_t>(c));
}

std::optional<ErrorMsg>
decodeError(std::span<const std::uint8_t> p)
{
    Cursor c(p);
    ErrorMsg m;
    const std::uint16_t len = c.u16();
    m.message = c.str(len);
    if (!c.done())
        return std::nullopt;
    return m;
}

void
FrameReader::append(const std::uint8_t *data, std::size_t n)
{
    if (_corrupt)
        return;
    // Compact once consumed bytes dominate the buffer; keeps append
    // amortized O(n) without re-copying on every frame.
    if (_pos > 4096 && _pos * 2 > _buf.size()) {
        _buf.erase(_buf.begin(),
                   _buf.begin() + static_cast<std::ptrdiff_t>(_pos));
        _pos = 0;
    }
    _buf.insert(_buf.end(), data, data + n);
}

std::optional<Frame>
FrameReader::next()
{
    if (_corrupt)
        return std::nullopt;
    const std::size_t avail = _buf.size() - _pos;
    if (avail < 5)
        return std::nullopt;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(
                   _buf[_pos + static_cast<std::size_t>(i)])
               << (8 * i);
    if (len < 1 || len > _maxFrame) {
        _corrupt = true;
        return std::nullopt;
    }
    if (avail - 4 < len)
        return std::nullopt;
    Frame f;
    f.type = static_cast<MsgType>(_buf[_pos + 4]);
    f.payload.assign(
        _buf.begin() + static_cast<std::ptrdiff_t>(_pos + 5),
        _buf.begin() + static_cast<std::ptrdiff_t>(_pos + 4 + len));
    _pos += 4 + len;
    if (_pos == _buf.size()) {
        _buf.clear();
        _pos = 0;
    }
    return f;
}

} // namespace gpupm::serve::wire
