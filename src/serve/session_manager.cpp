#include "serve/session_manager.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace gpupm::serve {

SessionManager::SessionManager(
    std::shared_ptr<const ml::PerfPowerPredictor> base,
    InferenceBroker *broker, const SessionManagerOptions &opts,
    hw::HardwareModelPtr model, telemetry::Registry *telemetry,
    const online::ForestHandle *handle,
    powercap::FleetCapArbiter *arbiter, PredictionTable *table)
    : _base(std::move(base)), _broker(broker), _opts(opts),
      _model(std::move(model)), _telemetry(telemetry),
      _forestHandle(handle), _arbiter(arbiter), _table(table)
{
    GPUPM_ASSERT(_base != nullptr, "session manager needs a predictor");
    GPUPM_ASSERT(_model != nullptr,
                 "session manager needs a default hardware model");
    if (_telemetry)
        _evictionCounter = &_telemetry->counter("serve.session_evictions");
}

void
SessionManager::evictLruLocked()
{
    auto victim = _slots.end();
    for (auto it = _slots.begin(); it != _slots.end(); ++it) {
        if (it->second.pinned)
            continue;
        if (victim == _slots.end() ||
            it->second.lastUse < victim->second.lastUse)
            victim = it;
    }
    GPUPM_ASSERT(victim != _slots.end(),
                 "session cap reached with every session checked out; "
                 "raise maxSessions above the worker count");
    _slots.erase(victim);
    _lruEvictions += 1;
    if (_evictionCounter)
        _evictionCounter->add();
}

SessionId
SessionManager::create(const workload::Application &app,
                       const SessionOptions &opts)
{
    const SessionId id = [this] {
        std::lock_guard lock(_mutex);
        return _nextId++;
    }();
    return createWithId(id, app, opts);
}

SessionId
SessionManager::createWithId(SessionId id,
                             const workload::Application &app,
                             const SessionOptions &opts)
{
    GPUPM_ASSERT(id != 0, "session ids start at 1");
    // Building a session runs the Turbo baseline; keep that out of the
    // lock so creates do not serialize against checkouts.
    auto session = std::make_unique<Session>(
        id, app, _base, _broker, opts,
        opts.model ? opts.model : _model, _telemetry, _forestHandle,
        _arbiter, _table);

    std::lock_guard lock(_mutex);
    GPUPM_ASSERT(_slots.find(id) == _slots.end(),
                 "session id ", id, " is already resident");
    _nextId = std::max(_nextId, id + 1);
    if (_opts.maxSessions > 0 && _slots.size() >= _opts.maxSessions)
        evictLruLocked();
    Slot slot;
    slot.session = std::move(session);
    slot.lastUse = ++_clock;
    _slots.emplace(id, std::move(slot));
    return id;
}

Session *
SessionManager::checkout(SessionId id)
{
    std::lock_guard lock(_mutex);
    auto it = _slots.find(id);
    if (it == _slots.end() || it->second.pinned)
        return nullptr;
    it->second.pinned = true;
    it->second.lastUse = ++_clock;
    return it->second.session.get();
}

void
SessionManager::checkin(SessionId id)
{
    std::lock_guard lock(_mutex);
    auto it = _slots.find(id);
    GPUPM_ASSERT(it != _slots.end() && it->second.pinned,
                 "checkin of a session that is not checked out");
    it->second.pinned = false;
}

bool
SessionManager::reset(SessionId id)
{
    std::lock_guard lock(_mutex);
    auto it = _slots.find(id);
    if (it == _slots.end() || it->second.pinned)
        return false;
    it->second.session->reset();
    it->second.lastUse = ++_clock;
    return true;
}

bool
SessionManager::evict(SessionId id)
{
    std::lock_guard lock(_mutex);
    auto it = _slots.find(id);
    if (it == _slots.end() || it->second.pinned)
        return false;
    _slots.erase(it);
    return true;
}

std::size_t
SessionManager::size() const
{
    std::lock_guard lock(_mutex);
    return _slots.size();
}

std::size_t
SessionManager::lruEvictions() const
{
    std::lock_guard lock(_mutex);
    return _lruEvictions;
}

std::vector<SessionId>
SessionManager::ids() const
{
    std::lock_guard lock(_mutex);
    std::vector<SessionId> out;
    out.reserve(_slots.size());
    for (const auto &[id, slot] : _slots)
        out.push_back(id);
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace gpupm::serve
