#include "serve/session.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hpp"
#include "policy/turbo_core.hpp"
#include "trace/trace.hpp"

namespace gpupm::serve {

Session::Session(SessionId id, workload::Application app,
                 std::shared_ptr<const ml::PerfPowerPredictor> base,
                 const SessionOptions &opts, hw::HardwareModelPtr model,
                 telemetry::Registry *telemetry,
                 powercap::FleetCapArbiter *arbiter)
    : _id(id), _app(std::move(app)), _base(std::move(base)), _opts(opts),
      _model(std::move(model)), _telemetry(telemetry),
      _arbiter(arbiter), _thermalCap(opts.thermalCap),
      _apu(_model->params())
{
    GPUPM_ASSERT(_model != nullptr, "session needs a hardware model");
    GPUPM_ASSERT(!_app.trace.empty(), "session application '", _app.name,
                 "' has an empty trace");

    // The MPC performance target is the Turbo Core baseline throughput
    // (paper Sec. V-B), measured once at session creation on this
    // session's own hardware model. A deadline QoS lowers the target by
    // its slack factor: the governor is allowed to spend the deadline
    // headroom on energy savings instead of matching Turbo exactly.
    sim::Simulator sim(_model);
    policy::TurboCoreGovernor turbo(_model);
    const auto baseline = sim.run(_app, turbo);
    GPUPM_ASSERT(baseline.throughput() > 0.0,
                 "baseline produced no throughput");
    _target = _opts.mpc.qos.scaleTarget(baseline.throughput());
    _baselineTime = baseline.totalTime();
    // The baseline's mean chip power is the session's demand signal for
    // usage-proportional budget splits: a registration-time constant, so
    // shares depend only on the fleet's composition, never on execution
    // order (the determinism contract in powercap/arbiter.hpp).
    _baselinePower = baseline.totalTime() > 0.0
                         ? baseline.totalEnergy() / baseline.totalTime()
                         : 0.0;
    if (_arbiter != nullptr) {
        _capSlot = _arbiter->registerSession(_id, _baselinePower,
                                             _opts.capWeight,
                                             _model->capFloorWatts());
    }
    if (_telemetry) {
        _telemetry
            ->counter("serve.model." + _model->name() + ".sessions")
            .add(1);
    }

    reset();
}

Session::~Session()
{
    if (_arbiter != nullptr && _capSlot != nullptr)
        _arbiter->unregisterSession(_capSlot);
}

void
Session::reset()
{
    _governor =
        std::make_unique<mpc::MpcGovernor>(_base, _opts.mpc, _model);
    if (_telemetry)
        _governor->setDecisionSink(_telemetry->decisionSink(), _id);
    _run = 0;
    _invocation = 0;
    _decisions = 0;
    _current = {};
    _runs.clear();
    _platformConfig.reset();
    _thermalCap.reset();
    _apu.reset();
}

void
Session::beginRun()
{
    // Same per-run semantics as Simulator::run: fresh thermal state and
    // platform DVFS state (re-executions start from a cold platform).
    _apu.reset();
    _platformConfig.reset();
    _governor->beginRun(_app.name, _target);
    _current = {};
    _current.appName = _app.name;
    _current.governorName = _governor->name();
    _current.records.reserve(_app.trace.size());
}

trace::DecisionRecord
Session::step(bool degraded)
{
    GPUPM_ASSERT(!finished(), "step() on a finished session");
    trace::Span span(trace::Category::Serve, "serve.step", "session",
                     static_cast<double>(_id));
    if (_invocation == 0)
        beginRun();

    const std::size_t i = _invocation;
    const auto &inv = _app.trace[i];

    // Effective cap for this step: the arbiter's per-session share
    // clamped by the thermal ceiling. Read once so the decision, the
    // violation accounting and the trace all see the same number even
    // if the arbiter re-splits concurrently.
    Watts enforced_cap = std::numeric_limits<Watts>::infinity();
    if (_capSlot != nullptr)
        enforced_cap = _capSlot->cap();
    enforced_cap = _thermalCap.clamp(enforced_cap);
    _governor->setPowerCap(enforced_cap);

    trace::DecisionRecord out;
    out.session = _id;
    out.run = _run;
    out.index = i;
    out.kernelTag = inv.tag;
    sim::Decision decision;
    if (degraded) {
        // Shed fast path: this model's fail-safe configuration at zero
        // decision overhead, no governor involvement. The governor is
        // also not shown the observation - it never decided here, and
        // feeding it fail-safe outcomes would poison its tracker
        // state for the post-recovery decisions.
        decision = {_model->failSafe(), 0.0};
        out.tag = 'S';
    } else {
        decision = _governor->decide(i);
        const trace::DecisionRecord &made = _governor->lastDecision();
        out.tag = made.tag;
        out.evaluations = made.evaluations;
        out.capLimited = made.capLimited;
        if (made.capLimited && _telemetry) {
            // Registered on first use, so an uncapped server's
            // snapshot and Stats frame carry no such entry.
            if (!_capLimited) {
                _capLimited =
                    &_telemetry->counter("powercap.cap_limited_decisions");
            }
            _capLimited->add();
        }
    }
    out.configIndex = hw::denseConfigIndex(decision.config);

    const sim::Observation obs = sim::executeInvocation(
        _apu, *_model, _platformConfig, i, inv, decision, _current);
    const sim::KernelRecord &rec = _current.records.back();
    out.measuredTime = rec.kernelTime;
    out.exposedOverheadTime = rec.overheadTime;
    out.cpuEnergy = rec.cpuEnergy();
    out.gpuEnergy = rec.gpuEnergy();

    if (!degraded) {
        _governor->observe(obs);
    } else if (auto *sink =
                   _telemetry ? _telemetry->decisionSink() : nullptr) {
        // The governor was bypassed, so this step's provenance is
        // emitted here: tag 'S' records that the invocation was shed to
        // the fail-safe configuration with no candidate evaluation. It
        // is emitted before the cap is stamped on the record - the
        // governor never saw that cap.
        out.app = _app.name;
        out.observed = true;
        out.measuredGpuPower =
            rec.kernelTime > 0.0 ? rec.kernelGpuEnergy / rec.kernelTime
                                 : 0.0;
        out.measuredInstructions = rec.instructions;
        out.nonKernelTime = obs.nonKernelTime;
        out.targetThroughput = _target;
        sink->record(trace::DecisionRecord(out));
    }
    if (_model->name() != hw::paperApuName)
        out.hwModel = _model->name();

    // Powercap accounting: measured average chip power over this
    // step's wall time feeds the arbiter's violation windows, and the
    // thermal governor reacts to the die temperature the step left
    // behind. Both advance strictly in the session's own decision
    // stream, which is what keeps capped fleet runs deterministic.
    const Seconds wall = rec.kernelTime + rec.cpuPhaseTime +
                         rec.overheadTime + rec.transitionTime;
    out.chipPower =
        wall > 0.0 ? (out.cpuEnergy + out.gpuEnergy) / wall : 0.0;
    if (std::isfinite(enforced_cap))
        out.powerCap = enforced_cap;
    if (_capSlot != nullptr)
        _arbiter->report(_capSlot, out.chipPower, enforced_cap);
    _thermalCap.update(_apu.thermal().temperature());

    ++_decisions;
    ++_invocation;
    if (_invocation >= _app.trace.size()) {
        // Deadline QoS: a run misses when its wall time exceeds the
        // Turbo baseline stretched by the slack factor. Checked at run
        // completion so the miss marks the run's last record.
        if (_opts.mpc.qos.kind == mpc::QosSpec::Kind::Deadline &&
            _current.totalTime() >
                _baselineTime * _opts.mpc.qos.deadlineFactor) {
            out.deadlineMissed = true;
            if (_telemetry)
                _telemetry->counter("serve.deadline_misses").add(1);
        }
        _runs.push_back(std::move(_current));
        _current = {};
        _invocation = 0;
        ++_run;
    }
    return out;
}

} // namespace gpupm::serve
