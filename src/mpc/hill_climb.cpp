#include "mpc/hill_climb.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/logging.hpp"

namespace gpupm::mpc {

namespace {

struct Eval
{
    Seconds time;
    Joules energy;
};

} // namespace

HillClimbOptimizer::HillClimbOptimizer(const hw::ConfigSpace &space,
                                       const ml::EnergyModel &energy)
    : _space(space), _energy(energy)
{
}

HillClimbResult
HillClimbOptimizer::optimize(
    const ml::PerfPowerPredictor &pred, const ml::PredictionQuery &q,
    Seconds headroom, const hw::HwConfig &start,
    std::vector<trace::CandidateEval> *candidates, Watts powerCap) const
{
    std::size_t evals = 0;
    std::size_t unique_evals = 0;

    const bool capped = std::isfinite(powerCap);

    // Predicted average power of a candidate over its kernel execution.
    auto power = [](const Eval &e) {
        return e.time > 0.0 ? e.energy / e.time : 0.0;
    };

    // Minimum-predicted-power configuration seen so far, the
    // deterministic fail-safe when nothing fits under the cap. Ties
    // break toward the lower dense config index so the fail-safe is
    // independent of evaluation order.
    Eval min_eval{0.0, 0.0};
    hw::HwConfig min_cfg{};
    std::size_t min_dense = 0;
    bool min_set = false;
    auto track_min = [&](const hw::HwConfig &c, const Eval &e) {
        if (!capped)
            return;
        const double p = power(e);
        const std::size_t d = hw::denseConfigIndex(c);
        if (!min_set || p < power(min_eval) ||
            (p == power(min_eval) && d < min_dense)) {
            min_cfg = c;
            min_eval = e;
            min_dense = d;
            min_set = true;
        }
    };

    auto trace_eval = [&](const hw::HwConfig &c, const Eval &e,
                          bool memo_hit) {
        if (candidates) {
            candidates->push_back(
                {static_cast<std::uint32_t>(hw::denseConfigIndex(c)),
                 e.time, e.energy, memo_hit});
        }
    };

    // Per-decision eval memo keyed by the universal dense config index:
    // sensitivity probes and climbing steps frequently revisit the same
    // configuration (each knob's first downward step repeats its probe),
    // and revisits must not re-run the predictor. Requests are still
    // counted per call so the charged overhead matches the paper's
    // evaluation accounting. The buffers are thread_local and a slot
    // counts only when stamped by this call, so the memo starts empty
    // without clearing 1120 slots or allocating.
    struct Slot
    {
        std::uint32_t stamp = 0;
        std::int16_t index = -1;
    };
    thread_local std::vector<Slot> slot(hw::denseConfigCount);
    thread_local std::vector<Eval> cache;
    thread_local std::uint32_t stamp = 0;
    if (++stamp == 0) {
        // Wrapped: every old stamp could now read as current.
        std::fill(slot.begin(), slot.end(), Slot{});
        stamp = 1;
    }
    cache.clear();

    auto remember = [&](const hw::HwConfig &c,
                        const ml::EnergyEstimate &est) {
        slot[hw::denseConfigIndex(c)] = {
            stamp, static_cast<std::int16_t>(cache.size())};
        cache.push_back(Eval{est.time, est.energy});
    };

    auto evaluate = [&](const hw::HwConfig &c) {
        ++evals;
        const Slot &s = slot[hw::denseConfigIndex(c)];
        if (s.stamp == stamp) {
            const Eval &e = cache[static_cast<std::size_t>(s.index)];
            trace_eval(c, e, true);
            return e;
        }
        ++unique_evals;
        remember(c, _energy.estimate(pred, q, c));
        track_min(c, cache.back());
        trace_eval(c, cache.back(), false);
        return cache.back();
    };

    hw::HwConfig cur = start;

    // Sensitivity phase, batched: the start configuration plus one
    // single-step probe per knob (toward the lower-performance level
    // when possible) go through the predictor's batched path together,
    // so the forest is walked tree-major over all five queries.
    std::array<hw::HwConfig, 1 + hw::numKnobs> batch_cfg;
    std::array<ml::EnergyEstimate, 1 + hw::numKnobs> batch_est;
    std::array<int, hw::numKnobs> probe_slot; // batch index or -1
    std::size_t batch_n = 0;
    batch_cfg[batch_n++] = cur;
    for (std::size_t ki = 0; ki < hw::allKnobs.size(); ++ki) {
        const hw::Knob k = hw::allKnobs[ki];
        const int level = _space.levelOf(cur, k);
        const int probe_level = level > 0 ? level - 1 : level + 1;
        if (probe_level >= 0 && probe_level < _space.levels(k)) {
            probe_slot[ki] = static_cast<int>(batch_n);
            batch_cfg[batch_n++] = _space.withLevel(cur, k, probe_level);
        } else {
            probe_slot[ki] = -1;
        }
    }
    _energy.estimateBatch(
        pred, q, std::span<const hw::HwConfig>(batch_cfg.data(), batch_n),
        std::span<ml::EnergyEstimate>(batch_est.data(), batch_n));
    evals += batch_n;
    unique_evals += batch_n; // start and probes are pairwise distinct
    for (std::size_t i = 0; i < batch_n; ++i) {
        remember(batch_cfg[i], batch_est[i]);
        track_min(batch_cfg[i], Eval{batch_est[i].time, batch_est[i].energy});
        trace_eval(batch_cfg[i],
                   Eval{batch_est[i].time, batch_est[i].energy}, false);
    }

    Eval cur_eval{batch_est[0].time, batch_est[0].energy};
    bool cur_ok = cur_eval.time <= headroom;

    // Candidates are ranked in tiers: under-cap and on-time (minimize
    // energy), under-cap but late (race), over-cap (descend predicted
    // power until something fits). With an infinite cap the over-cap
    // tier is unreachable and the ordering is exactly the uncapped one.
    auto tier = [&](const Eval &e) {
        if (capped && power(e) > powerCap)
            return 2;
        return e.time <= headroom ? 0 : 1;
    };

    // A move is an improvement if it reaches a better tier, or - within
    // a tier - lowers energy (feasible), recovers meaningful time while
    // late (the 0.5% floor keeps the racer from burning CPU power on
    // microsecond launch-latency gains), or sheds predicted power while
    // over the cap.
    auto better = [&](const Eval &cand) {
        const int cand_tier = tier(cand);
        const int cur_tier = tier(cur_eval);
        if (cand_tier != cur_tier)
            return cand_tier < cur_tier;
        if (cand_tier == 0)
            return cand.energy < cur_eval.energy;
        if (cand_tier == 1)
            return cand.time < cur_eval.time * 0.995;
        return power(cand) < power(cur_eval);
    };

    // Energy sensitivity per knob from the batched probes.
    std::array<std::pair<double, hw::Knob>, hw::numKnobs> sens;
    for (std::size_t ki = 0; ki < hw::allKnobs.size(); ++ki) {
        double s = 0.0;
        if (probe_slot[ki] >= 0) {
            s = std::fabs(
                batch_est[static_cast<std::size_t>(probe_slot[ki])]
                    .energy -
                cur_eval.energy);
        }
        sens[ki] = {s, hw::allKnobs[ki]};
    }
    std::sort(sens.begin(), sens.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });

    for (const auto &[unused, knob] : sens) {
        (void)unused;
        // Pick the climbing direction by probing both neighbours, then
        // keep stepping while the move keeps improving.
        for (int dir : {-1, +1}) {
            bool moved_this_dir = false;
            for (;;) {
                const int next = _space.levelOf(cur, knob) + dir;
                if (next < 0 || next >= _space.levels(knob))
                    break;
                const auto cand_cfg = _space.withLevel(cur, knob, next);
                const auto cand = evaluate(cand_cfg);
                if (!better(cand))
                    break;
                cur = cand_cfg;
                cur_eval = cand;
                cur_ok = cur_eval.time <= headroom;
                moved_this_dir = true;
            }
            // If we improved going down, don't also try up: the start
            // point is already better than its upper neighbour.
            if (moved_this_dir)
                break;
        }
    }

    bool cap_ok = true;
    if (capped && power(cur_eval) > powerCap) {
        // Deterministic fail-safe: nothing the climb settled on fits
        // under the cap, so hand back the minimum-predicted-power
        // configuration the search evaluated. It may still be over the
        // cap (capOk = false then); the caller decides how to react.
        GPUPM_ASSERT(min_set, "capped search evaluated no candidates");
        cur = min_cfg;
        cur_eval = min_eval;
        cur_ok = cur_eval.time <= headroom;
        cap_ok = power(cur_eval) <= powerCap;
    }

    HillClimbResult out;
    out.config = cur;
    out.predictedTime = cur_eval.time;
    out.predictedEnergy = cur_eval.energy;
    out.evaluations = evals;
    out.uniqueEvaluations = unique_evals;
    out.feasible = cur_ok;
    out.capOk = cap_ok;
    return out;
}

} // namespace gpupm::mpc
