/**
 * @file
 * Feature extraction for the learned performance/power models.
 *
 * A feature vector combines the eight Table III counters (log-scaled
 * where the dynamic range is wide) with the numeric description of the
 * target hardware configuration (clocks, voltages, CU count).
 */

#pragma once

#include <array>
#include <string>
#include <vector>

#include "hw/config.hpp"
#include "hw/params.hpp"
#include "kernel/counters.hpp"

namespace gpupm::ml {

/**
 * Number of model input features: the eight Table III counters, two
 * derived "work" products (compute work GWS*VALU and fetch work
 * GWS*VFetch - regression trees cannot multiply features, so the
 * roofline-dominant products are provided directly), and seven numeric
 * descriptors of the target hardware configuration.
 */
inline constexpr int numFeatures = kernel::numCounters + 2 + 7;

/** Kernel-dependent feature prefix: counters + derived work products. */
inline constexpr int numKernelFeatures = kernel::numCounters + 2;

/** Config-dependent feature suffix: clocks, voltages, CU count. */
inline constexpr int numConfigFeatures = 7;

static_assert(numKernelFeatures + numConfigFeatures == numFeatures);

using FeatureVector = std::array<double, numFeatures>;
using KernelFeatures = std::array<double, numKernelFeatures>;
using ConfigFeatures = std::array<double, numConfigFeatures>;

/** Build the feature vector for (counters, configuration). */
FeatureVector makeFeatures(const kernel::KernelCounters &counters,
                           const hw::HwConfig &c);

/**
 * Kernel-invariant feature prefix from the counters alone. The log2
 * scalings here are the expensive part of makeFeatures; at decision
 * time the counters are fixed while hundreds of candidate configs are
 * scored, so the prefix is computed once per decision.
 */
KernelFeatures makeKernelFeatures(const kernel::KernelCounters &counters);

/** Config-dependent feature suffix (clocks, voltages, rail, CUs). */
ConfigFeatures makeConfigFeatures(const hw::HwConfig &c);

/**
 * Config-dependent feature suffix for an explicit hardware model. The
 * normalizers (top CPU/NB/memory/GPU clocks) and the rail-voltage solve
 * come from @p params, so heterogeneous catalog entries get their own
 * feature scaling; with the paper parameters this is bit-identical to
 * makeConfigFeatures(c).
 */
ConfigFeatures makeConfigFeatures(const hw::ApuParams &params,
                                  const hw::HwConfig &c);

/** Concatenate prefix and suffix; equals makeFeatures bit-for-bit. */
FeatureVector combineFeatures(const KernelFeatures &k,
                              const ConfigFeatures &c);

/** Feature names aligned with makeFeatures() (for diagnostics). */
const std::vector<std::string> &featureNames();

} // namespace gpupm::ml
