#include "ml/features.hpp"

#include <cmath>
#include <cstring>
#include <type_traits>

#include "hw/model.hpp"

namespace gpupm::ml {

KernelFeatures
makeKernelFeatures(const kernel::KernelCounters &k)
{
    KernelFeatures f{};
    int i = 0;
    f[i++] = std::log2(1.0 + k.globalWorkSize);
    f[i++] = k.memUnitStalled / 100.0;
    f[i++] = k.cacheHit / 100.0;
    f[i++] = k.vfetchInsts;
    f[i++] = k.scratchRegs;
    f[i++] = k.ldsBankConflict / 100.0;
    f[i++] = std::log2(1.0 + k.valuInsts);
    f[i++] = std::log2(1.0 + k.fetchSize);
    f[i++] = std::log2(1.0 + k.globalWorkSize * k.valuInsts);
    f[i++] = std::log2(1.0 + k.globalWorkSize * k.vfetchInsts);
    return f;
}

ConfigFeatures
makeConfigFeatures(const hw::ApuParams &params, const hw::HwConfig &c)
{
    // The config suffix IS the hardware model's descriptor: one formula,
    // owned by hw, shared by feature extraction and the model tables.
    static_assert(std::is_same_v<ConfigFeatures, hw::ConfigDescriptor>);
    return hw::makeConfigDescriptor(params, c);
}

ConfigFeatures
makeConfigFeatures(const hw::HwConfig &c)
{
    return makeConfigFeatures(hw::ApuParams::defaults(), c);
}

FeatureVector
combineFeatures(const KernelFeatures &k, const ConfigFeatures &c)
{
    FeatureVector f;
    std::memcpy(f.data(), k.data(), sizeof k);
    std::memcpy(f.data() + numKernelFeatures, c.data(), sizeof c);
    return f;
}

FeatureVector
makeFeatures(const kernel::KernelCounters &k, const hw::HwConfig &c)
{
    return combineFeatures(makeKernelFeatures(k), makeConfigFeatures(c));
}

const std::vector<std::string> &
featureNames()
{
    static const std::vector<std::string> names = {
        "log2GlobalWorkSize", "MemUnitStalled", "CacheHit",
        "VFetchInsts",        "ScratchRegs",    "LDSBankConflict",
        "log2VALUInsts",      "log2FetchSize",  "log2ComputeWork",
        "log2FetchWork",      "cpuFreq",        "cpuVolt",
        "nbFreq",             "memFreq",        "gpuFreq",
        "railVolt",           "cus"};
    return names;
}

} // namespace gpupm::ml
