/**
 * @file
 * The inference engine's name, as the perfbench config stamp prints it.
 *
 * FlatForest has one engine, the float64 walk, so each enum has one
 * value. RandomForestPredictor::simdMode() and simdPath() report it.
 */

#pragma once

#include <cstdint>

namespace gpupm::ml {

/** Requested inference engine. */
enum class SimdMode : std::uint8_t {
    Scalar = 0, ///< Float64 walk.
};

/** Inference path the engine runs. */
enum class SimdPath : std::uint8_t {
    Float64 = 0, ///< Float64 walk.
};

inline const char *
toString(SimdMode)
{
    return "scalar";
}

inline const char *
toString(SimdPath)
{
    return "scalar";
}

} // namespace gpupm::ml
