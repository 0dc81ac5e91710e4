/**
 * @file
 * The training-format forests of a predictor, for tests that need a
 * scalar reference walk or a second predictor on the same trees. A
 * predictor keeps only its compiled arenas, so the forests are read
 * back from its saved text.
 */

#pragma once

#include <sstream>

#include "ml/serialize.hpp"

namespace gpupm::ml {

inline ModelForests
forestsOf(const RandomForestPredictor &predictor)
{
    std::stringstream text;
    saveRandomForest(predictor, text);
    return loadForests(text);
}

} // namespace gpupm::ml
