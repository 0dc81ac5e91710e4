/**
 * @file
 * Portable text serialization for trained models.
 *
 * The paper trains its Random Forest offline and ships it to the
 * runtime; this module provides the equivalent artifact handling:
 * save a trained RandomForestPredictor to a version-tagged text stream
 * and load it back, bit-exactly, so deployments do not retrain.
 *
 * Format (line oriented, locale independent):
 *   gpupm-rf v1
 *   features <numFeatures>
 *   forest <name> trees <n>
 *   tree <nodes>
 *   <feature> <threshold> <left> <right> <value>   (one per node)
 *   ...
 *
 * Loading is parallel (ForestLoader in random_forest.hpp): the calling
 * thread reads the headers and cuts the node lines into pieces, a
 * transient pool parses and validates them, and the two FlatForest
 * arenas then compile concurrently. The result, and the error a corrupt
 * stream exits with, do not depend on the thread count.
 */

#pragma once

#include <iosfwd>
#include <memory>

#include "ml/trainer.hpp"

namespace gpupm::ml {

/** Write a trained predictor; fatal on stream failure. */
void saveRandomForest(const RandomForestPredictor &predictor,
                      std::ostream &os);

/**
 * Read a predictor previously written by saveRandomForest.
 * Fatal on malformed input or feature-count mismatch (a model trained
 * against a different feature schema must not be loaded silently); a
 * corrupt tree is reported as "tree N: <message>", the earliest in file
 * order when several are corrupt.
 */
std::unique_ptr<RandomForestPredictor> loadRandomForest(std::istream &is);

} // namespace gpupm::ml
