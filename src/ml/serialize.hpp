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
 *   target time
 *   forest trees <n>
 *   tree <nodes> <depth>
 *   <feature> <threshold> <left> <right> <value>   (one per node)
 *   ...
 *   target power
 *   forest trees <n>
 *   ...
 *
 * Nodes are in preorder (index 0 is the root). A leaf is
 * `-1 0 -1 -1 <value>`, a split node `<feature> <threshold> <left>
 * <right> 0`. The predictor keeps only its compiled arenas, so saving
 * decompiles them (FlatForest::save); the text is byte-identical to
 * what the fitted or loaded trees held.
 *
 * Loading is parallel (ForestLoader in random_forest.hpp): the calling
 * thread reads the headers and cuts the node lines into pieces, a
 * transient pool parses and validates them, each tree is checked to be
 * one tree, and the two FlatForest arenas then compile concurrently.
 * The result, and the error a corrupt stream exits with, do not depend
 * on the thread count.
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
 * corrupt tree, or node lines that do not form one tree, is reported
 * as "tree N: <message>", the earliest in file order when several are
 * corrupt.
 */
std::unique_ptr<RandomForestPredictor> loadRandomForest(std::istream &is);

/** The two training-format forests of a model stream. */
struct ModelForests
{
    RandomForest time;
    RandomForest power;
};

/**
 * The forests loadRandomForest compiles, read with the same checks and
 * errors. A predictor does not keep them, so a caller that needs the
 * trees themselves (a scalar reference walk, a second predictor on
 * the same trees) reads them from the saved text.
 */
ModelForests loadForests(std::istream &is);

} // namespace gpupm::ml
