/**
 * @file
 * JSONL (one JSON object per line) exporter for decision records.
 *
 * The decision dump is the machine-readable provenance artifact: one
 * line per governor decision, sorted canonically, with every float
 * printed shortest-round-trip so a dump re-read through
 * readDecisionJsonl() reproduces the records exactly. The 64-bit
 * kernel signature is serialized as a hex *string* - JSON numbers are
 * doubles and lose integer precision above 2^53. The session/run/index
 * counters stay plain numbers (they are jq-friendly ordinals, assigned
 * sequentially and nowhere near 2^53).
 */

#pragma once

#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "trace/decision.hpp"

namespace gpupm::trace {

/**
 * Write one JSON object per record, in input order. Only provenance
 * fields are written; the fleet-trace fields (kernelTag,
 * exposedOverheadTime, energies, chipPower, hwModel, deadlineMissed)
 * belong to serve::serializeFleetTrace.
 */
void writeDecisionJsonl(std::ostream &os,
                        std::span<const DecisionRecord> records);

/**
 * Parse a decision dump written by writeDecisionJsonl. Blank lines are
 * skipped; a malformed line is fatal. Dumps also arrive as user input
 * (gpupm replay --trace), so the count and index fields must be
 * integers in range and every config a valid hw::denseConfigIndex.
 */
std::vector<DecisionRecord> readDecisionJsonl(std::istream &is);

} // namespace gpupm::trace
