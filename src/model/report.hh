/**
 * @file
 * Rendering of model-checking results: a human summary with the hit
 * count of every live declared row, and the byte-stable
 * `cosmos-model-v2` JSON artifact for CI (scripts/check_json.py
 * validates the schema).
 *
 * Byte-stability contract: two runs with the same configuration
 * produce byte-identical JSON. Rows render in declaration order,
 * consistency findings in their sorted order, and violations in
 * discovery order, which BFS makes deterministic.
 */

#ifndef COSMOS_MODEL_REPORT_HH
#define COSMOS_MODEL_REPORT_HH

#include <string>

#include "model/explorer.hh"

namespace cosmos::model
{

/** Multi-line human-readable summary (stats, consistency,
 *  violations, row hits). */
std::string renderReport(const ModelConfig &mc,
                         const ExploreResult &res);

/** Write the `cosmos-model-v2` JSON artifact; false on I/O error. */
bool writeReportJson(const std::string &path, const ModelConfig &mc,
                     const ExploreResult &res);

} // namespace cosmos::model

#endif // COSMOS_MODEL_REPORT_HH
