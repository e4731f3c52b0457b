/**
 * @file
 * JSON string escaping shared by every artifact writer (model, lint
 * and fuzz reports), so the three render strings byte-identically.
 */

#ifndef COSMOS_COMMON_JSON_HH
#define COSMOS_COMMON_JSON_HH

#include <ostream>
#include <string>

namespace cosmos
{

/** Write @p s to @p os as a quoted, escaped JSON string. */
void appendJsonString(std::ostream &os, const std::string &s);

} // namespace cosmos

#endif // COSMOS_COMMON_JSON_HH
