/**
 * @file
 * Minimal JSON utilities for the report writers.
 *
 * The bench drivers hand-write their JSON for stable key order, which
 * is fine until a string needs escaping: the original escaper missed
 * control characters, so an error message containing a tab or carriage
 * return produced an unparseable report. jsonEscape() here implements
 * the full RFC 8259 string escaping rules, and jsonValidate() is a
 * small syntax checker used by the tests, the `mpos_bench --dry-run`
 * plan and the mpos_trace tool to assert that everything the writers
 * emit actually parses. It is not a general-purpose parser: it
 * validates structure and returns the position of the first error,
 * nothing more.
 */

#ifndef MPOS_UTIL_JSON_HH
#define MPOS_UTIL_JSON_HH

#include <cstddef>
#include <string>

namespace mpos::util
{

/**
 * Escape s for inclusion inside a JSON string literal (quotes not
 * included): ", \, and all control characters below 0x20.
 */
std::string jsonEscape(const std::string &s);

/** Convenience: "..." with the contents escaped. */
std::string jsonString(const std::string &s);

/**
 * Validate that text is one well-formed JSON value (object, array,
 * string, number, true/false/null) with nothing but whitespace after
 * it. On failure returns false and sets *error_pos (when non-null) to
 * the byte offset of the first offending character and *error (when
 * non-null) to a short description.
 */
bool jsonValidate(const std::string &text, size_t *error_pos = nullptr,
                  std::string *error = nullptr);

} // namespace mpos::util

#endif // MPOS_UTIL_JSON_HH
