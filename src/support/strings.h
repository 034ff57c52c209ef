/**
 * @file
 * Small string utilities used by the DSL parsers and report writers.
 */

#ifndef UOPS_SUPPORT_STRINGS_H
#define UOPS_SUPPORT_STRINGS_H

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace uops {

/** Remove leading and trailing whitespace. */
std::string trim(std::string_view s);

/** Split @p s on @p sep, optionally trimming and dropping empty pieces. */
std::vector<std::string> split(std::string_view s, char sep,
                               bool trim_pieces = true,
                               bool keep_empty = false);

/** Split on arbitrary whitespace runs. */
std::vector<std::string> splitWhitespace(std::string_view s);

/** True when @p s begins with @p prefix. */
bool startsWith(std::string_view s, std::string_view prefix);

/** True when @p s ends with @p suffix. */
bool endsWith(std::string_view s, std::string_view suffix);

/** Uppercase an ASCII string. */
std::string toUpper(std::string_view s);

/** Parse a decimal integer; empty optional on malformed input. */
std::optional<long> parseInt(std::string_view s);

/** Parse a decimal floating-point number; empty optional on failure. */
std::optional<double> parseDouble(std::string_view s);

} // namespace uops

#endif // UOPS_SUPPORT_STRINGS_H
