/**
 * @file
 * String formatting helpers (csprintf and friends).
 *
 * GCC 12 lacks std::format, so we provide a checked printf-style
 * formatter plus a few join/split utilities used by the table
 * writer.
 */

#ifndef SEQPOINT_COMMON_STRUTIL_HH
#define SEQPOINT_COMMON_STRUTIL_HH

#include <cstdarg>
#include <sstream>
#include <string>
#include <vector>

namespace seqpoint {

/**
 * printf-style formatting into a std::string.
 *
 * @param fmt printf format string.
 * @return The formatted string.
 */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** va_list flavour of csprintf(). */
std::string vcsprintf(const char *fmt, va_list ap);

/**
 * Join the elements of a vector with a separator.
 *
 * @param parts Elements to join.
 * @param sep Separator placed between consecutive elements.
 * @return Concatenated string.
 */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/**
 * Split a string on a single-character separator.
 *
 * Empty fields are preserved ("a,,b" yields three fields).
 *
 * @param text Input string.
 * @param sep Separator character.
 * @return The fields, in order.
 */
std::vector<std::string> split(const std::string &text, char sep);

/**
 * Stream any streamable values into one string ("abc" + 42 + ...).
 */
template <typename... Args>
std::string
cat(const Args &...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

/**
 * Render a double with trailing-zero trimming ("1.50" -> "1.5",
 * "2.00" -> "2").
 *
 * @param value Value to render.
 * @param max_decimals Maximum digits after the decimal point.
 * @return Compact decimal string.
 */
std::string compactDouble(double value, int max_decimals = 3);

} // namespace seqpoint

#endif // SEQPOINT_COMMON_STRUTIL_HH
