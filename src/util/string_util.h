// Small string formatting helpers shared by reporters and logging.

#ifndef FLEXMOE_UTIL_STRING_UTIL_H_
#define FLEXMOE_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace flexmoe {

/// \brief printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// \brief Joins elements with a separator.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// \brief "1.52 s", "12.3 ms", "450 us", ...
std::string HumanTime(double seconds);

/// \brief True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// \brief Splits on a delimiter character; keeps empty fields.
std::vector<std::string> Split(const std::string& s, char delim);

/// \brief Lowercases ASCII.
std::string ToLower(const std::string& s);

}  // namespace flexmoe

#endif  // FLEXMOE_UTIL_STRING_UTIL_H_
