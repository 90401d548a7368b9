// Small string formatting and parsing helpers shared across the library.

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

/// \brief Parses all of `s` as a base-10 integer. False on an empty
/// string, leading whitespace, trailing characters or overflow.
bool ParseInt64(const std::string& s, int64_t* out);

/// \brief Parses all of `s` as a double in strtod syntax, so "inf" and
/// "nan" too. False on an empty string, leading whitespace, trailing
/// characters or overflow.
bool ParseDouble(const std::string& s, double* out);

/// \brief Lowercases ASCII.
std::string ToLower(const std::string& s);

}  // namespace flexmoe

#endif  // FLEXMOE_UTIL_STRING_UTIL_H_
