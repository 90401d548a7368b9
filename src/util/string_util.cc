#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace flexmoe {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args_copy);
    out.resize(static_cast<size_t>(needed));
  }
  va_end(args_copy);
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string HumanTime(double seconds) {
  if (seconds >= 3600.0) return StrFormat("%.2f h", seconds / 3600.0);
  if (seconds >= 60.0) return StrFormat("%.2f min", seconds / 60.0);
  if (seconds >= 1.0) return StrFormat("%.2f s", seconds);
  if (seconds >= 1e-3) return StrFormat("%.2f ms", seconds * 1e3);
  if (seconds >= 1e-6) return StrFormat("%.2f us", seconds * 1e6);
  return StrFormat("%.0f ns", seconds * 1e9);
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

namespace {

// strtoll and strtod skip leading whitespace and stop at the first byte
// they cannot use; a whole-value parse allows neither.
bool ParsedWhole(const std::string& s, const char* end) {
  return !s.empty() && !std::isspace(static_cast<unsigned char>(s[0])) &&
         end == s.c_str() + s.size();
}

}  // namespace

bool ParseInt64(const std::string& s, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (!ParsedWhole(s, end) || errno != 0) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  // Only overflow fails: ERANGE also flags underflow to a subnormal,
  // which %.17g can print.
  if (!ParsedWhole(s, end) || (errno == ERANGE && std::isinf(v))) {
    return false;
  }
  *out = v;
  return true;
}

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

}  // namespace flexmoe
