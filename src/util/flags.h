// Strict numeric command-line values: the whole text must be a number in
// [lo, hi]. atoi/atof read "abc" as 0 and wrap out-of-range values, so a
// typo silently becomes a different configuration; these reject it instead.

#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace spotcache {

/// Whole-text base-10 integer in [lo, hi].
inline bool ParseInt(const std::string& text, int64_t lo, int64_t hi,
                     int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno != 0 || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

/// Whole-text real number in [lo, hi] (NaN fails the range test).
inline bool ParseReal(const std::string& text, double lo, double hi,
                      double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno != 0 || !(v >= lo && v <= hi)) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace spotcache
