// Strict number parsing for the command-line tools: the whole token must
// parse, so "2x", "1abc", " 5" and an empty token are refused instead of
// read as a prefix, and a whole number never takes a sign (no "-1"
// wrapping to 2^64-1). Range checks beyond these are the caller's.
#pragma once

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace mgq::tools {

/// A whole decimal number in [0, max].
inline bool parseWhole(const char* arg, std::uint64_t max,
                       std::uint64_t& out) {
  if (std::isdigit(static_cast<unsigned char>(arg[0])) == 0) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(arg, &end, 10);
  if (*end != '\0' || errno != 0 || v > max) return false;
  out = v;
  return true;
}

/// A thread count: a whole number in [0, INT_MAX]; 0 means all cores.
inline bool parseThreads(const char* arg, int& out) {
  std::uint64_t v = 0;
  if (!parseWhole(arg, INT_MAX, v)) return false;
  out = static_cast<int>(v);
  return true;
}

/// A finite decimal number (inf and nan are refused).
inline bool parseFinite(const char* arg, double& out) {
  if (arg[0] == '\0' || std::isspace(static_cast<unsigned char>(arg[0]))) {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(arg, &end);
  if (*end != '\0' || !std::isfinite(v)) return false;
  out = v;
  return true;
}

}  // namespace mgq::tools
