// apps/flags.hpp — strict numeric flag values for the command-line tools.
//
// A value must be a whole base-10 number (for doubles, anything strtod
// reads that is finite) inside [lo, hi]; "abc", "5x" and "" are errors,
// not zero. On failure one diagnostic goes to stderr and the caller
// exits 1.

#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <type_traits>

namespace apps {

/// Parses `text`, the value given for `flag`, as a long or a double;
/// `expects` completes the diagnostic "error: FLAG expects EXPECTS, got
/// 'TEXT'".
template <typename T>
std::optional<T> parse_flag(const char* flag, const std::string& text, T lo, T hi,
                            const char* expects) {
  char* end = nullptr;
  errno = 0;
  T v;
  if constexpr (std::is_floating_point_v<T>)
    v = static_cast<T>(std::strtod(text.c_str(), &end));
  else
    v = static_cast<T>(std::strtol(text.c_str(), &end, 10));
  bool ok = !text.empty() && *end == '\0' && errno == 0 && v >= lo && v <= hi;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (ok) return v;
  std::fprintf(stderr, "error: %s expects %s, got '%s'\n", flag, expects, text.c_str());
  return std::nullopt;
}

}  // namespace apps
