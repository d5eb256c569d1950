// apps/cli.hpp — strict flag values and checked file I/O, shared by
// the command-line tools.
//
// A numeric value must be a whole base-10 number (for doubles, anything
// strtod reads that is finite) inside [lo, hi]; "abc", "5x" and "" are
// errors, not zero. An input that cannot be opened and an output that
// cannot be written in full are errors too, never an empty or short
// file. Each failure prints one diagnostic to stderr and the tool exits
// 1.

#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>

namespace apps {

/// Parses `text`, the value given for `flag`, as a long or a double
/// into `out`. False on a bad value, after the diagnostic "error: FLAG
/// expects EXPECTS, got 'TEXT'".
template <typename T, typename Out>
bool parse_flag(const char* flag, const std::string& text, T lo, T hi,
                const char* expects, Out& out) {
  char* end = nullptr;
  errno = 0;
  T v;
  if constexpr (std::is_floating_point_v<T>)
    v = static_cast<T>(std::strtod(text.c_str(), &end));
  else
    v = static_cast<T>(std::strtol(text.c_str(), &end, 10));
  bool ok = !text.empty() && *end == '\0' && errno == 0 && v >= lo && v <= hi;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (ok) out = static_cast<Out>(v);
  else std::fprintf(stderr, "error: %s expects %s, got '%s'\n", flag, expects, text.c_str());
  return ok;
}

/// Opens `path` for reading, or exits 1 after one diagnostic.
inline std::ifstream open_or_die(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  return in;
}

/// Writes `path` through `fill`. False, after one diagnostic, unless
/// every byte reached the file: open, each write and the closing flush
/// are all checked.
template <typename Fill>
bool write_file(const std::filesystem::path& path, Fill&& fill) {
  std::ofstream out(path);
  fill(out);
  out.close();
  if (out) return true;
  std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return false;
}

}  // namespace apps
