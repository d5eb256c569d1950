// perfbench/src/common.hpp — clock, percentiles, flags, the bulk address
// stream reader and JSON output shared by the benchmark's tools.

#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "netbase/ip_addr.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
inline double percentile(std::vector<std::int64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;
  idx = std::clamp<std::size_t>(idx, 1, v.size());
  return static_cast<double>(v[idx - 1]);
}

/// Flags "--name value" after the mode word, as a map.
inline std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> args;
  for (int i = first; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      std::fprintf(stderr, "bad flag %s\n", argv[i]);
      std::exit(2);
    }
    args[flag.substr(2)] = argv[i + 1];
  }
  return args;
}

/// Reads a bulk address stream: 17-byte records, a family byte (4 or 6)
/// then 16 address bytes (IPv4 in the first four), as perf_gen writes it.
inline std::vector<netbase::IPAddr> read_addr_records(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::vector<netbase::IPAddr> out;
  for (std::size_t off = 0; off + 17 <= bytes.size(); off += 17) {
    std::array<std::uint8_t, 16> raw{};
    std::memcpy(raw.data(), bytes.data() + off + 1, 16);
    out.push_back(bytes[off] == 4
                      ? netbase::IPAddr::v4((std::uint32_t{raw[0]} << 24) |
                                            (std::uint32_t{raw[1]} << 16) |
                                            (std::uint32_t{raw[2]} << 8) | raw[3])
                      : netbase::IPAddr::v6(raw));
  }
  return out;
}

/// One flat JSON object of numbers, printed on one line.
class JsonLine {
 public:
  void add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + buf;
  }
  void print() const { std::printf("{%s}\n", body_.c_str()); }

 private:
  std::string body_;
};

}  // namespace perfbench
