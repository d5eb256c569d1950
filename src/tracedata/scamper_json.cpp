#include "tracedata/scamper_json.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <istream>
#include <new>
#include <ostream>
#include <string>

#include "tracedata/line_shards.hpp"

namespace tracedata {
namespace {

// The hop address family disambiguates the overlapping ICMP/ICMPv6
// type numbers (v4: 11/3/0; v6: 3/1/129).
std::optional<ReplyType> reply_from_icmp(int type, bool v6) {
  if (v6) {
    switch (type) {
      case 3: return ReplyType::time_exceeded;
      case 1: return ReplyType::dest_unreachable;
      case 129: return ReplyType::echo_reply;
      default: return std::nullopt;
    }
  }
  switch (type) {
    case 11: return ReplyType::time_exceeded;
    case 3: return ReplyType::dest_unreachable;
    case 0: return ReplyType::echo_reply;
    default: return std::nullopt;
  }
}

int icmp_from_reply(ReplyType r, bool v6) {
  switch (r) {
    case ReplyType::time_exceeded: return v6 ? 3 : 11;
    case ReplyType::dest_unreachable: return v6 ? 1 : 3;
    case ReplyType::echo_reply: return v6 ? 129 : 0;
  }
  return 11;
}

// One forward pass over a JSON line, validating all of it but keeping
// only the first "type", "dst", "src", "monitor" and "hops" of the root
// object and, in each element of that first "hops" array, the first
// "addr", "probe_ttl" and "icmp_type".

enum class Kind : std::uint8_t { absent, other, number, string, array };

/// The first occurrence of a kept key.
struct Field {
  Kind kind = Kind::absent;
  std::string_view str;  // Kind::string: the decoded text
  double num = 0;        // Kind::number: strtod's value
};

/// Buffers reused from line to line by one thread.
struct Scratch {
  std::string text;       // every string of the line that held an escape, decoded
  std::vector<Hop> hops;  // usable hops of the first "hops", in input order
};

class LineParser {
 public:
  LineParser(std::string_view text, Scratch& scratch) : s_(text), scratch_(scratch) {
    scratch_.text.clear();
    scratch_.hops.clear();
  }

  /// True when the line is one JSON object and nothing else. Otherwise
  /// error() names the syntax error, or is null when the line is valid
  /// JSON but not a lone object.
  bool parse() {
    skip_ws();
    if (!start_value()) return false;
    const bool object = s_[pos_] == '{';
    if (!(object ? items('}', [this](std::string_view key) { return root_member(key); })
                 : value(nullptr)))
      return false;
    skip_ws();
    return object && pos_ == s_.size();
  }

  const char* error() const { return error_; }

  Field type, dst, src, monitor, hops;
  const char* hop_error = nullptr;  // why the first unusable hop is unusable

 private:
  bool fail(const char* why) {
    error_ = why;
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::size_t skip_digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ - start;
  }

  /// The checks every value position makes before reading the value.
  bool start_value() {
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    // Bound the recursion: a hostile line of "[[[[..." otherwise grows
    // the call stack linearly with input size until it overflows.
    if (depth_ >= kMaxDepth) return fail("nesting too deep");
    return true;
  }

  /// Reads any value, into `keep` when non-null.
  bool value(Field* keep) {
    if (!start_value()) return false;
    Kind kind = Kind::other;
    switch (s_[pos_]) {
      case '{':
      case '[':
        kind = s_[pos_] == '[' ? Kind::array : Kind::other;
        if (!items(s_[pos_] == '{' ? '}' : ']',
                   [this](std::string_view) { return value(nullptr); }))
          return false;
        break;
      case '"': {
        kind = Kind::string;
        std::string_view skipped;
        if (!string(keep ? keep->str : skipped)) return false;
        break;
      }
      case 't':
      case 'f':
      case 'n': {
        const std::string_view word =
            s_[pos_] == 't' ? "true" : s_[pos_] == 'f' ? "false" : "null";
        if (s_.substr(pos_, word.size()) != word) return fail("invalid token");
        pos_ += word.size();
        break;
      }
      default:
        kind = Kind::number;
        if (!number(keep ? &keep->num : nullptr)) return false;
    }
    if (keep) keep->kind = kind;
    return true;
  }

  /// Reads the object (close == '}') or array (close == ']') at its
  /// opening bracket, calling on_item(key) at each value; an array's
  /// items have an empty key. A failed parse is abandoned whole, so only
  /// a successful one needs to restore depth_.
  template <typename OnItem>
  bool items(char close, OnItem&& on_item) {
    ++depth_;
    ++pos_;  // '{' or '['
    skip_ws();
    for (bool more = !consume(close); more;) {
      skip_ws();
      std::string_view key;
      if (close == '}') {
        if (!string(key)) return false;
        skip_ws();
        if (!consume(':')) return fail("expected ':'");
        skip_ws();
      }
      if (!on_item(key)) return false;
      skip_ws();
      more = consume(',');
      if (!more && !consume(close))
        return fail(close == '}' ? "expected ',' or '}'" : "expected ',' or ']'");
    }
    --depth_;
    return true;
  }

  bool root_member(std::string_view key) {
    Field* f = key == "type"      ? &type
               : key == "dst"     ? &dst
               : key == "src"     ? &src
               : key == "monitor" ? &monitor
               : key == "hops"    ? &hops
                                  : nullptr;
    if (!f || f->kind != Kind::absent) return value(nullptr);  // first key wins
    if (f == &hops) {
      if (!start_value()) return false;
      if (s_[pos_] == '[') {
        hops.kind = Kind::array;
        return items(']', [this](std::string_view) { return hop(); });
      }
    }
    return value(f);
  }

  bool hop_failed(const char* why) {
    if (!hop_error) hop_error = why;
    return true;  // a semantic error: the line still parses on
  }

  /// Reads one element of the first "hops" array. Until a hop turns out
  /// unusable, each usable one goes to scratch_.hops; the first unusable
  /// one sets hop_error, checked only once the whole line has parsed.
  bool hop() {
    if (!start_value()) return false;
    if (s_[pos_] != '{')
      return value(nullptr) && hop_failed("hop not an object");
    Field addr, ttl, icmp;
    if (!items('}', [&](std::string_view key) {
          Field* f = key == "addr"        ? &addr
                     : key == "probe_ttl" ? &ttl
                     : key == "icmp_type" ? &icmp
                                          : nullptr;
          return value(f && f->kind == Kind::absent ? f : nullptr);
        }))
      return false;
    if (hop_error) return true;
    if (addr.kind != Kind::string || ttl.kind != Kind::number)
      return hop_failed("hop missing addr/probe_ttl");
    const auto a = netbase::IPAddr::parse(addr.str);
    if (!a) return hop_failed("malformed hop address");
    if (ttl.num < 1 || ttl.num > 255) return hop_failed("probe_ttl out of range");

    ReplyType reply = ReplyType::time_exceeded;
    if (icmp.kind == Kind::number) {
      // ICMP types live in [0, 255]; anything outside is unusable, and
      // casting an out-of-range double (e.g. 1e300) to int is UB.
      if (!(icmp.num >= 0 && icmp.num <= 255)) return true;
      const auto r = reply_from_icmp(static_cast<int>(icmp.num), a->is_v6());
      if (!r) return true;  // unknown reply class: not usable, skip hop
      reply = *r;
    }
    scratch_.hops.push_back(Hop{*a, static_cast<std::uint8_t>(ttl.num), reply});
    return true;
  }

  /// Reads the string at '"' into `out`: a view of the line or, when it
  /// holds an escape, of its text decoded onto the end of scratch_.text.
  bool string(std::string_view& out) {
    if (!consume('"')) return fail("expected string");
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != '"' && s_[pos_] != '\\') ++pos_;
    if (pos_ < s_.size() && s_[pos_] == '"') {
      out = s_.substr(start, pos_++ - start);
      return true;
    }
    // Decoding never lengthens text, so this reserve keeps every earlier
    // view into the buffer valid for the rest of the line.
    std::string& decoded = scratch_.text;
    decoded.reserve(decoded.size() + (s_.size() - start));
    const std::size_t first = decoded.size();
    decoded.append(s_.substr(start, pos_ - start));
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') {
        out = std::string_view(decoded).substr(first);
        return true;
      }
      if (c != '\\') {
        decoded += c;
        continue;
      }
      if (pos_ >= s_.size()) break;
      switch (s_[pos_++]) {
        case '"': decoded += '"'; break;
        case '\\': decoded += '\\'; break;
        case '/': decoded += '/'; break;
        case 'b': decoded += '\b'; break;
        case 'f': decoded += '\f'; break;
        case 'n': decoded += '\n'; break;
        case 'r': decoded += '\r'; break;
        case 't': decoded += '\t'; break;
        case 'u': {
          // Addresses and VP names are ASCII; decode BMP code points
          // to UTF-8 for completeness.
          unsigned code = 0;
          const char* hex = s_.data() + pos_;
          if (pos_ + 4 > s_.size() || std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4)
            return fail("bad \\u escape");
          pos_ += 4;
          if (code < 0x80) {
            decoded += static_cast<char>(code);
          } else if (code < 0x800) {
            decoded += static_cast<char>(0xC0 | (code >> 6));
            decoded += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            decoded += static_cast<char>(0xE0 | (code >> 12));
            decoded += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            decoded += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  /// Reads -?digits(.digits)?([eE][+-]?digits)? with at least one
  /// mantissa digit, and one exponent digit after e/E: exactly the
  /// texts strtod consumes whole. Leading zeros are accepted. `out`, when
  /// set, receives strtod's value.
  bool number(double* out) {
    const std::size_t start = pos_;
    const bool negative = consume('-');
    const std::size_t int_digits = skip_digits();
    std::size_t mantissa = int_digits;
    if (consume('.')) mantissa += skip_digits();
    bool exponent = true;
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      exponent = skip_digits() > 0;
    }
    if (mantissa == 0 || !exponent) return fail("invalid number");
    if (!out) return true;
    if (pos_ - start == int_digits + negative && int_digits <= kExactDigits) {
      std::uint64_t v = 0;
      for (std::size_t i = pos_ - int_digits; i < pos_; ++i)
        v = v * 10 + static_cast<std::uint64_t>(s_[i] - '0');
      *out = negative ? -static_cast<double>(v) : static_cast<double>(v);
    } else if (std::from_chars(s_.data() + start, s_.data() + pos_, *out).ec != std::errc()) {
      // Out of range, from_chars leaves *out alone; strtod saturates to
      // +-inf, which downstream range checks reject, or underflows to 0.
      *out = std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(), nullptr);
    }
    return true;
  }

  /// A plain integer of at most this many digits is exact in a double.
  static constexpr std::size_t kExactDigits = 15;

  /// Containers deeper than this are rejected. Scamper output nests
  /// three levels; 64 leaves generous slack without risking the stack.
  static constexpr std::size_t kMaxDepth = 64;

  std::string_view s_;
  Scratch& scratch_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  const char* error_ = nullptr;
};

}  // namespace

std::optional<Traceroute> trace_from_json(std::string_view line,
                                          std::string* error) noexcept try {
  auto set_error = [&](const char* why) {
    if (error) *error = why;
    return std::nullopt;
  };

  // Trim; skip blanks and comments.
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n' ||
                           line.back() == ' '))
    line.remove_suffix(1);
  while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
  if (line.empty() || line.front() == '#') return std::nullopt;

  thread_local Scratch scratch;
  LineParser p(line, scratch);
  if (!p.parse()) return set_error(p.error() ? p.error() : "not a JSON object");

  // Semantic checks, once the whole line is known to be valid JSON.
  if (p.type.kind == Kind::string && p.type.str != "trace")
    return std::nullopt;  // cycle-start etc.: skipped, not an error
  if (p.dst.kind != Kind::string) return set_error("missing dst");
  const auto dst = netbase::IPAddr::parse(p.dst.str);
  if (!dst) return set_error("malformed dst address");
  if (p.hops.kind != Kind::absent && p.hops.kind != Kind::array)
    return set_error("hops not an array");
  if (p.hop_error) return set_error(p.hop_error);

  Traceroute t;
  t.dst = *dst;
  // scamper sometimes labels the VP separately, as "monitor".
  if (p.monitor.kind == Kind::string) t.vp = p.monitor.str;
  else if (p.src.kind == Kind::string) t.vp = p.src.str;

  std::vector<Hop>& hops = scratch.hops;
  const auto by_ttl = [](const Hop& x, const Hop& y) { return x.probe_ttl < y.probe_ttl; };
  if (!std::is_sorted(hops.begin(), hops.end(), by_ttl))
    std::stable_sort(hops.begin(), hops.end(), by_ttl);
  // Keep the first reply per TTL.
  hops.erase(std::unique(hops.begin(), hops.end(),
                         [](const Hop& x, const Hop& y) {
                           return x.probe_ttl == y.probe_ttl;
                         }),
             hops.end());
  t.hops.assign(hops.begin(), hops.end());
  return t;
} catch (const std::bad_alloc&) {
  // noexcept boundary. The message is short enough for SSO, so setting
  // it cannot itself allocate.
  if (error) *error = "out of memory";
  return std::nullopt;
}

std::vector<Traceroute> read_json_traceroutes(std::istream& in,
                                              std::size_t* malformed) noexcept {
  return read_json_traceroutes(in, malformed, 1);
}

std::vector<Traceroute> read_json_traceroutes(std::istream& in,
                                              std::size_t* malformed,
                                              int threads) noexcept try {
  return detail::parse_lines_sharded(
      in, malformed, threads,
      [](const std::string& line, std::vector<Traceroute>& traces,
         std::size_t& bad) {
        std::string error;
        auto t = trace_from_json(line, &error);
        if (t)
          traces.push_back(std::move(*t));
        else if (!error.empty())
          ++bad;
      });
} catch (const std::bad_alloc&) {
  if (malformed) *malformed = 0;
  return {};
}

void write_json_traceroutes(std::ostream& out, const std::vector<Traceroute>& traces) {
  for (const auto& t : traces) {
    out << "{\"type\":\"trace\",\"src\":\"" << t.vp << "\",\"dst\":\""
        << t.dst.to_string() << "\",\"hops\":[";
    for (std::size_t i = 0; i < t.hops.size(); ++i) {
      const auto& h = t.hops[i];
      if (i) out << ',';
      out << "{\"addr\":\"" << h.addr.to_string()
          << "\",\"probe_ttl\":" << static_cast<int>(h.probe_ttl)
          << ",\"icmp_type\":" << icmp_from_reply(h.reply, h.addr.is_v6()) << '}';
    }
    out << "]}\n";
  }
}

bool is_json_corpus(std::istream& in) {
  const std::istream::pos_type start = in.tellg();
  bool json = false;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    json = line[first] == '{';
    break;
  }
  in.clear();
  in.seekg(start);
  return json;
}

}  // namespace tracedata
