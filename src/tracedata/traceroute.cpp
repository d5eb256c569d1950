#include "tracedata/traceroute.hpp"

#include <charconv>
#include <istream>
#include <new>
#include <ostream>

#include "tracedata/line_shards.hpp"

namespace tracedata {
namespace {

char type_char(ReplyType t) noexcept {
  switch (t) {
    case ReplyType::time_exceeded: return 'T';
    case ReplyType::dest_unreachable: return 'U';
    case ReplyType::echo_reply: return 'E';
  }
  return '?';
}

std::optional<ReplyType> type_from_char(char c) noexcept {
  switch (c) {
    case 'T': return ReplyType::time_exceeded;
    case 'U': return ReplyType::dest_unreachable;
    case 'E': return ReplyType::echo_reply;
    default: return std::nullopt;
  }
}

std::optional<Hop> parse_hop(std::string_view field) {
  const std::size_t c1 = field.find(':');
  const std::size_t c2 = c1 == std::string_view::npos ? std::string_view::npos
                                                      : field.rfind(':');
  if (c1 == std::string_view::npos || c2 == c1) return std::nullopt;
  unsigned ttl = 0;
  auto [p, ec] = std::from_chars(field.data(), field.data() + c1, ttl);
  if (ec != std::errc() || p != field.data() + c1 || ttl == 0 || ttl > 255)
    return std::nullopt;
  auto addr = netbase::IPAddr::parse(field.substr(c1 + 1, c2 - c1 - 1));
  if (!addr || c2 + 1 >= field.size() || c2 + 2 != field.size()) return std::nullopt;
  auto type = type_from_char(field[c2 + 1]);
  if (!type) return std::nullopt;
  return Hop{*addr, static_cast<std::uint8_t>(ttl), *type};
}

}  // namespace

std::string to_line(const Traceroute& t) {
  std::string out = "T|" + t.vp + "|" + t.dst.to_string() + "|";
  for (std::size_t i = 0; i < t.hops.size(); ++i) {
    if (i) out += ';';
    out += std::to_string(t.hops[i].probe_ttl);
    out += ':';
    out += t.hops[i].addr.to_string();
    out += ':';
    out += type_char(t.hops[i].reply);
  }
  return out;
}

std::optional<Traceroute> from_line(std::string_view line) noexcept try {
  while (!line.empty() && (line.back() == '\r' || line.back() == '\n'))
    line.remove_suffix(1);
  if (line.empty() || line.front() == '#') return std::nullopt;
  if (line.size() < 2 || line.substr(0, 2) != "T|") return std::nullopt;
  line.remove_prefix(2);

  const std::size_t bar1 = line.find('|');
  const std::size_t bar2 = bar1 == std::string_view::npos ? std::string_view::npos
                                                          : line.find('|', bar1 + 1);
  if (bar2 == std::string_view::npos) return std::nullopt;

  Traceroute t;
  t.vp = std::string(line.substr(0, bar1));
  auto dst = netbase::IPAddr::parse(line.substr(bar1 + 1, bar2 - bar1 - 1));
  if (!dst) return std::nullopt;
  t.dst = *dst;

  std::string_view hops = line.substr(bar2 + 1);
  std::uint8_t prev_ttl = 0;
  while (!hops.empty()) {
    const std::size_t semi = hops.find(';');
    std::string_view field =
        hops.substr(0, semi == std::string_view::npos ? std::string_view::npos : semi);
    auto hop = parse_hop(field);
    if (!hop || hop->probe_ttl <= prev_ttl) return std::nullopt;
    prev_ttl = hop->probe_ttl;
    t.hops.push_back(*hop);
    if (semi == std::string_view::npos) break;
    hops.remove_prefix(semi + 1);
  }
  return t;
} catch (const std::bad_alloc&) {
  // noexcept boundary: an OOM mid-record is a failed parse, not an
  // exception the caller must field.
  return std::nullopt;
}

void write_traceroutes(std::ostream& out, const std::vector<Traceroute>& traces) {
  out << "# bdrmapit traceroute corpus: T|vp|dst|ttl:addr:type;...\n";
  for (const auto& t : traces) out << to_line(t) << '\n';
}

std::vector<Traceroute> read_traceroutes(std::istream& in,
                                         std::size_t* malformed) noexcept {
  return read_traceroutes(in, malformed, 1);
}

std::vector<Traceroute> read_traceroutes(std::istream& in, std::size_t* malformed,
                                         int threads) noexcept try {
  return detail::parse_lines_sharded(
      in, malformed, threads,
      [](const std::string& line, std::vector<Traceroute>& traces,
         std::size_t& bad) {
        std::string_view s = line;
        if (!s.empty() && s.back() == '\r') s.remove_suffix(1);  // CRLF
        if (s.empty() || s.front() == '#') return;
        if (auto t = from_line(s))
          traces.push_back(std::move(*t));
        else
          ++bad;
      });
} catch (const std::bad_alloc&) {
  // The corpus didn't fit: report "nothing parsed" rather than unwind
  // through the noexcept boundary.
  if (malformed) *malformed = 0;
  return {};
}

}  // namespace tracedata
