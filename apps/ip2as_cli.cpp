// apps/ip2as_cli.cpp — standalone IP→origin-AS resolution.
//
// The §4.1 mapping as a utility: builds the combined BGP + RIR + IXP
// longest-prefix-match table and resolves addresses from stdin (one per
// line) or from --addrs FILE, printing TSV:
//
//   addr <tab> asn <tab> kind <tab> prefix
//
// kind ∈ {bgp, rir, ixp, private, none}; asn is 0 when the kind carries
// no origin (ixp/private/none).
//
//   ip2as_cli --rib FILE [--delegations FILE] [--ixp FILE] [--addrs FILE]
//
// An input that cannot be opened, or an output that cannot be written
// in full, is exit 1 with one diagnostic.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "bgp/ip2as.hpp"

#include "cli.hpp"

namespace {

const char* kind_name(bgp::OriginKind k) {
  switch (k) {
    case bgp::OriginKind::bgp: return "bgp";
    case bgp::OriginKind::rir: return "rir";
    case bgp::OriginKind::ixp: return "ixp";
    case bgp::OriginKind::private_addr: return "private";
    case bgp::OriginKind::none: return "none";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0 || i + 1 == argc) {
      std::fprintf(stderr,
                   "usage: %s --rib FILE [--delegations FILE] [--ixp FILE] "
                   "[--addrs FILE]\n",
                   argv[0]);
      return 1;
    }
    args[a.substr(2)] = argv[i + 1];
  }
  if (!args.contains("rib")) {
    std::fprintf(stderr, "error: --rib FILE is required\n");
    return 1;
  }

  bgp::Rib rib;
  {
    auto in = apps::open_or_die(args["rib"]);
    rib.read(in);
  }
  std::vector<bgp::Delegation> delegations;
  if (args.contains("delegations")) {
    auto in = apps::open_or_die(args["delegations"]);
    delegations = bgp::read_delegations(in);
  }
  std::vector<netbase::Prefix> ixp;
  if (args.contains("ixp")) {
    auto in = apps::open_or_die(args["ixp"]);
    ixp = bgp::Ip2AS::read_ixp_prefixes(in);
  }
  const bgp::Ip2AS map = bgp::Ip2AS::build(rib, delegations, ixp);
  std::fprintf(stderr, "table: %zu bgp + %zu rir + %zu ixp prefixes\n",
               map.bgp_entries(), map.rir_entries(), map.ixp_entries());

  std::ifstream addr_file;
  std::istream* in = &std::cin;
  if (args.contains("addrs")) {
    addr_file = apps::open_or_die(args["addrs"]);
    in = &addr_file;
  }

  std::string line;
  std::size_t resolved = 0, malformed = 0;
  while (std::getline(*in, line)) {
    std::string_view s = line;
    while (!s.empty() && (s.back() == '\r' || s.back() == ' ')) s.remove_suffix(1);
    while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
    if (s.empty() || s.front() == '#') continue;
    const auto addr = netbase::IPAddr::parse(s);
    if (!addr) {
      ++malformed;
      continue;
    }
    const bgp::Origin o = map.lookup(*addr);
    std::printf("%s\t%u\t%s\t%s\n", addr->to_string().c_str(), o.asn, kind_name(o.kind),
                o.kind == bgp::OriginKind::none ? "-" : o.prefix.to_string().c_str());
    ++resolved;
  }
  if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
    std::fprintf(stderr, "error: cannot write standard output\n");
    return 1;
  }
  std::fprintf(stderr, "resolved %zu addresses (%zu malformed lines)\n", resolved,
               malformed);
  return 0;
}
