// Fuzz target: the ip2as text readers — RIB table lines, RIR extended
// delegation lines, IXP prefix lists, and the address/prefix parsers
// underneath them. Whatever survives parsing is fed to Ip2AS::build, and
// every address in the input must resolve exactly as the brute-force
// §4.1 oracle (tests/ip2as_oracle.hpp) resolves it over the same parsed
// routes, so the prefix-table construction and lookup are checked over
// adversarial route sets too.

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/delegations.hpp"
#include "bgp/ip2as.hpp"
#include "bgp/rib.hpp"
#include "ip2as_oracle.hpp"
#include "netbase/ip_addr.hpp"
#include "netbase/prefix.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string input(reinterpret_cast<const char*>(data), size);

  bgp::Rib rib;
  std::vector<bgp::Delegation> delegations;
  std::istringstream lines(input);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line) && ++n <= 4096) {
    rib.add_line(line);
    bgp::parse_delegation_line(line, delegations);
    if (auto a = netbase::IPAddr::parse(line)) {
      if (netbase::IPAddr::parse(a->to_string()) != *a) __builtin_trap();
    }
    if (auto p = netbase::Prefix::parse(line)) {
      if (netbase::Prefix::parse(p->to_string()) != *p) __builtin_trap();
    }
  }

  std::istringstream ixp_in(input);
  const auto ixp = bgp::Ip2AS::read_ixp_prefixes(ixp_in);

  const bgp::Ip2AS ip2as = bgp::Ip2AS::build(rib, delegations, ixp);
  const testutil::Ip2ASOracle oracle(rib, delegations, ixp);
  // Look up the addresses the input itself spells out.
  std::istringstream again(input);
  n = 0;
  while (std::getline(again, line) && ++n <= 4096) {
    if (auto a = netbase::IPAddr::parse(line)) {
      if (!testutil::same_origin(ip2as.lookup(*a), oracle.lookup(*a))) __builtin_trap();
    }
  }
  return 0;
}
