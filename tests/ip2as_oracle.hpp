// tests/ip2as_oracle.hpp — brute-force reference for bgp::Ip2AS.
//
// Resolves an address straight from the paper's §4.1 rules by scanning
// every input prefix: an IXP prefix beats any BGP match, the longest BGP
// match beats any RIR delegation, a delegation covered by a BGP prefix
// of the same or a shorter length is dropped, the first delegation of a
// prefix wins, and a MOAS prefix resolves to its smallest origin. Linear
// per lookup on purpose; the prefix-table property tests and the ip2as
// fuzzer compare Ip2AS::lookup against it.

#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "bgp/delegations.hpp"
#include "bgp/ip2as.hpp"
#include "bgp/rib.hpp"

namespace testutil {

struct Ip2ASOracle {
  using Table = std::vector<std::pair<netbase::Prefix, netbase::Asn>>;

  Ip2ASOracle(const bgp::Rib& rib, const std::vector<bgp::Delegation>& delegations,
              const std::vector<netbase::Prefix>& ixp_prefixes) {
    for (const auto& [prefix, origins] : rib.origins())
      if (!origins.empty())
        bgp_table.emplace_back(prefix, *std::min_element(origins.begin(), origins.end()));
    for (const auto& d : delegations) {
      const auto covers = [&](const auto& e) { return e.first.contains(d.prefix); };
      if (std::any_of(bgp_table.begin(), bgp_table.end(), covers) ||
          std::any_of(rir_table.begin(), rir_table.end(),
                      [&](const auto& e) { return e.first == d.prefix; }))
        continue;
      rir_table.emplace_back(d.prefix, d.asn);
    }
    for (const auto& p : ixp_prefixes) ixp_table.emplace_back(p, netbase::kNoAs);
  }

  bgp::Origin lookup(const netbase::IPAddr& a) const {
    if (a.is_private()) return {netbase::kNoAs, bgp::OriginKind::private_addr, {}};
    const std::pair<const Table*, bgp::OriginKind> tiers[] = {
        {&ixp_table, bgp::OriginKind::ixp},
        {&bgp_table, bgp::OriginKind::bgp},
        {&rir_table, bgp::OriginKind::rir}};
    for (const auto& [table, kind] : tiers) {
      const Table::value_type* best = nullptr;
      for (const auto& e : *table)
        if (e.first.contains(a) && (!best || e.first.length() > best->first.length()))
          best = &e;
      if (best) return {best->second, kind, best->first};
    }
    return {};
  }

  Table bgp_table;  ///< non-empty origin sets, smallest origin
  Table rir_table;  ///< surviving delegations, first per prefix, input order
  Table ixp_table;  ///< IXP prefixes, no origin
};

inline bool same_origin(const bgp::Origin& x, const bgp::Origin& y) {
  return x.asn == y.asn && x.kind == y.kind && x.prefix == y.prefix;
}

}  // namespace testutil
