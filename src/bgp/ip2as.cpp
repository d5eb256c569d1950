#include "bgp/ip2as.hpp"

#include <algorithm>
#include <bitset>
#include <istream>
#include <string>
#include <unordered_set>
#include <utility>

namespace bgp {

std::vector<netbase::Prefix> Ip2AS::read_ixp_prefixes(std::istream& in) {
  std::vector<netbase::Prefix> out;
  std::string line;
  while (std::getline(in, line)) {
    std::string_view s = line;
    while (!s.empty() && (s.back() == '\r' || s.back() == ' ')) s.remove_suffix(1);
    while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
    if (s.empty() || s.front() == '#') continue;
    if (auto p = netbase::Prefix::parse(s)) out.push_back(*p);
  }
  return out;
}

Ip2AS Ip2AS::build(const Rib& rib, const std::vector<Delegation>& delegations,
                   const std::vector<netbase::Prefix>& ixp_prefixes) {
  Ip2AS map;
  std::vector<std::pair<netbase::Prefix, Entry>> entries;

  const auto& announced = rib.origins();
  std::bitset<129> lengths[2];  // announced prefix lengths, v4 and v6
  for (const auto& [prefix, origins] : announced) {
    if (origins.empty()) continue;
    const netbase::Asn asn = *std::min_element(origins.begin(), origins.end());
    entries.emplace_back(prefix, Entry{asn, OriginKind::bgp});
    lengths[prefix.addr().is_v6()].set(static_cast<std::size_t>(prefix.length()));
  }
  map.bgp_count_ = entries.size();

  // A delegation is stale when a BGP prefix of the same or a shorter
  // length covers it; of the rest, the first delegation of a prefix wins.
  std::unordered_set<netbase::Prefix> kept;
  for (const auto& d : delegations) {
    const auto& announced_lengths = lengths[d.prefix.addr().is_v6()];
    bool covered = false;
    for (int len = 0; len <= d.prefix.length() && !covered; ++len) {
      if (!announced_lengths[static_cast<std::size_t>(len)]) continue;
      const auto it = announced.find(netbase::Prefix(d.prefix.addr(), len));
      covered = it != announced.end() && !it->second.empty();
    }
    if (covered || !kept.insert(d.prefix).second) continue;
    entries.emplace_back(d.prefix, Entry{d.asn, OriginKind::rir});
  }
  map.rir_count_ = kept.size();
  map.origins_ = netbase::PrefixTable<Entry>(std::move(entries));

  std::vector<std::pair<netbase::Prefix, Entry>> ixp;
  for (const auto& p : ixp_prefixes) ixp.emplace_back(p, Entry{netbase::kNoAs, OriginKind::ixp});
  map.ixp_count_ = ixp.size();
  map.ixp_ = netbase::PrefixTable<Entry>(std::move(ixp));
  return map;
}

Origin Ip2AS::lookup(const netbase::IPAddr& a) const noexcept {
  if (a.is_private()) return Origin{netbase::kNoAs, OriginKind::private_addr, {}};
  const auto* hit = ixp_.lookup(a);
  if (!hit) hit = origins_.lookup(a);
  if (!hit) return Origin{};
  return Origin{hit->value.asn, hit->value.kind, hit->prefix};
}

}  // namespace bgp
