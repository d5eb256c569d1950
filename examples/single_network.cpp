// examples/single_network.cpp — bdrmap-style border mapping of one
// network from an inside vantage point (paper §7.1's scenario).
//
// CAIDA has run bdrmap this way for years to study interdomain
// congestion: a VP inside the network of interest probes every routed
// prefix, and the analysis maps the network's border routers and who
// they connect to. This example runs bdrmapIT and the bdrmap baseline
// on the same corpus and prints both views of the border.
//
// Usage: single_network [network] [seed]
//   network in {tier1, access, re1, re2}

#include <cstdio>
#include <cstring>
#include <map>

#include "baselines/bdrmap.hpp"
#include "eval/experiment.hpp"

int main(int argc, char** argv) {
  const char* which = argc > 1 ? argv[1] : "access";
  const std::uint64_t seed = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 2016;

  topo::SimParams params;
  topo::Internet probe = topo::Internet::generate(params);
  int as_idx = probe.large_access_gt();
  if (!std::strcmp(which, "tier1")) as_idx = probe.tier1_gt();
  if (!std::strcmp(which, "re1")) as_idx = probe.re1_gt();
  if (!std::strcmp(which, "re2")) as_idx = probe.re2_gt();
  const netbase::Asn vp_asn = probe.ases()[static_cast<std::size_t>(as_idx)].asn;

  std::printf("mapping the border of AS%u (%s) from one inside VP...\n", vp_asn,
              which);
  eval::Scenario s = eval::make_single_vp_scenario(params, as_idx, seed);
  std::printf("corpus: %zu traceroutes\n\n", s.corpus.size());

  const auto aliases = eval::midar_aliases(s);
  core::Result bit = core::Bdrmapit::run(s.corpus, aliases, s.ip2as, s.rels);
  auto bmap = baselines::Bdrmap::run(s.corpus, aliases, s.ip2as, s.rels, vp_asn);

  // Neighbor networks at the border, with the interfaces that attach
  // them, according to each tool.
  auto summarize = [&](const std::vector<core::IfaceRecord>& inf) {
    std::map<netbase::Asn, std::size_t> neighbors;
    for (const auto& [addr, router_id, i] : inf) {
      if (!i.interdomain()) continue;
      if (i.router_as == vp_asn)
        ++neighbors[i.conn_as];
      else if (i.conn_as == vp_asn)
        ++neighbors[i.router_as];
    }
    return neighbors;
  };

  const auto bit_n = summarize(bit.interfaces);
  const auto bmap_n = summarize(bmap);

  // Truth for comparison.
  std::map<netbase::Asn, std::size_t> truth;
  for (const auto& l : s.net.links()) {
    if (l.kind != topo::LinkKind::interdomain) continue;
    const netbase::Asn oa = s.net.owner_of_router(
        s.net.ifaces()[static_cast<std::size_t>(l.a_iface)].router);
    const netbase::Asn ob = s.net.owner_of_router(
        s.net.ifaces()[static_cast<std::size_t>(l.b_iface)].router);
    if (oa == vp_asn) ++truth[ob];
    if (ob == vp_asn) ++truth[oa];
  }

  std::printf("%-10s %8s %10s %8s\n", "neighbor", "links", "bdrmapIT", "bdrmap");
  std::size_t bit_found = 0, bmap_found = 0;
  for (const auto& [asn, links] : truth) {
    const bool in_bit = bit_n.contains(asn);
    const bool in_bmap = bmap_n.contains(asn);
    bit_found += in_bit;
    bmap_found += in_bmap;
    std::printf("AS%-8u %8zu %10s %8s\n", asn, links, in_bit ? "found" : "-",
                in_bmap ? "found" : "-");
  }
  std::printf("\nneighbors recovered: bdrmapIT %zu/%zu, bdrmap %zu/%zu\n",
              bit_found, truth.size(), bmap_found, truth.size());
  return 0;
}
