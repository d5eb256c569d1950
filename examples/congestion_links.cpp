// examples/congestion_links.cpp — enumerating interdomain links for a
// congestion-measurement study.
//
// The paper's motivation (§1): interdomain congestion inference needs
// to know which router interfaces sit on which AS-AS border. A probing
// platform can then target those interfaces with time-series RTT
// measurements (TSLP). This example runs bdrmapIT Internet-wide and
// emits the measurement target list for a chosen AS pair category:
// every inferred interdomain interface, annotated with the networks on
// each side and the relationship between them.
//
// Usage: congestion_links [n_vps] [seed]

#include <cstdio>
#include <cstdlib>
#include <map>

#include "eval/experiment.hpp"

int main(int argc, char** argv) {
  const std::size_t n_vps = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 60;
  const std::uint64_t seed = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 14;

  topo::SimParams params;
  eval::Scenario s = eval::make_scenario(params, n_vps, false, seed);
  core::Result r =
      core::Bdrmapit::run(s.corpus, eval::midar_aliases(s), s.ip2as, s.rels);

  // Partition inferred interdomain interfaces by relationship class —
  // congestion studies care most about peering and transit boundaries.
  std::map<std::string, std::size_t> by_class;
  std::size_t printed = 0;
  std::printf("%-16s %-10s %-10s %s\n", "interface", "near AS", "far AS", "class");
  for (const auto& t : s.corpus) {
    for (const auto& h : t.hops) {
      const core::IfaceRecord* rec = core::find_iface(r.interfaces, h.addr);
      if (!rec || !rec->inf.interdomain()) continue;
      const auto& inf = rec->inf;
      const asrel::Rel rel = s.rels.rel(inf.conn_as, inf.router_as);
      const char* cls = rel == asrel::Rel::p2c   ? "transit(down)"
                        : rel == asrel::Rel::c2p ? "transit(up)"
                        : rel == asrel::Rel::p2p ? "peering"
                                                 : "unknown";
      auto [slot, fresh] = by_class.emplace(cls, 0);
      ++slot->second;
      if (!fresh) continue;  // print one sample row per class
      std::printf("%-16s AS%-8u AS%-8u %s\n", h.addr.to_string().c_str(),
                  inf.router_as, inf.conn_as, cls);
      ++printed;
    }
  }

  std::printf("\nmeasurement targets by class (deduplicated counts follow):\n");
  // Count distinct interfaces per class.
  std::map<std::string, std::size_t> distinct;
  for (const auto& [addr, router_id, inf] : r.interfaces) {
    if (!inf.interdomain()) continue;
    const asrel::Rel rel = s.rels.rel(inf.conn_as, inf.router_as);
    const char* cls = rel == asrel::Rel::p2c   ? "transit(down)"
                      : rel == asrel::Rel::c2p ? "transit(up)"
                      : rel == asrel::Rel::p2p ? "peering"
                                               : "unknown";
    ++distinct[cls];
  }
  std::size_t total = 0;
  for (const auto& [cls, count] : distinct) {
    std::printf("  %-14s %zu interfaces\n", cls.c_str(), count);
    total += count;
  }
  std::printf("  %-14s %zu interfaces\n", "total", total);
  std::printf("\n%zu distinct AS-level adjacencies inferred\n",
              r.as_links().size());
  return total > 0 ? 0 : 1;
}
