#include <cstdio>
#include <cstdlib>
#include "eval/experiment.hpp"
#include "baselines/bdrmap.hpp"
#include "topo/bdrmap_collect.hpp"

int main(int argc, char** argv) {
  const char* which = argc > 1 ? argv[1] : "R&E 1";
  bool use_bdrmap = argc > 2 && std::string(argv[2]) == "bdrmap";
  topo::SimParams params;
  topo::Internet probe = topo::Internet::generate(params);
  netbase::Asn V = 0;
  for (auto& [label, asn] : eval::validation_networks(probe)) if (label == which) V = asn;
  int as_idx = probe.as_index(V);
  eval::Scenario s = eval::make_single_vp_scenario(params, as_idx, 2016);
  topo::BdrmapCollectOptions copt;
  copt.seed = 2016;
  topo::BdrmapCollection coll = topo::bdrmap_collect(s.net, as_idx, copt);
  s.corpus = coll.traces;
  s.vis = eval::observe(s.corpus);
  const tracedata::AliasSets& aliases = coll.aliases;
  const std::vector<core::IfaceRecord> inf =
      use_bdrmap ? baselines::Bdrmap::run(s.corpus, aliases, s.ip2as, s.rels, V)
                 : core::Bdrmapit::run(s.corpus, aliases, s.ip2as, s.rels).interfaces;
  std::printf("network %s = AS%u, tool=%s\n", which, V, use_bdrmap?"bdrmap":"bdrmapit");
  int shown = 0;
  for (const auto& [addr, router_id, i] : inf) {
    if (!i.interdomain() || i.ixp) continue;
    if (i.router_as != V && i.conn_as != V) continue;
    const auto* t = s.gt.truth(addr);
    if (!t || t->ixp) continue;
    if (t->owner != V && !t->other_is(V)) continue;  // validated links only
    bool ok = t->interdomain && i.router_as == t->owner && t->other_is(i.conn_as);
    if (ok || shown >= 14) continue;
    ++shown;
    std::printf("PREC addr=%s inferred=(%u,%u) truth=(%u,%s interdom=%d)\n",
      addr.to_string().c_str(), i.router_as, i.conn_as, t->owner,
      t->others.empty()?"-":std::to_string(t->others[0]).c_str(), (int)t->interdomain);
  }
  return 0;
}
