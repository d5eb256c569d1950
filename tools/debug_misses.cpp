// Diagnostic: print wrong inferences for a validation network.
#include <cstdio>
#include <cstdlib>
#include "eval/experiment.hpp"

int main(int argc, char** argv) {
  const std::size_t n_vps = argc > 1 ? std::atoi(argv[1]) : 40;
  const char* which = argc > 2 ? argv[2] : "R&E 1";
  topo::SimParams params;
  eval::Scenario s = eval::make_scenario(params, n_vps, true, (argc>3?std::atoi(argv[3]):1));
  const auto aliases = eval::midar_aliases(s);
  core::Result r = core::Bdrmapit::run(s.corpus, aliases, s.ip2as, s.rels);

  netbase::Asn V = 0;
  for (const auto& [label, asn] : eval::validation_networks(s.net))
    if (label == which) V = asn;
  std::printf("network %s = AS%u\n", which, V);

  // precision misses
  for (const auto& [addr, router_id, i] : r.interfaces) {
    if (!i.interdomain() || i.ixp) continue;
    if (i.router_as != V && i.conn_as != V) continue;
    const auto* t = s.gt.truth(addr);
    if (!t || t->ixp) continue;
    bool ok = t->interdomain && i.router_as == t->owner && t->other_is(i.conn_as);
    if (ok) continue;
    const int fid = r.graph.iface_by_addr(addr);
    const auto& f = r.graph.interfaces()[fid];
    const auto& ir = r.graph.irs()[f.ir];
    std::printf("PREC addr=%s origin=%u inferred=(%u,%u) truth=(%u,%s interdom=%d) lasthop=%d irifaces=%zu origset={", 
      addr.to_string().c_str(), f.origin.asn, i.router_as, i.conn_as, t->owner,
      t->others.empty()?"-":std::to_string(t->others[0]).c_str(), (int)t->interdomain,
      (int)ir.last_hop, ir.ifaces.size());
    for (auto o : ir.origin_set) std::printf("%u,", o);
    std::printf("} dest={");
    for (auto d : ir.dest_asns) std::printf("%u,", d);
    std::printf("}\n");
  }
  // recall misses
  for (const auto& link : s.net.links()) {
    if (link.kind != topo::LinkKind::interdomain) continue;
    const auto& fa = s.net.ifaces()[link.a_iface];
    const auto& fb = s.net.ifaces()[link.b_iface];
    netbase::Asn oa = s.net.owner_of_router(fa.router), ob = s.net.owner_of_router(fb.router);
    if (oa == ob || (oa != V && ob != V)) continue;
    bool visible = false, correct = false;
    for (const auto* f : {&fa, &fb}) {
      if (!s.vis.observed.contains(f->addr) || !s.vis.non_echo.contains(f->addr)) continue;
      visible = true;
      const auto* rec = core::find_iface(r.interfaces, f->addr);
      if (!rec) continue;
      const auto* t = s.gt.truth(f->addr);
      if (t && t->interdomain && rec->inf.router_as == t->owner && t->other_is(rec->inf.conn_as)) correct = true;
    }
    if (!visible || correct) continue;
    std::printf("RECALL link %s(as%u) -- %s(as%u):\n", fa.addr.to_string().c_str(), oa, fb.addr.to_string().c_str(), ob);
    for (const auto* f : {&fa, &fb}) {
      const auto* rec = core::find_iface(r.interfaces, f->addr);
      if (!rec) { std::printf("   %s unobserved\n", f->addr.to_string().c_str()); continue; }
      const int fid = r.graph.iface_by_addr(f->addr);
      const auto& gf = r.graph.interfaces()[fid];
      const auto& ir = r.graph.irs()[gf.ir];
      std::printf("   %s origin=%u inferred=(%u,%u) lasthop=%d origset={", f->addr.to_string().c_str(), gf.origin.asn,
        rec->inf.router_as, rec->inf.conn_as, (int)ir.last_hop);
      for (auto o : ir.origin_set) std::printf("%u,", o);
      std::printf("} dest={");
      for (auto d : ir.dest_asns) std::printf("%u,", d);
      std::printf("}\n");
    }
  }
  return 0;
}
