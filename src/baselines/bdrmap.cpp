#include "baselines/bdrmap.hpp"

#include <algorithm>
#include <unordered_map>

#include "graph/graph.hpp"

namespace baselines {
namespace {

using netbase::Asn;
using netbase::kNoAs;

Asn min_cone(const asrel::RelStore& rels, const std::vector<Asn>& cands) {
  Asn best = kNoAs;
  std::size_t best_cone = 0;
  for (Asn a : cands) {
    const std::size_t c = rels.cone_size(a);
    if (best == kNoAs || c < best_cone || (c == best_cone && a < best)) {
      best = a;
      best_cone = c;
    }
  }
  return best;
}

}  // namespace

std::vector<core::IfaceRecord> Bdrmap::run(
    const std::vector<tracedata::Traceroute>& corpus,
    const tracedata::AliasSets& aliases, const bgp::Ip2AS& ip2as,
    const asrel::RelStore& rels, netbase::Asn vp_asn) {
  graph::Graph g = graph::Graph::build(corpus, aliases, ip2as, rels);

  // Internal IRs: observed before a VP-announced address in some trace.
  std::vector<bool> internal(g.irs().size(), false);
  for (const auto& t : corpus) {
    // Scan backward: everything before the last position that still has
    // a VP-origin address later in the path is internal.
    bool vp_seen_later = false;
    for (std::size_t k = t.hops.size(); k-- > 0;) {
      const auto& h = t.hops[k];
      if (h.addr.is_private()) continue;
      const int fid = g.iface_by_addr(h.addr);
      if (fid < 0) continue;
      const graph::Interface& f = g.interfaces()[static_cast<std::size_t>(fid)];
      if (vp_seen_later) internal[static_cast<std::size_t>(f.ir)] = true;
      if (f.origin.announced() && f.origin.asn == vp_asn) vp_seen_later = true;
    }
  }

  // bdrmap's walk stops at the first AS boundary: it reasons about
  // internal IRs, IRs carrying a VP-network address, and the direct
  // successors of internal IRs. Deeper routers keep their origin-AS
  // mapping and produce no border claims.
  std::vector<bool> in_domain = internal;
  for (const auto& ir : g.irs()) {
    if (!internal[static_cast<std::size_t>(ir.id)] &&
        !graph::set_contains(ir.origin_set, vp_asn))
      continue;
    in_domain[static_cast<std::size_t>(ir.id)] = true;
    for (int lid : ir.out_links) {
      const graph::Link& l = g.links()[static_cast<std::size_t>(lid)];
      const graph::Interface& j = g.interfaces()[static_cast<std::size_t>(l.iface)];
      in_domain[static_cast<std::size_t>(j.ir)] = true;
    }
  }

  // Router ownership.
  for (auto& ir : g.irs()) {
    if (internal[static_cast<std::size_t>(ir.id)]) {
      ir.annotation = vp_asn;
      continue;
    }
    const bool has_vp_iface = graph::set_contains(ir.origin_set, vp_asn);

    // Subsequent origin ASes with link counts.
    std::unordered_map<Asn, int> sub;
    for (int lid : ir.out_links) {
      const graph::Link& l = g.links()[static_cast<std::size_t>(lid)];
      const graph::Interface& j = g.interfaces()[static_cast<std::size_t>(l.iface)];
      if (j.origin.announced() && !j.origin.is_ixp()) ++sub[j.origin.asn];
    }

    if (has_vp_iface) {
      // First router past the VP border, addressed from VP space by the
      // transit convention: owned by the neighbor network.
      std::vector<std::pair<Asn, int>> others;
      for (const auto& [a, c] : sub)
        if (a != vp_asn) others.emplace_back(a, c);
      std::sort(others.begin(), others.end());
      if (!others.empty()) {
        Asn best = kNoAs;
        int best_count = -1;
        for (const auto& [a, c] : others) {
          // Prefer ASes with a known relationship to the VP network.
          const int score = c + (rels.has_relationship(vp_asn, a) ? 1000 : 0);
          if (score > best_count) {
            best = a;
            best_count = score;
          }
        }
        ir.annotation = best;
        continue;
      }
      if (!ir.dest_asns.empty()) {
        // Silent edge network: the traceroute destinations tell us who
        // is behind this border router.
        std::vector<Asn> cands;
        for (Asn d : ir.dest_asns)
          if (d != vp_asn) cands.push_back(d);
        if (!cands.empty()) {
          // Prefer a destination that is a customer of the VP network,
          // the lowest ASN first (dest_asns is sorted).
          for (Asn d : cands)
            if (rels.is_provider_of(vp_asn, d)) {
              ir.annotation = d;
              break;
            }
          if (ir.annotation == kNoAs) ir.annotation = min_cone(rels, cands);
          continue;
        }
      }
      ir.annotation = vp_asn;
      continue;
    }

    // Beyond the first boundary bdrmap keeps the origin mapping; for
    // silent last hops it can still use the destination AS.
    if (ir.last_hop && !ir.dest_asns.empty() && ir.origin_set.size() <= 1) {
      std::vector<Asn> cands;
      for (Asn d : ir.dest_asns)
        if (ir.origin_set.empty() || d != ir.origin_set.front()) cands.push_back(d);
      if (!cands.empty() && ir.origin_set.size() == 1 &&
          graph::set_contains(ir.dest_asns, ir.origin_set.front())) {
        ir.annotation = ir.origin_set.front();
        continue;
      }
    }
    Asn best = kNoAs;
    int best_count = -1;
    for (const auto& [a, c] : ir.origin_votes)
      if (c > best_count) {
        best = a;
        best_count = c;
      }
    ir.annotation = best;
  }

  // Interface "connected AS": the origin when it differs from the
  // router owner, else the plurality of preceding router owners.
  // Outside bdrmap's first-boundary domain, interfaces keep their
  // origin mapping on both sides (no claim).
  std::vector<core::IfaceRecord> out;
  out.reserve(g.interfaces().size());
  for (const auto& f : g.interfaces()) {
    core::IfaceInference inf;
    inf.router_as = g.irs()[static_cast<std::size_t>(f.ir)].annotation;
    inf.ixp = f.origin.is_ixp();
    inf.seen_non_echo = f.seen_non_echo;
    inf.seen_mid_path = f.seen_mid_path;
    if (!in_domain[static_cast<std::size_t>(f.ir)]) {
      inf.router_as = f.origin.announced() ? f.origin.asn : netbase::kNoAs;
      inf.conn_as = inf.router_as;
      out.push_back({f.addr, static_cast<std::uint32_t>(f.ir), inf});
      continue;
    }
    if (f.origin.announced() && f.origin.asn != inf.router_as && !f.origin.is_ixp()) {
      inf.conn_as = f.origin.asn;
    } else {
      const graph::Votes votes =
          graph::prev_iface_votes(g, f, [](const graph::Link&) { return true; });
      Asn best = f.origin.announced() ? f.origin.asn : kNoAs;
      int best_count = 0;
      for (const auto& [a, c] : votes)
        if (c > best_count) {
          best = a;
          best_count = c;
        }
      inf.conn_as = best;
    }
    out.push_back({f.addr, static_cast<std::uint32_t>(f.ir), inf});
  }
  core::sort_by_addr(out);
  return out;
}

}  // namespace baselines
