#include "eval/metrics.hpp"

namespace eval {
namespace {

// True when the inference at this address matches ground truth: the
// router operator is right and the connected AS is one of the true far
// sides (exactly one for ptp links).
bool claim_correct(const IfaceTruth& t, const core::IfaceInference& inf) {
  return t.interdomain && inf.router_as == t.owner && t.other_is(inf.conn_as);
}

}  // namespace

Metrics evaluate_network(
    const topo::Internet& net, const GroundTruth& gt, const Visibility& vis,
    const std::vector<core::IfaceRecord>& inf,
    netbase::Asn asn, const EvalOptions& opt) {
  Metrics m;

  auto pass_filter = [&](const netbase::IPAddr& a) {
    return opt.address_filter.empty() || opt.address_filter.contains(a);
  };

  // ---- precision: per inferred claim involving `asn` -------------------
  for (const auto& [addr, router_id, i] : inf) {
    if (!i.interdomain() || i.ixp) continue;
    if (i.router_as != asn && i.conn_as != asn) continue;
    if (!pass_filter(addr)) continue;
    const IfaceTruth* t = gt.truth(addr);
    if (!t || t->ixp) continue;  // unknown/IXP addresses aren't validated
    if (opt.claims_on_true_links_only && t->owner != asn && !t->other_is(asn))
      continue;
    ++m.claims;
    if (claim_correct(*t, i)) ++m.claims_correct;
  }

  // ---- recall: per visible ground-truth link ---------------------------
  // A ptp interdomain link is identified by its (sorted) interface
  // addresses; it is visible if any interface passed the observation
  // filters, and correct if any observed interface carries a correct
  // inference.
  for (const auto& link : net.links()) {
    if (link.kind != topo::LinkKind::interdomain) continue;
    const auto& fa = net.ifaces()[static_cast<std::size_t>(link.a_iface)];
    const auto& fb = net.ifaces()[static_cast<std::size_t>(link.b_iface)];
    const netbase::Asn oa = net.owner_of_router(fa.router);
    const netbase::Asn ob = net.owner_of_router(fb.router);
    if (oa == ob) continue;
    if (oa != asn && ob != asn) continue;

    bool visible = false, correct = false;
    for (const auto* f : {&fa, &fb}) {
      // Dual-stack interfaces are visible through either family.
      std::vector<netbase::IPAddr> addrs{f->addr};
      if (f->has_addr6) addrs.push_back(f->addr6);
      for (const auto& addr : addrs) {
        if (!vis.observed.contains(addr)) continue;
        if (!vis.non_echo.contains(addr)) continue;  // echo-only excluded
        if (opt.exclude_last_hop_only && !vis.mid_path.contains(addr)) continue;
        if (!pass_filter(addr)) continue;
        visible = true;
        const core::IfaceRecord* rec = core::find_iface(inf, addr);
        if (!rec) continue;
        const IfaceTruth* t = gt.truth(addr);
        if (t && claim_correct(*t, rec->inf)) correct = true;
      }
    }
    if (!visible) continue;
    ++m.visible_links;
    if (correct)
      ++m.tp;
    else
      ++m.fn;
  }
  return m;
}

double visible_link_fraction(const topo::Internet& net, const Visibility& vis,
                             netbase::Asn asn) {
  std::size_t total = 0, visible = 0;
  for (const auto& link : net.links()) {
    if (link.kind != topo::LinkKind::interdomain) continue;
    const auto& fa = net.ifaces()[static_cast<std::size_t>(link.a_iface)];
    const auto& fb = net.ifaces()[static_cast<std::size_t>(link.b_iface)];
    const netbase::Asn oa = net.owner_of_router(fa.router);
    const netbase::Asn ob = net.owner_of_router(fb.router);
    if (oa == ob) continue;
    if (oa != asn && ob != asn) continue;
    ++total;
    if (vis.observed.contains(fa.addr) || vis.observed.contains(fb.addr) ||
        (fa.has_addr6 && vis.observed.contains(fa.addr6)) ||
        (fb.has_addr6 && vis.observed.contains(fb.addr6)))
      ++visible;
  }
  return total == 0 ? 0.0 : static_cast<double>(visible) / static_cast<double>(total);
}

double global_owner_accuracy(
    const GroundTruth& gt, const Visibility& vis,
    const std::vector<core::IfaceRecord>& inf) {
  std::size_t correct = 0, total = 0;
  for (const auto& [addr, router_id, i] : inf) {
    const IfaceTruth* t = gt.truth(addr);
    if (!t) continue;  // host/unknown addresses have no router owner
    if (!vis.non_echo.contains(addr)) continue;
    ++total;
    if (i.router_as == t->owner) ++correct;
  }
  return total == 0 ? 1.0 : static_cast<double>(correct) / static_cast<double>(total);
}

}  // namespace eval
