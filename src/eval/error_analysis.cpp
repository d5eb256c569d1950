#include "eval/error_analysis.hpp"

#include <ostream>

namespace eval {
namespace {

LinkCategory categorize(const topo::Internet& net, const topo::Iface& f) {
  if (f.ixp >= 0) return LinkCategory::ixp;
  if (f.link < 0) return LinkCategory::stray;
  const topo::Link& l = net.links()[static_cast<std::size_t>(f.link)];
  const auto& fa = net.ifaces()[static_cast<std::size_t>(l.a_iface)];
  const auto& fb = net.ifaces()[static_cast<std::size_t>(l.b_iface)];
  const netbase::Asn oa = net.owner_of_router(fa.router);
  const netbase::Asn ob = net.owner_of_router(fb.router);
  if (l.kind == topo::LinkKind::internal || oa == ob) return LinkCategory::internal;

  const asrel::Rel rel = net.relationships().rel(oa, ob);
  if (rel == asrel::Rel::p2p) return LinkCategory::peering;

  // Transit: which side's block numbers the link?
  const netbase::Asn provider = rel == asrel::Rel::p2c ? oa : ob;
  const netbase::Asn customer = rel == asrel::Rel::p2c ? ob : oa;
  const int pidx = net.as_index(provider);
  const int cidx = net.as_index(customer);
  const bool addr_is_v6 = f.addr.is_v6();
  auto in_space = [&](int idx) {
    if (idx < 0) return false;
    const auto& as = net.ases()[static_cast<std::size_t>(idx)];
    if (addr_is_v6) return as.block6.contains(f.addr);
    return as.block.contains(f.addr) ||
           (as.has_infra_block && as.infra_block.contains(f.addr));
  };
  if (in_space(cidx) && !in_space(pidx))
    return LinkCategory::transit_customer_addressed;
  return LinkCategory::transit_provider_addressed;
}

Outcome classify(const IfaceTruth& t, const core::IfaceInference& inf) {
  const bool owner_ok = inf.router_as == t.owner;
  if (t.ixp) {
    // Multi-access fabric: bdrmapIT intentionally leaves the interface
    // annotation unset (§6.2), so only router ownership is assessable.
    return owner_ok ? Outcome::correct : Outcome::wrong_owner;
  }
  if (t.interdomain) {
    if (owner_ok && t.other_is(inf.conn_as)) return Outcome::correct;
    if (!inf.interdomain()) return Outcome::claimed_internal;
    if (!owner_ok) return Outcome::wrong_owner;
    return Outcome::wrong_far;
  }
  if (inf.interdomain()) return Outcome::spurious_border;
  return owner_ok ? Outcome::correct : Outcome::wrong_owner;
}

}  // namespace

const char* to_string(Outcome o) noexcept {
  switch (o) {
    case Outcome::correct: return "correct";
    case Outcome::wrong_owner: return "wrong-owner";
    case Outcome::wrong_far: return "wrong-far";
    case Outcome::claimed_internal: return "missed-border";
    case Outcome::spurious_border: return "spurious-border";
    default: return "?";
  }
}

const char* to_string(LinkCategory c) noexcept {
  switch (c) {
    case LinkCategory::internal: return "internal";
    case LinkCategory::transit_provider_addressed: return "transit(prov-addr)";
    case LinkCategory::transit_customer_addressed: return "transit(cust-addr)";
    case LinkCategory::peering: return "peering";
    case LinkCategory::ixp: return "ixp";
    case LinkCategory::stray: return "loopback/stray";
    default: return "?";
  }
}

std::size_t ErrorBreakdown::total(LinkCategory c) const noexcept {
  std::size_t sum = 0;
  for (std::size_t o = 0; o < static_cast<std::size_t>(Outcome::kCount); ++o)
    sum += counts[static_cast<std::size_t>(c)][o];
  return sum;
}

std::size_t ErrorBreakdown::correct(LinkCategory c) const noexcept {
  return counts[static_cast<std::size_t>(c)]
               [static_cast<std::size_t>(Outcome::correct)];
}

double ErrorBreakdown::accuracy(LinkCategory c) const noexcept {
  const std::size_t t = total(c);
  return t == 0 ? 1.0 : static_cast<double>(correct(c)) / static_cast<double>(t);
}

void ErrorBreakdown::print(std::ostream& out) const {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-20s %7s %8s %8s %8s %8s %8s %9s\n", "category",
                "total", "correct", "wr-own", "wr-far", "missed", "spurious",
                "accuracy");
  out << buf;
  for (std::size_t c = 0; c < static_cast<std::size_t>(LinkCategory::kCount); ++c) {
    const auto cat = static_cast<LinkCategory>(c);
    if (total(cat) == 0) continue;
    std::snprintf(
        buf, sizeof buf, "%-20s %7zu %8zu %8zu %8zu %8zu %8zu %8.1f%%\n",
        to_string(cat), total(cat), correct(cat),
        counts[c][static_cast<std::size_t>(Outcome::wrong_owner)],
        counts[c][static_cast<std::size_t>(Outcome::wrong_far)],
        counts[c][static_cast<std::size_t>(Outcome::claimed_internal)],
        counts[c][static_cast<std::size_t>(Outcome::spurious_border)],
        100.0 * accuracy(cat));
    out << buf;
  }
}

ErrorBreakdown analyze_errors(
    const topo::Internet& net, const GroundTruth& gt, const Visibility& vis,
    const std::vector<core::IfaceRecord>& inf) {
  ErrorBreakdown out;
  for (const auto& f : net.ifaces()) {
    for (const netbase::IPAddr* addr : {&f.addr, f.has_addr6 ? &f.addr6 : nullptr}) {
      if (!addr) continue;
      if (!vis.non_echo.contains(*addr)) continue;
      const core::IfaceRecord* rec = core::find_iface(inf, *addr);
      if (!rec) continue;
      const IfaceTruth* t = gt.truth(*addr);
      if (!t) continue;
      const LinkCategory cat = categorize(net, f);
      const Outcome o = classify(*t, rec->inf);
      ++out.counts[static_cast<std::size_t>(cat)][static_cast<std::size_t>(o)];
    }
  }
  return out;
}

}  // namespace eval
