// tests/test_util.hpp — helpers for constructing compact fixtures.
//
// Most annotator tests recreate the paper's worked examples (Figs. 4-14)
// as tiny traceroute corpora plus hand-written IP→AS tables and AS
// relationships; these helpers keep each scenario to a few lines.

#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "asrel/relstore.hpp"
#include "bgp/ip2as.hpp"
#include "core/bdrmapit.hpp"
#include "tracedata/traceroute.hpp"

namespace testutil {

/// The inference for `addr` in an address-sorted result table. An
/// absent address throws, which fails the calling test.
inline const core::IfaceInference& inf_at(const std::vector<core::IfaceRecord>& table,
                                          const netbase::IPAddr& addr) {
  const core::IfaceRecord* rec = core::find_iface(table, addr);
  if (!rec) throw std::out_of_range("no record for " + addr.to_string());
  return rec->inf;
}

/// Builds an Ip2AS map from prefix->ASN lists.
///   bgp: announced prefixes; rir: delegation-only; ixp: IXP prefixes.
inline bgp::Ip2AS make_ip2as(
    const std::vector<std::pair<std::string, netbase::Asn>>& bgp_prefixes,
    const std::vector<std::string>& ixp = {},
    const std::vector<std::pair<std::string, netbase::Asn>>& rir = {}) {
  bgp::Rib rib;
  for (const auto& [prefix, asn] : bgp_prefixes) {
    bgp::Route r;
    r.prefix = netbase::Prefix::must_parse(prefix);
    r.origins = {asn};
    r.path = {65000, asn};
    rib.add(std::move(r));
  }
  std::vector<bgp::Delegation> delegations;
  for (const auto& [prefix, asn] : rir)
    delegations.emplace_back(netbase::Prefix::must_parse(prefix), asn);
  std::vector<netbase::Prefix> ixp_prefixes;
  for (const auto& p : ixp) ixp_prefixes.push_back(netbase::Prefix::must_parse(p));
  return bgp::Ip2AS::build(rib, delegations, ixp_prefixes);
}

/// One traceroute from hop tuples (ttl, addr, type) with type in
/// {'T','U','E'}.
inline tracedata::Traceroute tr(
    const std::string& vp, const std::string& dst,
    const std::vector<std::tuple<int, std::string, char>>& hops) {
  tracedata::Traceroute t;
  t.vp = vp;
  t.dst = netbase::IPAddr::must_parse(dst);
  for (const auto& [ttl, addr, type] : hops) {
    tracedata::Hop h;
    h.addr = netbase::IPAddr::must_parse(addr);
    h.probe_ttl = static_cast<std::uint8_t>(ttl);
    h.reply = type == 'E' ? tracedata::ReplyType::echo_reply
              : type == 'U' ? tracedata::ReplyType::dest_unreachable
                            : tracedata::ReplyType::time_exceeded;
    t.hops.push_back(h);
  }
  return t;
}

/// Relationship store from "provider>customer" and "peer~peer" specs,
/// e.g. make_rels({"1>2", "2>3", "1~4"}). Finalized.
inline asrel::RelStore make_rels(const std::vector<std::string>& specs) {
  asrel::RelStore store;
  for (const auto& spec : specs) {
    const std::size_t gt = spec.find('>');
    const std::size_t tilde = spec.find('~');
    if (gt != std::string::npos) {
      store.add_p2c(static_cast<netbase::Asn>(std::stoul(spec.substr(0, gt))),
                    static_cast<netbase::Asn>(std::stoul(spec.substr(gt + 1))));
    } else if (tilde != std::string::npos) {
      store.add_p2p(static_cast<netbase::Asn>(std::stoul(spec.substr(0, tilde))),
                    static_cast<netbase::Asn>(std::stoul(spec.substr(tilde + 1))));
    }
  }
  store.finalize();
  return store;
}

}  // namespace testutil
