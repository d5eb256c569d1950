// topo/tracer.hpp — traceroute campaigns over the synthetic Internet.
//
// Tracer walks probe paths router-by-router (valley-free AS-level next
// hops, shortest-path intra-AS forwarding) and materializes the reply
// each responsive router would emit, honoring the per-router ReplyMode
// (ingress / egress-to-source / fixed-other address selection — the
// mechanisms behind third-party addresses) and the per-AS DestPolicy
// (open / firewall-at-border / silent — the scenarios behind the
// last-hop heuristic of paper §5).
//
// Campaigns mirror the ITDK methodology: every VP probes a host address
// in every announced block, plus a tunable fraction of probes aimed
// directly at router interface addresses (eliciting Echo Reply hops and
// E-labeled links, Table 3).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netbase/ip_addr.hpp"
#include "netbase/prefix_table.hpp"
#include "topo/internet.hpp"
#include "tracedata/traceroute.hpp"

namespace topo {

/// A traceroute vantage point: a host hanging off a router.
struct VantagePoint {
  std::string name;
  int as_idx = -1;
  int router = -1;               ///< first-hop router
  netbase::IPAddr gateway;       ///< private address the first hop replies with
  netbase::IPAddr gateway6;      ///< ULA counterpart for v6 probes
};

class Tracer {
 public:
  explicit Tracer(const Internet& net);

  /// `count` VPs in distinct, uniformly chosen ASes, never inside the
  /// `exclude`d ASes (e.g. the validation networks for §7.2).
  static std::vector<VantagePoint> make_vps(const Internet& net, std::size_t count,
                                            const std::vector<int>& exclude,
                                            std::uint64_t seed);

  /// A single VP inside a specific AS (the §7.1 bdrmap-style setup).
  static VantagePoint vp_in_as(const Internet& net, int as_idx);

  /// One traceroute from `vp` toward `dst`.
  tracedata::Traceroute trace(const VantagePoint& vp, const netbase::IPAddr& dst,
                              std::uint64_t seed) const;

  /// Full campaign: every VP probes one host per announced AS block and,
  /// with SimParams::echo_dest_prob per (vp, AS), one router interface.
  std::vector<tracedata::Traceroute> campaign(const std::vector<VantagePoint>& vps,
                                              std::uint64_t seed) const;

 private:
  // Resolves a probe destination to (dst AS idx, final router, echo
  // target iface or -1); returns false if unroutable.
  bool resolve_dst(const netbase::IPAddr& dst, int& dst_as, int& final_router,
                   int& echo_iface) const;

  // The address of `iface` in the probe's family.
  netbase::IPAddr iface_addr(int iface, bool v6) const;

  // The address a router replies with for a probe from `vp`, given the
  // ingress iface; -1 for "use the VP gateway".
  netbase::IPAddr reply_addr(const Router& r, int ingress_iface,
                             const VantagePoint& vp, bool v6) const;

  int egress_iface_toward_as(int router, int target_as) const;

  const Internet& net_;
  netbase::PrefixTable<int> block_to_as_;  ///< announced block -> as idx
};

}  // namespace topo
