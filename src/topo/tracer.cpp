#include "topo/tracer.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

namespace topo {
namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

Tracer::Tracer(const Internet& net) : net_(net) {
  std::vector<std::pair<netbase::Prefix, int>> blocks;
  for (const auto& as : net.ases()) {
    if (as.announced) blocks.emplace_back(as.block, as.idx);
    // Infra blocks route to their holder too (their addresses can be
    // probed directly as echo destinations).
    if (as.has_infra_block) blocks.emplace_back(as.infra_block, as.idx);
    if (net.params().dual_stack) blocks.emplace_back(as.block6, as.idx);
  }
  block_to_as_ = netbase::PrefixTable<int>(std::move(blocks));
}

std::vector<VantagePoint> Tracer::make_vps(const Internet& net, std::size_t count,
                                           const std::vector<int>& exclude,
                                           std::uint64_t seed) {
  netbase::SplitMix64 rng(seed ^ 0x5650u /* 'VP' */);
  std::vector<int> pool;
  for (const auto& as : net.ases()) {
    if (std::find(exclude.begin(), exclude.end(), as.idx) != exclude.end()) continue;
    pool.push_back(as.idx);
  }
  std::vector<VantagePoint> vps;
  for (std::size_t i = 0; i < count && !pool.empty(); ++i) {
    const std::size_t j = rng.below(pool.size());
    const int as_idx = pool[j];
    pool[j] = pool.back();
    pool.pop_back();
    vps.push_back(vp_in_as(net, as_idx));
  }
  return vps;
}

VantagePoint Tracer::vp_in_as(const Internet& net, int as_idx) {
  const AsNode& as = net.ases()[static_cast<std::size_t>(as_idx)];
  VantagePoint vp;
  vp.name = "vp" + std::to_string(as.asn);
  vp.as_idx = as_idx;
  vp.router = as.routers[0];
  // Unique RFC1918 / ULA gateway per VP (first hops of real traceroutes
  // are frequently private).
  vp.gateway = netbase::IPAddr::v4(0x0A000001u + (static_cast<std::uint32_t>(as_idx) << 8));
  std::array<std::uint8_t, 16> g6{};
  g6[0] = 0xFD;
  g6[1] = 0x00;
  g6[2] = static_cast<std::uint8_t>(as_idx >> 8);
  g6[3] = static_cast<std::uint8_t>(as_idx);
  g6[15] = 1;
  vp.gateway6 = netbase::IPAddr::v6(g6);
  return vp;
}

bool Tracer::resolve_dst(const netbase::IPAddr& dst, int& dst_as, int& final_router,
                         int& echo_iface) const {
  echo_iface = net_.iface_by_addr(dst);
  if (echo_iface >= 0) {
    final_router = net_.ifaces()[static_cast<std::size_t>(echo_iface)].router;
    dst_as = net_.routers()[static_cast<std::size_t>(final_router)].as_idx;
    // Reallocated and delegated blocks are routed by the covering
    // announcement, but the holder forwards internally — reaching the
    // true owner of the interface is correct either way.
    return true;
  }
  const auto* as_hit = block_to_as_.lookup(dst);
  if (!as_hit) return false;
  dst_as = as_hit->value;
  final_router = net_.host_router(dst_as, dst);
  return true;
}

int Tracer::egress_iface_toward_as(int router, int target_as) const {
  const Router& r = net_.routers()[static_cast<std::size_t>(router)];
  if (r.as_idx == target_as) return -1;
  const int next_as = net_.as_next_hop(r.as_idx, target_as);
  if (next_as < 0) return -1;
  const int link = net_.exit_link(r.as_idx, next_as,
                                  mix64(static_cast<std::uint64_t>(r.as_idx) * 7919 +
                                        static_cast<std::uint64_t>(target_as)));
  if (link < 0) return -1;
  const Link& l = net_.links()[static_cast<std::size_t>(link)];
  const int ia = l.a_iface, ib = l.b_iface;
  const int ra = net_.ifaces()[static_cast<std::size_t>(ia)].router;
  const int egress_router =
      net_.routers()[static_cast<std::size_t>(ra)].as_idx == r.as_idx
          ? ra
          : net_.ifaces()[static_cast<std::size_t>(ib)].router;
  const int own_iface =
      net_.routers()[static_cast<std::size_t>(ra)].as_idx == r.as_idx ? ia : ib;
  if (egress_router == router) return own_iface;
  // Reply leaves via an internal interface toward the egress border.
  const int next_router = net_.intra_next_hop(router, egress_router);
  if (next_router < 0) return -1;
  return net_.iface_toward(router, next_router);
}

// The address of `iface` in the probe's family; v6 probes elicit v6
// reply sources (falls back to v4 if the interface is v4-only, which
// cannot happen for simulator-generated dual-stack interfaces).
netbase::IPAddr Tracer::iface_addr(int iface, bool v6) const {
  const Iface& f = net_.ifaces()[static_cast<std::size_t>(iface)];
  return v6 && f.has_addr6 ? f.addr6 : f.addr;
}

netbase::IPAddr Tracer::reply_addr(const Router& r, int ingress_iface,
                                   const VantagePoint& vp, bool v6) const {
  if (ingress_iface < 0) return v6 ? vp.gateway6 : vp.gateway;
  switch (r.reply_mode) {
    case ReplyMode::ingress:
      break;
    case ReplyMode::egress_to_src: {
      int egress = -1;
      if (r.as_idx == vp.as_idx) {
        if (r.id != vp.router) {
          const int next = net_.intra_next_hop(r.id, vp.router);
          if (next >= 0) egress = net_.iface_toward(r.id, next);
        }
      } else {
        egress = egress_iface_toward_as(r.id, vp.as_idx);
      }
      if (egress >= 0) return iface_addr(egress, v6);
      break;
    }
    case ReplyMode::fixed_other:
      if (r.fixed_reply_iface >= 0) return iface_addr(r.fixed_reply_iface, v6);
      break;
  }
  return iface_addr(ingress_iface, v6);
}

tracedata::Traceroute Tracer::trace(const VantagePoint& vp, const netbase::IPAddr& dst,
                                    std::uint64_t seed) const {
  tracedata::Traceroute out;
  out.vp = vp.name;
  out.dst = dst;
  const bool v6 = dst.is_v6();

  int dst_as = -1, final_router = -1, echo_iface = -1;
  if (!resolve_dst(dst, dst_as, final_router, echo_iface)) return out;

  // Build the forward router path: (router, ingress iface or -1).
  std::vector<std::pair<int, int>> path;
  path.emplace_back(vp.router, -1);
  int cur_router = vp.router;
  int cur_as = vp.as_idx;
  bool reached = true;

  auto intra_walk = [&](int to_router) {
    while (cur_router != to_router) {
      const int next = net_.intra_next_hop(cur_router, to_router);
      if (next < 0) {
        reached = false;
        return;
      }
      path.emplace_back(next, net_.iface_toward(next, cur_router));
      cur_router = next;
    }
  };

  while (cur_as != dst_as) {
    const int next_as = net_.as_next_hop(cur_as, dst_as);
    if (next_as < 0) {
      reached = false;
      break;
    }
    const int link_id = net_.exit_link(
        cur_as, next_as,
        mix64(dst.hash() ^ (static_cast<std::uint64_t>(cur_as) << 17)));
    if (link_id < 0) {
      reached = false;
      break;
    }
    const Link& l = net_.links()[static_cast<std::size_t>(link_id)];
    int near_iface = l.a_iface, far_iface = l.b_iface;
    if (net_.routers()[static_cast<std::size_t>(
                           net_.ifaces()[static_cast<std::size_t>(near_iface)].router)]
            .as_idx != cur_as)
      std::swap(near_iface, far_iface);
    const int egress_router = net_.ifaces()[static_cast<std::size_t>(near_iface)].router;
    intra_walk(egress_router);
    if (!reached) break;
    const int far_router = net_.ifaces()[static_cast<std::size_t>(far_iface)].router;
    path.emplace_back(far_router, far_iface);
    cur_router = far_router;
    cur_as = next_as;
    if (path.size() > 64) {  // safety: should never happen
      reached = false;
      break;
    }
  }
  if (reached) intra_walk(final_router);

  // Apply the destination AS policy.
  const DestPolicy policy = net_.ases()[static_cast<std::size_t>(dst_as)].dest_policy;
  bool allow_final_reply = reached;
  if (policy != DestPolicy::open) {
    allow_final_reply = false;
    // Truncate: firewall_border keeps the first dst-AS router (the
    // border generates its own Time Exceeded before the filter applies);
    // silent drops everything inside the destination AS.
    std::size_t cut = path.size();
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (net_.routers()[static_cast<std::size_t>(path[i].first)].as_idx == dst_as) {
        cut = policy == DestPolicy::firewall_border ? i + 1 : i;
        break;
      }
    }
    if (path.size() > cut) path.resize(cut);
  }

  // Materialize replies. Response loss is sticky per (router, VP):
  // ICMP rate limiting silences a router for long stretches of a
  // campaign rather than dropping isolated probes, so the same VP keeps
  // missing the same routers (and the set of distinct IR->interface
  // skip pairs stays small, as in real data).
  const std::uint64_t vp_salt = std::hash<std::string>{}(vp.name) ^ seed;
  const double loss = net_.params().hop_loss_prob;
  const auto rate_limited = [&](int router) {
    const std::uint64_t roll =
        mix64(vp_salt ^ (static_cast<std::uint64_t>(router) * 0x9E3779B97F4A7C15ull));
    return static_cast<double>(roll >> 11) * (1.0 / 9007199254740992.0) < loss;
  };
  for (std::size_t i = 0; i < path.size(); ++i) {
    const Router& r = net_.routers()[static_cast<std::size_t>(path[i].first)];
    const std::uint8_t ttl = static_cast<std::uint8_t>(i + 1);
    const bool is_echo_target = allow_final_reply && echo_iface >= 0 &&
                                i + 1 == path.size();
    if (is_echo_target) {
      // Echo Reply: source address is the probed address itself.
      if (!r.silent)
        out.hops.emplace_back(dst, ttl, tracedata::ReplyType::echo_reply);
      return out;
    }
    if (r.silent || rate_limited(r.id)) continue;
    out.hops.emplace_back(reply_addr(r, path[i].second, vp, v6), ttl,
                          tracedata::ReplyType::time_exceeded);
  }

  if (allow_final_reply && echo_iface < 0) {
    // Host destination: most host addresses never answer (the probe
    // dies quietly past the last router); some elicit an Echo Reply,
    // some a Destination Unreachable from the delivering router.
    // Deterministic per address so every VP sees the same behaviour.
    const std::uint64_t roll = mix64(dst.hash() ^ 0xB0A7) % 1000;
    const std::uint8_t ttl = static_cast<std::uint8_t>(path.size() + 1);
    if (roll < static_cast<std::uint64_t>(net_.params().host_reply_prob * 1000.0)) {
      out.hops.emplace_back(dst, ttl, tracedata::ReplyType::echo_reply);
    } else if (!path.empty() &&
               roll < static_cast<std::uint64_t>(
                          (net_.params().host_reply_prob +
                           net_.params().nonexistent_unreach_prob) *
                          1000.0)) {
      const Router& last = net_.routers()[static_cast<std::size_t>(path.back().first)];
      if (!last.silent)
        out.hops.emplace_back(reply_addr(last, path.back().second, vp, v6), ttl,
                              tracedata::ReplyType::dest_unreachable);
    }
  }
  return out;
}

std::vector<tracedata::Traceroute> Tracer::campaign(
    const std::vector<VantagePoint>& vps, std::uint64_t seed) const {
  std::vector<tracedata::Traceroute> out;
  netbase::SplitMix64 rng(seed ^ 0xCA3Bu);
  for (const auto& vp : vps) {
    for (const auto& as : net_.ases()) {
      if (!as.announced) continue;
      // Several host targets per block, shared across VPs (ITDK probes
      // every routed /24 once per team member; multiple targets spread
      // coverage over the AS's edge routers).
      const std::uint64_t probes = net_.params().host_probes_per_as;
      for (std::uint64_t probe = 0; probe < probes; ++probe) {
        const netbase::IPAddr host = net_.host_addr(as.idx, as.asn * probes + probe);
        auto t = trace(vp, host, seed);
        if (!t.hops.empty()) out.push_back(std::move(t));
      }
      if (net_.params().dual_stack) {
        for (std::uint64_t probe = 0; probe < 2; ++probe) {
          const netbase::IPAddr host =
              net_.host_addr6(as.idx, as.asn * 2 + probe);
          auto t = trace(vp, host, seed);
          if (!t.hops.empty()) out.push_back(std::move(t));
        }
      }

      if (rng.chance(net_.params().echo_dest_prob)) {
        // Aim directly at one of this AS's internal-link interfaces (a
        // probe into infrastructure space overwhelmingly lands on
        // intra-AS link addresses; ptp border /30s are a sliver of it).
        std::vector<int> internal;
        for (int rid : as.routers)
          for (int fid : net_.routers()[static_cast<std::size_t>(rid)].ifaces) {
            const Iface& f = net_.ifaces()[static_cast<std::size_t>(fid)];
            if (f.link >= 0 && net_.links()[static_cast<std::size_t>(f.link)].kind ==
                                   LinkKind::internal)
              internal.push_back(fid);
          }
        if (!internal.empty()) {
          const int target = internal[rng.below(internal.size())];
          auto e = trace(vp, net_.ifaces()[static_cast<std::size_t>(target)].addr, seed);
          if (!e.hops.empty()) out.push_back(std::move(e));
        }
      }
    }
  }
  return out;
}

}  // namespace topo
