#include "topo/bdrmap_collect.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "netbase/prefix_table.hpp"

namespace topo {

BdrmapCollection bdrmap_collect(const Internet& net, int as_idx,
                                const BdrmapCollectOptions& opt) {
  BdrmapCollection out;
  out.vp = Tracer::vp_in_as(net, as_idx);
  Tracer tracer(net);
  netbase::SplitMix64 rng(opt.seed ^ 0xBD3Aull);

  // Origin lookup for "did we end inside the target AS?" decisions: the
  // collector only has the public BGP view, i.e. the block owner.
  std::vector<std::pair<netbase::Prefix, netbase::Asn>> blocks;
  for (const auto& as : net.ases()) {
    if (as.announced) blocks.emplace_back(as.block, as.asn);
    if (as.has_infra_block && as.infra_block_delegated)
      blocks.emplace_back(as.infra_block, as.asn);
  }
  const netbase::PrefixTable<netbase::Asn> origin_of(std::move(blocks));

  for (const auto& target : net.ases()) {
    if (!target.announced) continue;
    auto t = tracer.trace(out.vp, net.host_addr(target.idx, target.asn), opt.seed);
    bool suspicious = t.hops.empty();
    if (!t.hops.empty()) {
      const auto* last = origin_of.lookup(t.hops.back().addr);
      // Off-path suspicion: the trace ended on an address not mapped to
      // the probed network (paper: "a prior traceroute might have found
      // an off-path interface within the target AS").
      suspicious = last == nullptr || last->value != target.asn;
    }
    const bool had_hops = !t.hops.empty();
    if (had_hops) out.traces.push_back(std::move(t));
    if (!suspicious) continue;

    for (std::size_t extra = 0; extra < opt.reprobe_count; ++extra) {
      ++out.reactive_probes;
      auto re = tracer.trace(
          out.vp, net.host_addr(target.idx, target.asn * 131 + extra + 1), opt.seed);
      if (!re.hops.empty()) out.traces.push_back(std::move(re));
    }
  }

  // VP-local alias resolution: bdrmap probes the routers it walks —
  // everything inside the VP network plus the first routers beyond its
  // borders. Collect their observed interfaces per router.
  std::unordered_set<netbase::IPAddr> observed;
  for (const auto& t : out.traces)
    for (const auto& h : t.hops) observed.insert(h.addr);

  std::unordered_set<int> near_routers;
  for (const auto& as : net.ases()) {
    if (as.idx == as_idx)
      for (int r : as.routers) near_routers.insert(r);
  }
  for (const auto& l : net.links()) {
    if (l.kind != LinkKind::interdomain) continue;
    const int ra = net.ifaces()[static_cast<std::size_t>(l.a_iface)].router;
    const int rb = net.ifaces()[static_cast<std::size_t>(l.b_iface)].router;
    const bool a_in = net.routers()[static_cast<std::size_t>(ra)].as_idx == as_idx;
    const bool b_in = net.routers()[static_cast<std::size_t>(rb)].as_idx == as_idx;
    if (a_in) near_routers.insert(rb);
    if (b_in) near_routers.insert(ra);
  }

  std::vector<int> ordered(near_routers.begin(), near_routers.end());
  std::sort(ordered.begin(), ordered.end());
  for (int rid : ordered) {
    if (!rng.chance(opt.alias_resolved_prob)) continue;
    std::vector<netbase::IPAddr> group;
    for (int fid : net.routers()[static_cast<std::size_t>(rid)].ifaces) {
      const auto& f = net.ifaces()[static_cast<std::size_t>(fid)];
      if (observed.contains(f.addr)) group.push_back(f.addr);
    }
    std::sort(group.begin(), group.end());
    out.aliases.add(group);
  }
  return out;
}

}  // namespace topo
