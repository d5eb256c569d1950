// baselines/bdrmap.hpp — bdrmap baseline (Luckie et al., IMC 2016).
//
// bdrmap maps the border of a *single* network from one VP inside it
// (§2, §7.1). This implementation follows its inference component:
//
//   1. Build the IR graph (bdrmap does use alias resolution).
//   2. Identify routers internal to the VP network — every IR observed
//      before an interface whose address the VP network announces.
//   3. Walk outward breadth-first by hop count. The first IRs past the
//      internal set sit on the border; ownership heuristics assign them
//      to the VP AS or a neighbor using addressing convention (transit
//      interfaces use provider space), AS relationships, and — for
//      silent edge networks — the destinations of the traceroutes that
//      end on them.
//
// bdrmap makes no inferences deeper than the first AS boundary; beyond
// it, routers keep their origin-AS mapping. That limitation is exactly
// what bdrmapIT removes, and what the Fig. 15/16 comparisons measure.

#pragma once

#include <vector>

#include "asrel/relstore.hpp"
#include "bgp/ip2as.hpp"
#include "core/bdrmapit.hpp"
#include "tracedata/alias.hpp"
#include "tracedata/traceroute.hpp"

namespace baselines {

class Bdrmap {
 public:
  /// Runs bdrmap for `vp_asn` over a corpus gathered from a VP inside
  /// that network. Output is core::Bdrmapit's address-sorted table,
  /// for shared evaluation.
  static std::vector<core::IfaceRecord> run(
      const std::vector<tracedata::Traceroute>& corpus,
      const tracedata::AliasSets& aliases, const bgp::Ip2AS& ip2as,
      const asrel::RelStore& rels, netbase::Asn vp_asn);
};

}  // namespace baselines
