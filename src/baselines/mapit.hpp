// baselines/mapit.hpp — MAP-IT baseline (Marder & Smith, IMC 2016).
//
// MAP-IT is the interface-graph predecessor bdrmapIT compares against
// in §7.2: it consumes the same multi-VP traceroute corpus but
//
//   * uses no alias resolution (every interface is its own node),
//   * uses no destination-AS information (so links visible only as the
//     last hop of traceroutes are invisible to it), and
//   * has none of the bdrmap-derived edge heuristics (multihomed
//     customers, reallocated prefixes, hidden ASes).
//
// Its core inference: an interface whose address is originated by one
// AS, where a plurality (>= half of votes) of its subsequent interfaces
// map to another AS, sits on an interdomain link between the two; after
// each sweep the refined IP→AS mapping feeds the next iteration, until
// a pass changes nothing.

#pragma once

#include <vector>

#include "bgp/ip2as.hpp"
#include "core/bdrmapit.hpp"
#include "netbase/ip_addr.hpp"
#include "tracedata/traceroute.hpp"

namespace baselines {

struct MapItOptions {
  double plurality = 0.5;   ///< fraction of neighbor votes required
  int max_iterations = 50;
};

class MapIt {
 public:
  /// Runs MAP-IT; the result is an address-sorted table with the
  /// inferred (router AS, connected AS) pair of every observed interface,
  /// in core::Bdrmapit's format. MAP-IT resolves no aliases, so each
  /// interface is its own router.
  static std::vector<core::IfaceRecord> run(
      const std::vector<tracedata::Traceroute>& corpus, const bgp::Ip2AS& ip2as,
      MapItOptions opt = {});
};

}  // namespace baselines
