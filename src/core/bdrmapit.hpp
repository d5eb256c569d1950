// core/bdrmapit.hpp — the public entry point: run bdrmapIT end to end.
//
// Usage:
//   bgp::Ip2AS ip2as = bgp::Ip2AS::build(rib, delegations, ixp_prefixes);
//   asrel::RelStore rels = ...;              // loaded or inferred
//   core::Result r = core::Bdrmapit::run(traceroutes, aliases, ip2as, rels);
//   for (const core::IfaceRecord& rec : r.interfaces) { ... }
//   const core::IfaceRecord* hit = core::find_iface(r.interfaces, addr);
//
// The Result exposes, for every observed interface address, the
// inferred operator of its router and the AS inferred to be on the
// other side of its link; an interdomain link is inferred wherever the
// two differ (Fig. 3). The records form one address-sorted table: the
// TSV, the snapshot and every evaluation read it as it is.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "asrel/relstore.hpp"
#include "bgp/ip2as.hpp"
#include "core/annotator.hpp"
#include "graph/graph.hpp"
#include "tracedata/alias.hpp"
#include "tracedata/traceroute.hpp"

namespace core {

/// Final inference for one observed interface address.
struct IfaceInference {
  netbase::Asn router_as = netbase::kNoAs;  ///< operator of the interface's IR
  netbase::Asn conn_as = netbase::kNoAs;    ///< AS on the other side of the link
  bool ixp = false;             ///< address inside an IXP prefix
  bool seen_non_echo = false;   ///< replied with Time Exceeded / Unreachable
  bool seen_mid_path = false;   ///< observed before the final hop somewhere

  /// An interdomain link is inferred at this interface.
  bool interdomain() const noexcept {
    return router_as != netbase::kNoAs && conn_as != netbase::kNoAs &&
           router_as != conn_as;
  }

  bool operator==(const IfaceInference&) const = default;
};

/// One row of the output: an observed interface address, the router
/// (IR) it belongs to, and the final inference. The snapshot stores
/// these records as they are.
struct IfaceRecord {
  netbase::IPAddr addr;
  std::uint32_t router_id = 0;  ///< dense id; shared by aliases of one IR
  IfaceInference inf;

  bool operator==(const IfaceRecord&) const = default;
};

/// Sorts records into a table strictly ascending by address (the
/// addresses must be distinct).
void sort_by_addr(std::vector<IfaceRecord>& table);

/// The record for `addr` in an address-sorted table, or nullptr. Every
/// lookup into a result or snapshot goes through this one search.
inline const IfaceRecord* find_iface(std::span<const IfaceRecord> table,
                                     const netbase::IPAddr& addr) noexcept {
  const auto it = std::ranges::lower_bound(table, addr, {}, &IfaceRecord::addr);
  return it != table.end() && it->addr == addr ? &*it : nullptr;
}

struct Result {
  graph::Graph graph;  ///< fully annotated IR graph
  int iterations = 0;  ///< refinement iterations to the repeated state
  /// Annotation churn per refinement sweep (§6.3 convergence signature).
  std::vector<Annotator::IterationStats> iteration_stats;
  /// One record per graph interface, strictly ascending by address.
  std::vector<IfaceRecord> interfaces;

  /// Distinct inferred AS-level adjacencies (unordered pairs).
  std::vector<std::pair<netbase::Asn, netbase::Asn>> as_links() const;
};

class Bdrmapit {
 public:
  static Result run(const std::vector<tracedata::Traceroute>& corpus,
                    const tracedata::AliasSets& aliases, const bgp::Ip2AS& ip2as,
                    const asrel::RelStore& rels, AnnotatorOptions opt = {});

  /// Phases 2+3 over an already-built graph, packaged into a Result.
  /// `run` is `Graph::build` followed by this; callers that need to
  /// inspect (or audit) the graph between the stages use the two steps
  /// directly.
  static Result annotate_and_package(graph::Graph graph, const asrel::RelStore& rels,
                                     AnnotatorOptions opt = {});
};

}  // namespace core
