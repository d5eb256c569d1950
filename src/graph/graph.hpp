// graph/graph.hpp — Phase 1: the annotated IR graph (paper §4).
//
// From a traceroute corpus, alias sets, and an IP→AS map, Graph::build
// constructs exactly the structure bdrmapIT's phases 2 and 3 operate on:
//
//   * interfaces — one per distinct, non-private reply address, labeled
//     with its origin AS (longest-prefix match; IXP prefixes special);
//   * IRs (inferred routers) — alias groups of observed interfaces,
//     singletons for unresolved addresses;
//   * links — IR → subsequent interface edges with N/E/M confidence
//     labels (Table 3), keeping only the highest-confidence label seen;
//   * link origin AS sets L(IRi, j) (§4.3) and link destination AS sets
//     (used by the third-party test, §6.1.1);
//   * interface and IR destination AS sets with the reallocated-prefix
//     correction (§4.4).
//
// Every AS set, and every set of interface ids, is a sorted,
// duplicate-free std::vector (graph::is_set): the paper's rules read
// membership, never order, so the graph is a function of the corpus
// *set* up to interface, IR and link numbering.
//
// Private hops are treated as gaps: a link across them is Multihop
// unless the flanking origin ASes agree. Hop distance comes from probe
// TTL differences, so unresponsive hops widen distance the same way.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asrel/relstore.hpp"
#include "bgp/ip2as.hpp"
#include "netbase/asn.hpp"
#include "netbase/ip_addr.hpp"
#include "tracedata/alias.hpp"
#include "tracedata/traceroute.hpp"

namespace graph {

/// Link confidence labels, Table 3. Lower value = higher confidence.
enum class LinkLabel : std::uint8_t { nexthop = 1, echo = 2, multihop = 3 };

/// Vote counts, ascending by ASN.
using Votes = std::vector<std::pair<netbase::Asn, int>>;

struct Interface {
  int id = -1;
  netbase::IPAddr addr;
  bgp::Origin origin;
  int ir = -1;
  /// Dynamic annotation: the AS on the *other side* of this interface's
  /// link (Fig. 3). Initialized to the origin AS before refinement.
  netbase::Asn annotation = netbase::kNoAs;
  bool seen_non_echo = false;  ///< ever replied Time Exceeded / Unreachable
  bool seen_mid_path = false;  ///< ever observed before the final hop
  std::vector<netbase::Asn> dest_asns;  ///< §4.4, sorted set
  std::vector<int> in_links;   ///< link ids with this interface subsequent
};

struct Link {
  int id = -1;
  int ir = -1;     ///< source IR
  int iface = -1;  ///< subsequent interface
  LinkLabel label = LinkLabel::multihop;
  std::vector<netbase::Asn> origin_set;  ///< L(IRi, j), §4.3, sorted set
  std::vector<netbase::Asn> dest_asns;   ///< destinations crossing this link, sorted set
  /// §6.2 votes: the source IR's interfaces seen immediately prior to
  /// `iface` on this link, a sorted set of interface ids.
  std::vector<int> prev_ifaces;
};

struct IR {
  int id = -1;
  std::vector<int> ifaces;
  std::vector<int> out_links;
  std::vector<netbase::Asn> origin_set;  ///< announced iface origins, sorted set
  Votes origin_votes;  ///< iface count per origin; its ASNs are `origin_set`
  std::vector<netbase::Asn> dest_asns;   ///< §4.4 (post reallocation fix), sorted set
  netbase::Asn annotation = netbase::kNoAs;  ///< inferred operator
  bool last_hop = false;  ///< no outgoing links → phase-2 annotated, frozen
};

/// Aggregate statistics for the Table 3 population numbers.
struct GraphStats {
  std::size_t links_nexthop = 0;
  std::size_t links_echo = 0;
  std::size_t links_multihop = 0;
  std::size_t irs_with_links = 0;
  std::size_t irs_echo_only_links = 0;  ///< E links but no N links
  std::size_t interfaces = 0;
  std::size_t interfaces_mapped = 0;  ///< origin found in BGP/RIR/IXP
  std::size_t irs = 0;
  std::size_t last_hop_irs = 0;
  std::size_t last_hop_irs_empty_dest = 0;
};

class Graph {
 public:
  /// Builds the annotated IR graph. `rels` feeds the §4.4 reallocated-
  /// prefix correction (customer-cone sizes); pass a finalized store.
  ///
  /// `threads` bounds the executors used for the two corpus passes
  /// (<= 0 means hardware concurrency). The corpus is sharded and the
  /// per-shard partial graphs merged in shard order, which reproduces
  /// the serial first-seen numbering of interfaces, IRs and links; the
  /// sets are sorted. The result is identical for every thread count.
  static Graph build(const std::vector<tracedata::Traceroute>& corpus,
                     const tracedata::AliasSets& aliases, const bgp::Ip2AS& ip2as,
                     const asrel::RelStore& rels, int threads = 1);

  std::vector<Interface>& interfaces() noexcept { return ifaces_; }
  const std::vector<Interface>& interfaces() const noexcept { return ifaces_; }
  std::vector<IR>& irs() noexcept { return irs_; }
  const std::vector<IR>& irs() const noexcept { return irs_; }
  std::vector<Link>& links() noexcept { return links_; }
  const std::vector<Link>& links() const noexcept { return links_; }

  int iface_by_addr(const netbase::IPAddr& a) const noexcept {
    auto it = addr_index_.find(a);
    return it == addr_index_.end() ? -1 : it->second;
  }

  GraphStats stats() const;

 private:
  std::vector<Interface> ifaces_;
  std::vector<IR> irs_;
  std::vector<Link> links_;
  std::unordered_map<netbase::IPAddr, int> addr_index_;
};

/// True iff `v` is strictly ascending: the sorted, duplicate-free form
/// of every set in the graph.
template <typename T>
bool is_set(const std::vector<T>& v) noexcept {
  return std::adjacent_find(v.begin(), v.end(), std::greater_equal<>()) == v.end();
}

/// Sorts `v` and drops duplicates, making it a set.
template <typename T>
void make_set(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// Inserts `v` into the sorted set if absent.
template <typename T>
void set_insert(std::vector<T>& set, std::type_identity_t<T> v) {
  const auto it = std::lower_bound(set.begin(), set.end(), v);
  if (it == set.end() || *it != v) set.insert(it, v);
}

template <typename T>
bool set_contains(const std::vector<T>& set, std::type_identity_t<T> v) noexcept {
  return std::binary_search(set.begin(), set.end(), v);
}

/// Counts each distinct ASN of a sorted vector: ascending (asn, count).
inline Votes tally(const std::vector<netbase::Asn>& sorted) {
  Votes out;
  for (netbase::Asn a : sorted) {
    if (out.empty() || out.back().first != a) out.emplace_back(a, 0);
    ++out.back().second;
  }
  return out;
}

/// §6.2 votes for the AS connected through `b`: each distinct (source
/// IR, previous interface) pair over the in-links `use` accepts votes
/// for the source IR's annotation; unannotated IRs do not vote.
template <typename Use>
Votes prev_iface_votes(const Graph& g, const Interface& b, Use use) {
  std::vector<std::pair<int, int>> voters;
  for (int lid : b.in_links) {
    const Link& l = g.links()[static_cast<std::size_t>(lid)];
    if (use(l))
      for (int pf : l.prev_ifaces) voters.emplace_back(l.ir, pf);
  }
  make_set(voters);
  std::vector<netbase::Asn> owners;
  for (const auto& [ir, pf] : voters) {
    const netbase::Asn a = g.irs()[static_cast<std::size_t>(ir)].annotation;
    if (a != netbase::kNoAs) owners.push_back(a);
  }
  std::sort(owners.begin(), owners.end());
  return tally(owners);
}

}  // namespace graph
