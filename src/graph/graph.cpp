#include "graph/graph.hpp"

#include <algorithm>
#include <iterator>

#include "parallel/thread_pool.hpp"

namespace graph {
namespace {

/// Table 3 label for the edge i -> j.
LinkLabel classify(const Interface& i, const Interface& j, int hop_distance,
                   tracedata::ReplyType j_reply) {
  if (j_reply == tracedata::ReplyType::echo_reply)
    return hop_distance == 1 ? LinkLabel::echo : LinkLabel::multihop;
  const bool same_origin = i.origin.announced() && j.origin.announced() &&
                           i.origin.asn == j.origin.asn;
  if (same_origin || hop_distance == 1) return LinkLabel::nexthop;
  return LinkLabel::multihop;
}

constexpr std::uint8_t kSeenNonEcho = 1;
constexpr std::uint8_t kSeenMidPath = 2;

/// Pass A partial state for one corpus shard: the distinct non-private
/// addresses in shard-local first-seen order, each with its origin
/// lookup and observation flags.
struct ShardIfaces {
  std::unordered_map<netbase::IPAddr, int> index;  ///< addr -> local id
  std::vector<netbase::IPAddr> addrs;              ///< local first-seen order
  std::vector<bgp::Origin> origins;
  std::vector<std::uint8_t> flags;
};

/// Pass B partial state for one corpus shard: links keyed by global
/// (ir, iface) in shard-local first-seen order, with the shard's sets
/// and no id yet, plus the per-interface destination AS sets.
struct ShardLinks {
  std::unordered_map<std::uint64_t, int> index;  ///< link key -> local id
  std::vector<Link> links;                       ///< local first-seen order
  std::unordered_map<int, std::vector<netbase::Asn>> iface_dest;
  /// Memoized destination-origin lookups (§4.4): one Ip2AS lookup per
  /// distinct destination per shard instead of one per traceroute.
  std::unordered_map<netbase::IPAddr, netbase::Asn> dst_cache;
};

/// `set` becomes `set` ∪ `more`; both are sorted sets.
template <typename T>
void set_union_into(std::vector<T>& set, const std::vector<T>& more) {
  std::vector<T> out;
  std::set_union(set.begin(), set.end(), more.begin(), more.end(),
                 std::back_inserter(out));
  set.swap(out);
}

inline std::uint64_t link_key(int ir, int iface) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ir)) << 32) |
         static_cast<std::uint32_t>(iface);
}

}  // namespace

Graph Graph::build(const std::vector<tracedata::Traceroute>& corpus,
                   const tracedata::AliasSets& aliases, const bgp::Ip2AS& ip2as,
                   const asrel::RelStore& rels, int threads) {
  Graph g;
  const std::size_t n_shards = parallel::shard_count(corpus.size(), threads);

  // ---- Pass A: interfaces (sharded) ------------------------------------
  // Each shard interns the addresses of a contiguous corpus slice.
  // Merging the shards' first-seen sequences in shard order reproduces
  // the serial interning order exactly, so interface ids are identical
  // for every thread count.
  std::vector<ShardIfaces> iface_shards(n_shards);
  parallel::parallel_shards(
      corpus.size(), static_cast<int>(n_shards),
      [&](std::size_t s, std::size_t lo, std::size_t hi) {
        ShardIfaces& sh = iface_shards[s];
        for (std::size_t ti = lo; ti < hi; ++ti) {
          const auto& t = corpus[ti];
          for (std::size_t k = 0; k < t.hops.size(); ++k) {
            const auto& h = t.hops[k];
            if (h.addr.is_private()) continue;
            auto [it, inserted] =
                sh.index.emplace(h.addr, static_cast<int>(sh.addrs.size()));
            if (inserted) {
              sh.addrs.push_back(h.addr);
              sh.origins.push_back(ip2as.lookup(h.addr));
              sh.flags.push_back(0);
            }
            std::uint8_t& fl = sh.flags[static_cast<std::size_t>(it->second)];
            if (h.reply != tracedata::ReplyType::echo_reply) fl |= kSeenNonEcho;
            if (k + 1 < t.hops.size()) fl |= kSeenMidPath;
          }
        }
      });
  for (const ShardIfaces& sh : iface_shards) {
    for (std::size_t li = 0; li < sh.addrs.size(); ++li) {
      auto [it, inserted] =
          g.addr_index_.emplace(sh.addrs[li], static_cast<int>(g.ifaces_.size()));
      if (inserted) {
        Interface f;
        f.id = it->second;
        f.addr = sh.addrs[li];
        f.origin = sh.origins[li];
        g.ifaces_.push_back(std::move(f));
      }
      Interface& f = g.ifaces_[static_cast<std::size_t>(it->second)];
      if (sh.flags[li] & kSeenNonEcho) f.seen_non_echo = true;
      if (sh.flags[li] & kSeenMidPath) f.seen_mid_path = true;
    }
  }

  // ---- IR assignment: alias groups, then singletons --------------------
  std::unordered_map<std::size_t, int> alias_ir;  // alias set id -> IR id
  auto ir_for = [&](Interface& f) {
    if (f.ir >= 0) return f.ir;
    const std::size_t set = aliases.find(f.addr);
    if (set != tracedata::AliasSets::npos) {
      auto [it, inserted] = alias_ir.emplace(set, static_cast<int>(g.irs_.size()));
      if (inserted) {
        IR ir;
        ir.id = it->second;
        g.irs_.push_back(std::move(ir));
      }
      f.ir = it->second;
    } else {
      f.ir = static_cast<int>(g.irs_.size());
      IR ir;
      ir.id = f.ir;
      g.irs_.push_back(std::move(ir));
    }
    g.irs_[static_cast<std::size_t>(f.ir)].ifaces.push_back(f.id);
    return f.ir;
  };
  for (auto& f : g.ifaces_) ir_for(f);

  // ---- Pass B: links, origin AS sets, destination AS sets (sharded) ----
  // Shards read the now-frozen interface table and accumulate partial
  // link state; the merge walks shards in order, so link ids match the
  // serial corpus-order build, and unions each shard's sets.
  std::vector<ShardLinks> link_shards(n_shards);
  parallel::parallel_shards(
      corpus.size(), static_cast<int>(n_shards),
      [&](std::size_t s, std::size_t lo, std::size_t hi_end) {
        ShardLinks& sh = link_shards[s];
        // Hoisted per-traceroute scratch: hop indices of responsive
        // non-private hops, and their interned interface ids (one
        // addr_index_ hash per hop, not one per use).
        std::vector<std::size_t> idx;
        std::vector<int> ids;
        for (std::size_t ti = lo; ti < hi_end; ++ti) {
          const auto& t = corpus[ti];
          netbase::Asn dest_asn;
          if (auto dit = sh.dst_cache.find(t.dst); dit != sh.dst_cache.end()) {
            dest_asn = dit->second;
          } else {
            const bgp::Origin dst_origin = ip2as.lookup(t.dst);
            dest_asn = dst_origin.announced() ? dst_origin.asn : netbase::kNoAs;
            sh.dst_cache.emplace(t.dst, dest_asn);
          }

          idx.clear();
          ids.clear();
          for (std::size_t k = 0; k < t.hops.size(); ++k)
            if (!t.hops[k].addr.is_private()) {
              idx.push_back(k);
              ids.push_back(g.addr_index_.at(t.hops[k].addr));
            }
          if (idx.empty()) continue;

          // Interface destination AS sets (§4.4); skip the final hop
          // when the traceroute ended in an Echo Reply.
          if (dest_asn != netbase::kNoAs) {
            for (std::size_t n = 0; n < idx.size(); ++n) {
              const auto& h = t.hops[idx[n]];
              if (n + 1 == idx.size() && h.reply == tracedata::ReplyType::echo_reply)
                continue;
              set_insert(sh.iface_dest[ids[n]], dest_asn);
            }
          }

          for (std::size_t n = 0; n + 1 < idx.size(); ++n) {
            const auto& hj = t.hops[idx[n + 1]];
            const Interface& fi = g.ifaces_[static_cast<std::size_t>(ids[n])];
            const Interface& fj = g.ifaces_[static_cast<std::size_t>(ids[n + 1])];
            if (fi.ir == fj.ir) continue;  // alias-internal transition: not a link

            auto [it, inserted] = sh.index.emplace(link_key(fi.ir, fj.id),
                                                   static_cast<int>(sh.links.size()));
            if (inserted) {
              Link l;
              l.ir = fi.ir;
              l.iface = fj.id;
              sh.links.push_back(std::move(l));
            }
            Link& l = sh.links[static_cast<std::size_t>(it->second)];
            const int dist = hj.probe_ttl - t.hops[idx[n]].probe_ttl;
            const LinkLabel label = classify(fi, fj, dist, hj.reply);
            if (static_cast<std::uint8_t>(label) < static_cast<std::uint8_t>(l.label))
              l.label = label;
            if (fi.origin.announced()) set_insert(l.origin_set, fi.origin.asn);
            if (dest_asn != netbase::kNoAs) set_insert(l.dest_asns, dest_asn);
            set_insert(l.prev_ifaces, fi.id);
          }
        }
      });

  std::unordered_map<std::uint64_t, int> link_index;  // (ir, iface) -> link id
  for (ShardLinks& sh : link_shards) {
    for (Link& pl : sh.links) {
      auto [it, inserted] = link_index.emplace(link_key(pl.ir, pl.iface),
                                               static_cast<int>(g.links_.size()));
      if (inserted) {
        pl.id = it->second;
        g.irs_[static_cast<std::size_t>(pl.ir)].out_links.push_back(pl.id);
        g.ifaces_[static_cast<std::size_t>(pl.iface)].in_links.push_back(pl.id);
        g.links_.push_back(std::move(pl));
        continue;
      }
      Link& l = g.links_[static_cast<std::size_t>(it->second)];
      if (static_cast<std::uint8_t>(pl.label) < static_cast<std::uint8_t>(l.label))
        l.label = pl.label;
      set_union_into(l.origin_set, pl.origin_set);
      set_union_into(l.dest_asns, pl.dest_asns);
      set_union_into(l.prev_ifaces, pl.prev_ifaces);
    }
    for (const auto& [fid, dests] : sh.iface_dest)
      set_union_into(g.ifaces_[static_cast<std::size_t>(fid)].dest_asns, dests);
  }

  // ---- §4.4: reallocated-prefix correction on interface dest sets ------
  for (auto& f : g.ifaces_) {
    if (f.dest_asns.size() != 2 || !f.origin.announced() ||
        !set_contains(f.dest_asns, f.origin.asn))
      continue;
    const netbase::Asn matching = f.origin.asn;
    const netbase::Asn other =
        f.dest_asns[0] == matching ? f.dest_asns[1] : f.dest_asns[0];
    if (rels.cone_size(other) > 5) continue;
    if (rels.has_relationship(matching, other)) continue;
    // Aggregation hid the relationship: drop the reallocating provider
    // (the AS with the larger customer cone).
    const netbase::Asn drop =
        rels.cone_size(matching) >= rels.cone_size(other) ? matching : other;
    f.dest_asns.erase(std::find(f.dest_asns.begin(), f.dest_asns.end(), drop));
  }

  // ---- IR aggregates ----------------------------------------------------
  std::vector<netbase::Asn> origins;
  for (auto& ir : g.irs_) {
    origins.clear();
    for (int fid : ir.ifaces) {
      const Interface& f = g.ifaces_[static_cast<std::size_t>(fid)];
      if (f.origin.announced()) origins.push_back(f.origin.asn);
      ir.dest_asns.insert(ir.dest_asns.end(), f.dest_asns.begin(), f.dest_asns.end());
    }
    std::sort(origins.begin(), origins.end());
    ir.origin_votes = tally(origins);
    for (const auto& [asn, votes] : ir.origin_votes) ir.origin_set.push_back(asn);
    make_set(ir.dest_asns);
    ir.last_hop = ir.out_links.empty();
  }
  return g;
}

GraphStats Graph::stats() const {
  GraphStats s;
  s.interfaces = ifaces_.size();
  for (const auto& f : ifaces_)
    if (f.origin.kind != bgp::OriginKind::none &&
        f.origin.kind != bgp::OriginKind::private_addr)
      ++s.interfaces_mapped;
  s.irs = irs_.size();
  for (const auto& l : links_) {
    switch (l.label) {
      case LinkLabel::nexthop: ++s.links_nexthop; break;
      case LinkLabel::echo: ++s.links_echo; break;
      case LinkLabel::multihop: ++s.links_multihop; break;
    }
  }
  for (const auto& ir : irs_) {
    if (ir.last_hop) {
      ++s.last_hop_irs;
      if (ir.dest_asns.empty()) ++s.last_hop_irs_empty_dest;
      continue;
    }
    ++s.irs_with_links;
    bool has_n = false, has_e = false;
    for (int lid : ir.out_links) {
      const LinkLabel lab = links_[static_cast<std::size_t>(lid)].label;
      has_n |= lab == LinkLabel::nexthop;
      has_e |= lab == LinkLabel::echo;
    }
    if (has_e && !has_n) ++s.irs_echo_only_links;
  }
  return s;
}

}  // namespace graph
