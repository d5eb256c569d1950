#include "baselines/mapit.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace baselines {
namespace {

using netbase::Asn;
using netbase::kNoAs;

struct Node {
  netbase::IPAddr addr;
  bgp::Origin origin;
  Asn owner = kNoAs;          ///< refined AS of the router using this iface
  bool seen_non_echo = false;
  bool seen_mid_path = false;
  std::unordered_map<int, int> succs;  ///< iface id -> observation count
  std::unordered_map<int, int> preds;
};

// Plurality AS among neighbor owners; kNoAs unless one AS holds at
// least `fraction` of all votes.
Asn plurality(const std::vector<Node>& nodes,
              const std::unordered_map<int, int>& neigh, double fraction) {
  std::unordered_map<Asn, int> votes;
  int total = 0;
  for (const auto& [id, count] : neigh) {
    const Asn a = nodes[static_cast<std::size_t>(id)].owner;
    if (a == kNoAs) continue;
    votes[a] += count;
    total += count;
  }
  if (total == 0) return kNoAs;
  std::vector<std::pair<Asn, int>> ordered(votes.begin(), votes.end());
  std::sort(ordered.begin(), ordered.end());
  Asn best = kNoAs;
  int best_count = -1;
  for (const auto& [a, c] : ordered)
    if (c > best_count) {
      best = a;
      best_count = c;
    }
  if (static_cast<double>(best_count) < fraction * static_cast<double>(total))
    return kNoAs;
  return best;
}

}  // namespace

std::vector<core::IfaceRecord> MapIt::run(
    const std::vector<tracedata::Traceroute>& corpus, const bgp::Ip2AS& ip2as,
    MapItOptions opt) {
  std::vector<Node> nodes;
  std::unordered_map<netbase::IPAddr, int> index;
  auto intern = [&](const netbase::IPAddr& a) {
    auto [it, inserted] = index.emplace(a, static_cast<int>(nodes.size()));
    if (inserted) {
      Node n;
      n.addr = a;
      n.origin = ip2as.lookup(a);
      n.owner = n.origin.announced() ? n.origin.asn : kNoAs;
      nodes.push_back(std::move(n));
    }
    return it->second;
  };

  for (const auto& t : corpus) {
    std::vector<int> idx;
    for (std::size_t k = 0; k < t.hops.size(); ++k) {
      const auto& h = t.hops[k];
      if (h.addr.is_private()) continue;
      const int id = intern(h.addr);
      if (h.reply != tracedata::ReplyType::echo_reply)
        nodes[static_cast<std::size_t>(id)].seen_non_echo = true;
      if (k + 1 < t.hops.size()) nodes[static_cast<std::size_t>(id)].seen_mid_path = true;
      idx.push_back(id);
    }
    for (std::size_t n = 0; n + 1 < idx.size(); ++n) {
      ++nodes[static_cast<std::size_t>(idx[n])].succs[idx[n + 1]];
      ++nodes[static_cast<std::size_t>(idx[n + 1])].preds[idx[n]];
    }
  }

  // Iterative refinement: an interface with origin A whose subsequent
  // neighbors plurality-map to B != A is on a B-operated router at an
  // A-B border; refined owners feed the next pass.
  std::vector<Asn> far(nodes.size(), kNoAs);  // connected AS per iface
  for (std::size_t i = 0; i < nodes.size(); ++i)
    far[i] = nodes[i].origin.announced() ? nodes[i].origin.asn : kNoAs;

  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      Node& n = nodes[i];
      if (!n.origin.announced() || n.origin.is_ixp()) continue;
      const Asn a = n.origin.asn;
      Asn new_owner = n.owner;
      Asn new_far = far[i];
      const Asn succ_as = plurality(nodes, n.succs, opt.plurality);
      const Asn pred_as = plurality(nodes, n.preds, opt.plurality);
      if (succ_as != kNoAs && succ_as != a) {
        // Router beyond the border: operated by the subsequent AS.
        new_owner = succ_as;
        new_far = a;
      } else if (pred_as != kNoAs && pred_as != a) {
        // Near side of a border: our router, preceding AS connects.
        new_owner = a;
        new_far = pred_as;
      } else {
        new_owner = a;
        new_far = a;
      }
      if (new_owner != n.owner || new_far != far[i]) {
        n.owner = new_owner;
        far[i] = new_far;
        changed = true;
      }
    }
    if (!changed) break;
  }

  std::vector<core::IfaceRecord> out;
  out.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i)
    out.push_back({nodes[i].addr, static_cast<std::uint32_t>(i),
                   {nodes[i].owner, far[i], nodes[i].origin.is_ixp(),
                    nodes[i].seen_non_echo, nodes[i].seen_mid_path}});
  core::sort_by_addr(out);
  return out;
}

}  // namespace baselines
