#include "core/annotator.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "parallel/thread_pool.hpp"

namespace core {
namespace {

using netbase::Asn;
using netbase::kNoAs;

}  // namespace

netbase::Asn Annotator::min_cone(const std::vector<Asn>& cands) const {
  Asn best = kNoAs;
  std::size_t best_cone = 0;
  for (Asn a : cands) {
    const std::size_t c = rels_.cone_size(a);
    if (best == kNoAs || c < best_cone || (c == best_cone && a < best)) {
      best = a;
      best_cone = c;
    }
  }
  return best;
}

netbase::Asn Annotator::top_vote(const std::vector<std::pair<Asn, int>>& votes) const {
  Asn best = kNoAs;
  int best_count = -1;
  std::size_t best_cone = 0;
  for (const auto& [a, count] : votes) {
    const std::size_t c = rels_.cone_size(a);
    // Ties broken toward the likely customer: the smallest customer
    // cone (§6.1.4), then lowest ASN for determinism.
    if (count > best_count ||
        (count == best_count && (c < best_cone || (c == best_cone && a < best)))) {
      best = a;
      best_count = count;
      best_cone = c;
    }
  }
  return best;
}

// ======================================================================
// Phase 2: last hops (§5)
// ======================================================================
//
// The last-hop procedure is a rule cascade: try each clause of the
// paper's Alg. 1 in order, stop at the first that decides. The two
// drivers below walk constexpr tables of {paper clause, rule method}
// entries, so adding or reordering a clause is a table edit, not a new
// branch in a nested if chain.

namespace {

// One cascade step. apply() returns the final annotation when the rule
// decides — an engaged optional, possibly kNoAs — and nullopt to fall
// through to the next rule. paper_rule names the clause implemented.
struct LastHopRule {
  const char* paper_rule;
  std::optional<netbase::Asn> (Annotator::*apply)(const graph::IR&) const;
};

}  // namespace

// §5.1: an origin AS with a relationship to every other origin AS. A
// single candidate is min_cone of itself, so one call covers both the
// unique and the reallocated-prefix (smallest-cone) outcomes.
std::optional<netbase::Asn> Annotator::lh_origin_related_to_all(
    const graph::IR& ir) const {
  const auto& origins = ir.origin_set;
  std::vector<Asn> related_to_all;
  for (Asn a : origins) {
    bool all = true;
    for (Asn b : origins)
      if (b != a && !rels_.has_relationship(a, b)) {
        all = false;
        break;
      }
    if (all) related_to_all.push_back(a);
  }
  if (related_to_all.empty()) return std::nullopt;
  return min_cone(related_to_all);
}

// §5.1: an AS outside the set with a relationship to every member — it
// is the network the router interconnects with all of them.
std::optional<netbase::Asn> Annotator::lh_outside_related_to_all(
    const graph::IR& ir) const {
  const auto& origins = ir.origin_set;
  std::vector<Asn> outside;
  const Asn o0 = origins.front();
  std::unordered_set<Asn> cands;
  for (Asn n : rels_.customers(o0)) cands.insert(n);
  for (Asn n : rels_.providers(o0)) cands.insert(n);
  for (Asn n : rels_.peers(o0)) cands.insert(n);
  for (Asn c : cands) {
    if (graph::set_contains(origins, c)) continue;
    bool all = true;
    for (Asn o : origins)
      if (!rels_.has_relationship(c, o)) {
        all = false;
        break;
      }
    if (all) outside.push_back(c);
  }
  if (outside.empty()) return std::nullopt;
  return min_cone(outside);
}

// §5.1 fallback: the origin with the most interface mappings. Always
// decides.
std::optional<netbase::Asn> Annotator::lh_top_origin_vote(
    const graph::IR& ir) const {
  return top_vote(ir.origin_votes);
}

// Alg. 1 line 3: destination ASes overlapping the origin set; multiple
// overlaps mean a reallocated prefix — pick the likely customer
// (smallest cone, which a singleton trivially is).
std::optional<netbase::Asn> Annotator::lh_dest_origin_overlap(
    const graph::IR& ir) const {
  std::vector<Asn> overlap;
  for (Asn d : ir.dest_asns)
    if (graph::set_contains(ir.origin_set, d)) overlap.push_back(d);
  if (overlap.empty()) return std::nullopt;
  return min_cone(overlap);
}

// Alg. 1 lines 4-6: destination ASes related to an origin AS; pick the
// one covering the most destinations (largest |cone(d) ∩ D|) — the
// likely transit provider for the others.
std::optional<netbase::Asn> Annotator::lh_dest_related_best_cover(
    const graph::IR& ir) const {
  const auto& D = ir.dest_asns;
  std::vector<Asn> d_rel;
  for (Asn d : D)
    for (Asn o : ir.origin_set)
      if (rels_.has_relationship(d, o)) {
        d_rel.push_back(d);
        break;
      }
  if (d_rel.empty()) return std::nullopt;
  Asn best = kNoAs;
  std::size_t best_overlap = 0;
  std::size_t best_cone = 0;
  for (Asn d : d_rel) {
    std::size_t ov = 0;
    for (Asn x : D)
      if (rels_.in_cone(d, x)) ++ov;
    const std::size_t c = rels_.cone_size(d);
    if (best == kNoAs || ov > best_overlap ||
        (ov == best_overlap && (c < best_cone || (c == best_cone && d < best)))) {
      best = d;
      best_overlap = ov;
      best_cone = c;
    }
  }
  return best;
}

// Alg. 1 lines 7-10: no relationship at all — look for a single AS
// bridging origins and destinations (customer of an origin, provider
// of a destination); otherwise the smallest-cone destination. Always
// decides.
std::optional<netbase::Asn> Annotator::lh_bridge_or_min_cone_dest(
    const graph::IR& ir) const {
  const Asn a = min_cone(ir.dest_asns);
  std::unordered_set<Asn> origin_customers;
  for (Asn o : ir.origin_set)
    for (Asn c : rels_.customers(o)) origin_customers.insert(c);
  std::vector<Asn> bridge;
  for (Asn p : rels_.providers(a))
    if (origin_customers.contains(p)) bridge.push_back(p);
  if (bridge.size() == 1) return bridge.front();
  return a;
}

netbase::Asn Annotator::last_hop_empty_dest(const graph::IR& ir) const {
  if (ir.origin_set.empty()) return kNoAs;
  static constexpr LastHopRule kRules[] = {
      {"§5.1 origin related to all origins", &Annotator::lh_origin_related_to_all},
      {"§5.1 outside AS related to all origins",
       &Annotator::lh_outside_related_to_all},
      {"§5.1 most interface mappings", &Annotator::lh_top_origin_vote},
  };
  for (const LastHopRule& rule : kRules)
    if (const std::optional<Asn> a = (this->*rule.apply)(ir)) return *a;
  return kNoAs;
}

netbase::Asn Annotator::last_hop_with_dest(const graph::IR& ir) const {
  static constexpr LastHopRule kRules[] = {
      {"Alg.1 line 3 dest/origin overlap", &Annotator::lh_dest_origin_overlap},
      {"Alg.1 lines 4-6 related dest, best cover",
       &Annotator::lh_dest_related_best_cover},
      {"Alg.1 lines 7-10 hidden bridge / min-cone dest",
       &Annotator::lh_bridge_or_min_cone_dest},
  };
  for (const LastHopRule& rule : kRules)
    if (const std::optional<Asn> a = (this->*rule.apply)(ir)) return *a;
  return kNoAs;
}

void Annotator::annotate_last_hops() {
  for (auto& ir : g_.irs()) {
    if (!ir.last_hop) continue;
    ir.annotation = (ir.dest_asns.empty() || !opt_.use_last_hop_dest)
                        ? last_hop_empty_dest(ir)
                        : last_hop_with_dest(ir);
  }
}

// ======================================================================
// Phase 3: Alg. 3 — per-link vote (§6.1.1)
// ======================================================================

netbase::Asn Annotator::link_vote(const graph::IR& ir, const graph::Link& l) const {
  (void)ir;
  return link_vote(l, ir_annotations());
}

netbase::Asn Annotator::link_vote(const graph::Link& l,
                                  const std::vector<Asn>& ir_annot) const {
  const graph::Interface& j = g_.interfaces()[static_cast<std::size_t>(l.iface)];

  // Line 1: the subsequent origin already appeared on this side of the
  // link — an intradomain step or provider-addressed border; trust it.
  if (j.origin.announced() && graph::set_contains(l.origin_set, j.origin.asn))
    return j.origin.asn;

  // Line 2: IXP public peering address. Vote for the likely transit
  // provider among the ASes seen before the link (largest cone).
  if (j.origin.is_ixp()) {
    Asn best = kNoAs;
    std::size_t best_cone = 0;
    for (Asn a : l.origin_set) {
      const std::size_t c = rels_.cone_size(a);
      if (best == kNoAs || c > best_cone || (c == best_cone && a < best)) {
        best = a;
        best_cone = c;
      }
    }
    return best;
  }

  const Asn ir_j = ir_annot[static_cast<std::size_t>(j.ir)];

  // Line 5 (guarded by line 4): unannounced subsequent address — vote
  // for its IR's annotation instead, letting annotations propagate
  // across unannounced chains (Fig. 8). No annotation yet → no vote.
  if (!j.origin.announced()) return ir_j;

  // Lines 6-8: third-party address test. The reply could have come from
  // an off-path interface if (a) the traceroute could reach the
  // annotated AS without crossing the origin AS (a relationship between
  // a link origin and the IR annotation), and (b) no probe crossing
  // this link was destined to the origin AS. Skip entirely when j's IR
  // has no annotation yet (first iteration).
  if (opt_.use_third_party && ir_j != kNoAs && j.origin.asn != ir_j) {
    bool related = false;
    for (Asn a : l.origin_set)
      if (rels_.has_relationship(a, ir_j)) {
        related = true;
        break;
      }
    if (related && !graph::set_contains(l.dest_asns, j.origin.asn)) return ir_j;
  }

  // Line 9: the common case — the interface's own annotation.
  return j.annotation;
}

// ======================================================================
// Phase 3: Alg. 2 — annotate one IR (§6.1)
// ======================================================================

netbase::Asn Annotator::annotate_ir(const graph::IR& ir) const {
  return annotate_ir(ir, ir_annotations());
}

netbase::Asn Annotator::annotate_ir(const graph::IR& ir,
                                    const std::vector<Asn>& ir_annot) const {
  // §4.2/§6.1.1: use only the highest-confidence link class present.
  graph::LinkLabel best_class = graph::LinkLabel::multihop;
  if (opt_.use_link_class_filter)
    for (int lid : ir.out_links)
      best_class =
          std::min(best_class, g_.links()[static_cast<std::size_t>(lid)].label);

  std::unordered_map<Asn, int> V;
  std::unordered_map<Asn, std::vector<Asn>> M;  // vote AS -> link origin ASes
  struct LinkVote {
    const graph::Link* link;
    Asn vote;
  };
  std::vector<LinkVote> link_votes;

  for (int lid : ir.out_links) {
    const graph::Link& l = g_.links()[static_cast<std::size_t>(lid)];
    if (l.label != best_class) continue;
    const Asn a = link_vote(l, ir_annot);
    if (a == kNoAs) continue;
    ++V[a];
    for (Asn o : l.origin_set) graph::set_insert(M[a], o);
    link_votes.emplace_back(&l, a);
  }

  // §6.1.2: reallocated prefixes. Among subsequent interfaces whose
  // vote landed on an IR origin AS: if there are several, they share a
  // /24, their IRs all carry one annotation X, and X is a customer of
  // an IR origin AS, move their votes from the provider to X.
  if (opt_.use_reallocated) {
    std::vector<const LinkVote*> in_origin;
    for (const auto& lv : link_votes)
      if (graph::set_contains(ir.origin_set, lv.vote)) in_origin.push_back(&lv);
    if (in_origin.size() >= 2) {
      bool same24 = true;
      Asn x = kNoAs;
      bool same_annot = true;
      const netbase::IPAddr first_addr =
          g_.interfaces()[static_cast<std::size_t>(in_origin.front()->link->iface)].addr;
      for (const auto* lv : in_origin) {
        const graph::Interface& j =
            g_.interfaces()[static_cast<std::size_t>(lv->link->iface)];
        if (!j.addr.matches(first_addr, 24)) same24 = false;
        const Asn annot = ir_annot[static_cast<std::size_t>(j.ir)];
        if (x == kNoAs)
          x = annot;
        else if (annot != x)
          same_annot = false;
      }
      bool x_customer = false;
      if (x != kNoAs)
        for (Asn o : ir.origin_set)
          if (rels_.is_provider_of(o, x)) {
            x_customer = true;
            break;
          }
      if (same24 && same_annot && x != kNoAs && x_customer) {
        for (const auto* lv : in_origin) {
          --V[lv->vote];
          ++V[x];
          for (Asn o : lv->link->origin_set) graph::set_insert(M[x], o);
        }
      }
    }
  }

  // Distinct subsequent ASes after the reallocation fix.
  std::vector<Asn> sub_asns;
  for (const auto& [a, count] : V)
    if (count > 0) sub_asns.push_back(a);
  std::sort(sub_asns.begin(), sub_asns.end());

  // Line 9: one vote per IR interface, by origin AS.
  for (const auto& [a, count] : ir.origin_votes) V[a] += count;

  graph::Votes votes(V.begin(), V.end());
  std::sort(votes.begin(), votes.end());
  int max_count = 0;
  for (const auto& [a, c] : votes) max_count = std::max(max_count, c);

  // §6.1.3 exception 1: multihomed customer. A single subsequent AS
  // that is a customer of an IR origin AS operates the router, even if
  // the provider's addresses dominate the vote (Fig. 11).
  if (opt_.use_exceptions && sub_asns.size() == 1) {
    const Asn s = sub_asns.front();
    for (Asn o : ir.origin_set)
      if (rels_.is_provider_of(o, s)) return s;
  }

  // §6.1.3 exception 2: multiple peers/providers around a common
  // denominator. Applies only with at least half the top vote count.
  if (opt_.use_exceptions) {
    Asn selected = kNoAs;
    if (ir.origin_set.size() == 1 && sub_asns.size() > 1) {
      const Asn o = ir.origin_set.front();
      bool all = true;
      for (Asn s : sub_asns) {
        const asrel::Rel r = rels_.rel(o, s);
        if (s != o && r != asrel::Rel::p2p && r != asrel::Rel::c2p) {
          all = false;
          break;
        }
      }
      if (all) selected = o;
    } else if (ir.origin_set.size() > 1 && sub_asns.size() == 1) {
      const Asn s = sub_asns.front();
      bool all = true;
      for (Asn o : ir.origin_set) {
        const asrel::Rel r = rels_.rel(o, s);
        if (r != asrel::Rel::p2p && r != asrel::Rel::c2p) {
          all = false;
          break;
        }
      }
      if (all) selected = s;
    }
    if (selected != kNoAs) {
      auto it = V.find(selected);
      if (it != V.end() && 2 * it->second >= max_count) return selected;
    }
  }

  if (votes.empty()) return kNoAs;

  // §6.1.4: restrict the election to origin ASes plus subsequent ASes
  // with an observed relationship to a link origin AS.
  std::vector<std::pair<Asn, int>> restricted;
  bool extra = false;
  for (const auto& [a, c] : votes) {
    const bool is_origin = graph::set_contains(ir.origin_set, a);
    bool rel_to_origin = false;
    auto mit = M.find(a);
    if (mit != M.end())
      for (Asn o : mit->second)
        if (rels_.has_relationship(o, a)) {
          rel_to_origin = true;
          break;
        }
    if (is_origin || rel_to_origin) {
      restricted.emplace_back(a, c);
      if (!is_origin) extra = true;
    }
  }
  if (extra) return top_vote(restricted);

  // Line 13: fall back to all votes, then check for a hidden AS.
  const Asn a = top_vote(votes);
  if (a == kNoAs) return kNoAs;
  if (!opt_.use_hidden_as) return a;
  for (Asn o : ir.origin_set)
    if (o == a || rels_.has_relationship(a, o)) return a;

  // §6.1.5: hidden AS. Look for a single AS bridging the origins seen
  // before links that voted for `a` and `a` itself (Fig. 12): a
  // customer of an origin that is a provider of `a`, or symmetrically a
  // customer of `a` that provides a subsequent AS.
  std::vector<Asn> bridge;
  auto mit = M.find(a);
  if (mit != M.end()) {
    for (Asn o : mit->second)
      for (Asn h : rels_.customers(o))
        if (rels_.is_provider_of(h, a)) graph::set_insert(bridge, h);
  }
  if (bridge.empty()) {
    for (Asn h : rels_.customers(a))
      for (Asn s : sub_asns)
        if (rels_.is_provider_of(h, s)) graph::set_insert(bridge, h);
  }
  if (bridge.size() == 1) return bridge.front();
  return a;
}

std::vector<netbase::Asn> Annotator::ir_annotations() const {
  std::vector<Asn> snap(g_.irs().size());
  for (std::size_t i = 0; i < snap.size(); ++i) snap[i] = g_.irs()[i].annotation;
  return snap;
}

bool Annotator::annotate_irs() {
  auto& irs = g_.irs();
  // Jacobi sweep: every IR is annotated against the previous
  // iteration's frozen annotations, then all updates commit at once —
  // order-independent, hence parallel with identical results for any
  // thread count.
  const std::vector<Asn> prev = ir_annotations();
  std::vector<Asn> next(irs.size(), kNoAs);
  parallel::parallel_for(irs.size(), opt_.threads, [&](std::size_t i) {
    if (!irs[i].last_hop) next[i] = annotate_ir(irs[i], prev);
  });
  std::size_t changed = 0;
  for (std::size_t i = 0; i < irs.size(); ++i) {
    if (irs[i].last_hop) continue;
    if (next[i] != kNoAs && next[i] != irs[i].annotation) {
      irs[i].annotation = next[i];
      ++changed;
    }
  }
  if (!stats_.empty()) stats_.back().changed_irs = changed;
  return changed > 0;
}

// ======================================================================
// Phase 3: §6.2 — annotate interfaces
// ======================================================================

netbase::Asn Annotator::interface_choice(const graph::Interface& b) const {
  Asn chosen;
  const Asn ir_as = g_.irs()[static_cast<std::size_t>(b.ir)].annotation;
  if (b.origin.announced() && b.origin.asn != ir_as) {
    // The address comes from the AS operating the *connected* router.
    chosen = b.origin.asn;
  } else {
    // Vote among connected IRs: one vote per interface of each
    // preceding IR seen immediately prior to b (Fig. 13b). Per the
    // §4.2 confidence rule, only the highest-confidence incoming link
    // class present participates — a Multihop edge across a silent
    // router must not outvote a directly observed Nexthop neighbor.
    graph::LinkLabel best = graph::LinkLabel::multihop;
    if (opt_.use_link_class_filter)
      for (int lid : b.in_links)
        best = std::min(best, g_.links()[static_cast<std::size_t>(lid)].label);
    const graph::Votes votes = graph::prev_iface_votes(
        g_, b, [best](const graph::Link& l) { return l.label == best; });
    if (votes.empty()) {
      chosen = b.origin.announced() ? b.origin.asn : kNoAs;
    } else {
      int top = 0;
      for (const auto& [a, c] : votes) top = std::max(top, c);
      std::vector<Asn> tied;
      for (const auto& [a, c] : votes)
        if (c == top) tied.push_back(a);
      if (tied.size() == 1) {
        chosen = tied.front();
      } else {
        // Tie: largest cone among those with a BGP-observed
        // relationship to the interface origin AS; none → origin.
        Asn best_as = kNoAs;
        std::size_t best_cone = 0;
        for (Asn a : tied) {
          if (!b.origin.announced() ||
              (a != b.origin.asn && !rels_.has_relationship(a, b.origin.asn)))
            continue;
          const std::size_t c = rels_.cone_size(a);
          if (best_as == kNoAs || c > best_cone || (c == best_cone && a < best_as)) {
            best_as = a;
            best_cone = c;
          }
        }
        chosen = best_as != kNoAs
                     ? best_as
                     : (b.origin.announced() ? b.origin.asn : kNoAs);
      }
    }
  }
  return chosen;
}

bool Annotator::annotate_interfaces() {
  auto& ifaces = g_.interfaces();
  // Jacobi sweep: choices read only frozen state (IR annotations and
  // graph metadata, never other interface annotations), so computing
  // them into a side array and committing serially is exactly the
  // serial sweep, for any thread count.
  std::vector<Asn> next(ifaces.size(), kNoAs);
  parallel::parallel_for(ifaces.size(), opt_.threads, [&](std::size_t i) {
    if (!ifaces[i].origin.is_ixp()) next[i] = interface_choice(ifaces[i]);
  });
  bool changed = false;
  for (std::size_t i = 0; i < ifaces.size(); ++i) {
    graph::Interface& b = ifaces[i];
    if (b.origin.is_ixp()) continue;  // IXP fabric: not a point-to-point side
    if (next[i] != b.annotation) {
      b.annotation = next[i];
      changed = true;
      if (!stats_.empty()) ++stats_.back().changed_ifaces;
    }
  }
  return changed;
}

// ======================================================================
// Driver
// ======================================================================

std::uint64_t Annotator::state_hash() const {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& ir : g_.irs()) mix(ir.annotation + 1);
  for (const auto& f : g_.interfaces()) mix((static_cast<std::uint64_t>(f.annotation) << 1) | 1);
  return h;
}

void Annotator::run() {
  // Interface annotations start at the origin AS (§6).
  for (auto& f : g_.interfaces())
    f.annotation = f.origin.announced() ? f.origin.asn : kNoAs;

  annotate_last_hops();

  std::unordered_set<std::uint64_t> seen;
  seen.insert(state_hash());
  iterations_ = 0;
  stats_.clear();
  while (iterations_ < opt_.max_iterations) {
    stats_.emplace_back();
    const bool ch_ir = annotate_irs();
    const bool ch_if = annotate_interfaces();
    ++iterations_;
    if (!ch_ir && !ch_if) break;
    if (!seen.insert(state_hash()).second) break;  // repeated state
  }
}

}  // namespace core
