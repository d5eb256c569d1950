// eval/metrics.hpp — precision / recall / accuracy, paper §7 protocol.
//
// Precision: among inferred interdomain links involving the validation
// network, the fraction that are correct — not internal to a network,
// and with both connected networks identified (paper §7.2). Counted per
// interface-level claim.
//
// Recall: among the network's true interdomain links visible in the
// dataset, the fraction correctly identified. Counted per ground-truth
// link (any correctly annotated observed interface of the link counts),
// excluding interfaces that only appeared as Echo Replies, and — for
// the Fig. 17 variant — links that only appeared as the last hop.
//
// "Accuracy" (Figs. 15 and 20) is precision over the evaluated claims.

#pragma once

#include <cstddef>
#include <vector>
#include <unordered_set>

#include "core/bdrmapit.hpp"
#include "eval/ground_truth.hpp"
#include "netbase/asn.hpp"

namespace eval {

struct Metrics {
  std::size_t tp = 0;            ///< correctly identified visible links
  std::size_t fn = 0;            ///< visible links missed or misattributed
  std::size_t claims = 0;        ///< inferred link claims involving the network
  std::size_t claims_correct = 0;
  std::size_t visible_links = 0; ///< tp + fn

  double precision() const noexcept {
    return claims == 0 ? 1.0 : static_cast<double>(claims_correct) /
                                   static_cast<double>(claims);
  }
  double recall() const noexcept {
    return visible_links == 0 ? 1.0 : static_cast<double>(tp) /
                                          static_cast<double>(visible_links);
  }
  double accuracy() const noexcept { return precision(); }
};

struct EvalOptions {
  /// Fig. 17: only count links observed somewhere mid-path.
  bool exclude_last_hop_only = false;
  /// Fig. 15/20 ("accuracy"): score claims only at interfaces whose
  /// ground-truth link involves the validation network — the paper's
  /// operators validated the networks' own border links, not arbitrary
  /// remote inferences naming their AS.
  bool claims_on_true_links_only = false;
  /// Fig. 20: only evaluate these addresses (e.g. multi-alias IRs).
  /// Empty set = no filter.
  std::unordered_set<netbase::IPAddr> address_filter;
};

/// Evaluates inferences for one validation network `asn`.
Metrics evaluate_network(
    const topo::Internet& net, const GroundTruth& gt, const Visibility& vis,
    const std::vector<core::IfaceRecord>& inf,
    netbase::Asn asn, const EvalOptions& opt = {});

/// Fraction of `asn`'s true interdomain ptp links with at least one
/// interface observed in the corpus (Fig. 19 numerator/denominator).
double visible_link_fraction(const topo::Internet& net, const Visibility& vis,
                             netbase::Asn asn);

/// Router-ownership accuracy over every observed interface in the whole
/// Internet: fraction whose inferred router AS matches the true owner.
/// More sensitive than per-network link metrics for ablations whose
/// effects are diffuse.
double global_owner_accuracy(
    const GroundTruth& gt, const Visibility& vis,
    const std::vector<core::IfaceRecord>& inf);

}  // namespace eval
