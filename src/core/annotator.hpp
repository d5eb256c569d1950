// core/annotator.hpp — bdrmapIT phases 2 and 3 (paper §5, §6).
//
// The Annotator owns the inference logic:
//
//   Phase 2 (§5) — IRs with no outgoing links ("last hops") are
//   annotated once, from their origin AS sets and destination AS sets
//   (Alg. 1), and frozen: those annotations rest on static metadata and
//   are never revised by refinement.
//
//   Phase 3 (§6) — the graph refinement loop. Each iteration first
//   annotates every remaining IR from its subsequent interfaces
//   (Alg. 2 + Alg. 3: link-vote heuristics with IXP / unannounced /
//   third-party handling, the reallocated-prefix correction, the
//   multihomed-customer and multi-peer exceptions, restricted-set
//   voting, and the hidden-AS check), then re-annotates every interface
//   with the AS on the other side of its link (§6.2). Both sweeps are
//   Jacobi passes: every annotation is computed from an immutable
//   snapshot of the previous iteration's state and committed after the
//   sweep, so a sweep's result does not depend on IR order — which
//   makes the sweeps parallelizable with bit-identical results for any
//   thread count. The loop stops at a repeated state — detected by
//   hashing the complete annotation vector, which also catches limit
//   cycles — or at a safety cap.
//
// All reasoning is local: an IR looks only at its own metadata and the
// current annotations of immediate neighbors; information travels
// across the graph through iterations (Fig. 8, Fig. 14).

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "asrel/relstore.hpp"
#include "graph/graph.hpp"

namespace core {

struct AnnotatorOptions {
  int max_iterations = 64;  ///< safety cap on refinement iterations

  /// Executors for the refinement sweeps (<= 0 means hardware
  /// concurrency). Sweeps are Jacobi passes — every annotation is
  /// computed from an immutable snapshot of the previous iteration and
  /// committed afterwards — so the result is identical for every
  /// thread count.
  int threads = 1;

  // ---- ablation switches ----------------------------------------------
  // Each disables one adapted heuristic, leaving the rest intact; the
  // ablation section of bench/paper_figures measures every switch's
  // contribution. All default to the paper's full algorithm.
  bool use_last_hop_dest = true;     ///< §5.2 destination-based last hops
  bool use_third_party = true;       ///< §6.1.1 third-party address test
  bool use_reallocated = true;       ///< §6.1.2 reallocated-prefix fix
  bool use_exceptions = true;        ///< §6.1.3 multihomed / multi-peer
  bool use_hidden_as = true;         ///< §6.1.5 hidden-AS bridging
  bool use_link_class_filter = true; ///< §4.2 N-over-E-over-M vote filter
};

class Annotator {
 public:
  Annotator(graph::Graph& g, const asrel::RelStore& rels, AnnotatorOptions opt = {})
      : g_(g), rels_(rels), opt_(opt) {}

  /// Runs phase 2 then phase 3 to a repeated state.
  void run();

  /// Refinement iterations executed (phase 3).
  int iterations() const noexcept { return iterations_; }

  /// Per-iteration annotation churn (phase 3): how many IR and
  /// interface annotations changed in each sweep. Monotone decrease to
  /// zero is the typical convergence signature (§6.3).
  struct IterationStats {
    std::size_t changed_irs = 0;
    std::size_t changed_ifaces = 0;
  };
  const std::vector<IterationStats>& iteration_stats() const noexcept {
    return stats_;
  }

  // Exposed for unit tests of the individual heuristics. The annotate_ir
  // and link_vote convenience overloads evaluate against the graph's
  // current annotations (a snapshot of them, as one sweep would see).
  void annotate_last_hops();                                     // §5
  netbase::Asn last_hop_empty_dest(const graph::IR& ir) const;   // §5.1
  netbase::Asn last_hop_with_dest(const graph::IR& ir) const;    // §5.2, Alg. 1
  netbase::Asn annotate_ir(const graph::IR& ir) const;           // §6.1, Alg. 2
  netbase::Asn link_vote(const graph::IR& ir, const graph::Link& l) const;  // Alg. 3
  bool annotate_irs();         // one §6.1 Jacobi sweep; true if any change
  bool annotate_interfaces();  // one §6.2 Jacobi sweep; true if any change

 private:
  /// Alg. 2 against `ir_annot`, the immutable IR-annotation snapshot of
  /// the previous iteration (indexed by IR id).
  netbase::Asn annotate_ir(const graph::IR& ir,
                           const std::vector<netbase::Asn>& ir_annot) const;

  /// Alg. 3 against the same snapshot.
  netbase::Asn link_vote(const graph::Link& l,
                         const std::vector<netbase::Asn>& ir_annot) const;

  // ---- §5 last-hop rule cascade ------------------------------------
  // One method per clause of the paper's last-hop procedure. Each
  // returns nullopt when its precondition does not hold (fall through
  // to the next rule) and the final annotation — possibly kNoAs — when
  // it decides. last_hop_empty_dest / last_hop_with_dest walk tables
  // of these in paper order, so the cascade's structure is data, not
  // nested control flow.
  std::optional<netbase::Asn> lh_origin_related_to_all(const graph::IR& ir) const;
  std::optional<netbase::Asn> lh_outside_related_to_all(const graph::IR& ir) const;
  std::optional<netbase::Asn> lh_top_origin_vote(const graph::IR& ir) const;
  std::optional<netbase::Asn> lh_dest_origin_overlap(const graph::IR& ir) const;
  std::optional<netbase::Asn> lh_dest_related_best_cover(const graph::IR& ir) const;
  std::optional<netbase::Asn> lh_bridge_or_min_cone_dest(const graph::IR& ir) const;

  /// §6.2 choice for one interface (reads IR annotations, which are
  /// frozen during an interface sweep).
  netbase::Asn interface_choice(const graph::Interface& b) const;

  /// Current IR annotations as a snapshot vector.
  std::vector<netbase::Asn> ir_annotations() const;

  /// Smallest customer cone, lowest ASN tiebreak.
  netbase::Asn min_cone(const std::vector<netbase::Asn>& cands) const;

  /// Highest vote count; ties by smallest cone, then lowest ASN.
  netbase::Asn top_vote(const std::vector<std::pair<netbase::Asn, int>>& votes) const;

  std::uint64_t state_hash() const;

  graph::Graph& g_;
  const asrel::RelStore& rels_;
  AnnotatorOptions opt_;
  int iterations_ = 0;
  std::vector<IterationStats> stats_;
};

}  // namespace core
