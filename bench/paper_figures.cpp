// paper_figures — regenerates the paper's evaluation (§7) in one run.
//
// Prints, in order: Figs. 15-20, the §7.4 no-alias experiment, Table 3,
// and the repository's own ablation, error analysis and dual-stack
// runs, each next to the paper's numbers; EXPERIMENTS.md records the
// comparison. Runs with no arguments. Every seed is fixed, so the
// output is checked in as bench/expected/paper_figures.txt and the
// `paper_figures` ctest diffs against it; a change that moves a number
// regenerates it with
//   build/bench/paper_figures > bench/expected/paper_figures.txt
//
// The two standard datasets (scenario, midar aliases, graph, full
// result, MAP-IT baseline) and the 100-VP master of Figs. 18 and 19 are
// built once and shared by every figure that reads them.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/bdrmap.hpp"
#include "baselines/mapit.hpp"
#include "bench_util.hpp"
#include "eval/error_analysis.hpp"
#include "topo/bdrmap_collect.hpp"

namespace {

/// The two ITDK-style datasets of §7.2 (2016: 109 VPs, 2018: 141 VPs),
/// scaled to the synthetic topology. Both share one Internet, generated
/// from `SimParams::seed`; `seed` picks the VPs and seeds the campaign.
struct Dataset {
  const char* label;
  std::size_t vps;
  std::uint64_t seed;
};

constexpr Dataset kDatasets[] = {{"2016", 70, 2016}, {"2018", 90, 2018}};

/// One standard dataset with everything the figures share.
struct Standard {
  explicit Standard(const Dataset& d)
      : ds(d),
        s(eval::make_scenario(topo::SimParams{}, d.vps, /*exclude_validation=*/true,
                              d.seed)),
        aliases(eval::midar_aliases(s)),
        graph(graph::Graph::build(s.corpus, aliases, s.ip2as, s.rels)),
        full(core::Bdrmapit::annotate_and_package(graph, s.rels)),
        mapit(baselines::MapIt::run(s.corpus, s.ip2as)) {}

  Dataset ds;
  eval::Scenario s;
  tracedata::AliasSets aliases;  ///< MIDAR-like, the default §7.2 input
  graph::Graph graph;            ///< un-annotated; ablation rows annotate copies
  core::Result full;             ///< the full algorithm over `graph`
  std::vector<core::IfaceRecord> mapit;  ///< MAP-IT baseline of Figs. 16 and 17
};

struct Mean {
  double sum = 0, sum2 = 0;
  std::size_t n = 0;
  void add(double x) {
    sum += x;
    sum2 += x * x;
    ++n;
  }
  double mean() const { return n == 0 ? 0 : sum / static_cast<double>(n); }
  /// Standard error of the mean.
  double stderr_() const {
    if (n < 2) return 0;
    const double m = mean();
    const double var = (sum2 - static_cast<double>(n) * m * m) /
                       static_cast<double>(n - 1);
    return var <= 0 ? 0 : std::sqrt(var / static_cast<double>(n));
  }
};

void print_pct_row(const std::string& label, double ours, const char* paper) {
  std::printf("  %-28s %8.1f%%   paper: %s\n", label.c_str(), 100.0 * ours, paper);
}

// Fig. 15 — the §7.1 regression against bdrmap: a single VP inside each
// ground-truth network, identical traceroute input for both tools.
// Paper: both in the 0.9-1.0 band, bdrmapIT >= bdrmap on all four
// networks thanks to mapping past the VP AS border.
void fig15() {
  benchutil::print_header(
      "Fig. 15 — Single in-network VP: accuracy (bdrmapIT vs bdrmap)");
  std::printf(
      "paper: both >= 0.9 accuracy; bdrmapIT >= bdrmap on every network.\n"
      "The paper's ground truth is operator-validated bdrmap inferences, so\n"
      "its accuracy is claim precision (P); coverage of all links visible in\n"
      "the paths (C) additionally shows bdrmapIT mapping past the first\n"
      "border, which the paper credits for its slight edge.\n\n");
  std::printf("%-6s %-10s %7s | %10s %8s | %10s %8s\n", "data", "network", "links",
              "bdrmapIT-P", "bdrmap-P", "bdrmapIT-C", "bdrmap-C");

  // The paper reuses 2016 ground truth for Tier 1 / R&E 2 / L Access
  // plus a 2018 Tier-1 dataset; we run all four networks on the 2016
  // seed and Tier-1 again on the 2018 seed.
  const topo::SimParams params;
  const topo::Internet probe_net = topo::Internet::generate(params);
  const auto networks = eval::validation_networks(probe_net);
  std::size_t wins = 0, total = 0;
  for (const Dataset& ds : kDatasets) {
    for (const auto& [label, asn] : networks) {
      if (ds.label == std::string("2018") && label != "Tier 1")
        continue;  // 2018 ground truth exists only for the Tier 1 (paper)
      const int as_idx = probe_net.as_index(asn);
      eval::Scenario s = eval::make_single_vp_scenario(params, as_idx, ds.seed);
      // Feed both tools the bdrmap-collected dataset — reactive
      // re-probing plus VP-local alias resolution — exactly as the
      // paper reused bdrmap's own runs (§7.1).
      topo::BdrmapCollectOptions copt;
      copt.seed = ds.seed;
      topo::BdrmapCollection coll = topo::bdrmap_collect(s.net, as_idx, copt);
      s.corpus = coll.traces;
      s.vis = eval::observe(s.corpus);

      core::Result bit = core::Bdrmapit::run(s.corpus, coll.aliases, s.ip2as, s.rels);
      auto bmap = baselines::Bdrmap::run(s.corpus, coll.aliases, s.ip2as, s.rels, asn);

      // Fig. 15's denominator is "links visible in the paths": accuracy
      // is link-level correctness over those links (the operators
      // validated their networks' own borders).
      eval::EvalOptions opt;
      opt.claims_on_true_links_only = true;
      const auto mb =
          eval::evaluate_network(s.net, s.gt, s.vis, bit.interfaces, asn, opt);
      const auto mm = eval::evaluate_network(s.net, s.gt, s.vis, bmap, asn, opt);
      std::printf("%-6s %-10s %7zu | %9.1f%% %7.1f%% | %9.1f%% %7.1f%%\n",
                  ds.label, label.c_str(), mb.visible_links,
                  100.0 * mb.precision(), 100.0 * mm.precision(),
                  100.0 * mb.recall(), 100.0 * mm.recall());
      ++total;
      // Accuracy-and-coverage jointly: bdrmapIT must not lose on both.
      if (mb.recall() >= mm.recall()) ++wins;
    }
  }
  std::printf("\nbdrmapIT >= bdrmap on %zu/%zu networks (paper: 4/4)\n", wins, total);
}

/// The bdrmapIT-vs-MAP-IT table of Figs. 16 and 17; returns bdrmapIT's
/// metrics, one per row.
std::vector<eval::Metrics> mapit_table(const std::vector<Standard>& data,
                                       const eval::EvalOptions& opt) {
  std::printf("%-6s %-10s %7s | %10s %8s | %10s %8s\n", "data", "network", "links",
              "bdrmapIT-P", "MAPIT-P", "bdrmapIT-R", "MAPIT-R");
  std::vector<eval::Metrics> rows;
  for (const Standard& d : data) {
    const eval::Scenario& s = d.s;
    for (const auto& [label, asn] : eval::validation_networks(s.net)) {
      const auto mb =
          eval::evaluate_network(s.net, s.gt, s.vis, d.full.interfaces, asn, opt);
      const auto mm = eval::evaluate_network(s.net, s.gt, s.vis, d.mapit, asn, opt);
      std::printf("%-6s %-10s %7zu | %9.1f%% %7.1f%% | %9.1f%% %7.1f%%\n", d.ds.label,
                  label.c_str(), mb.visible_links, 100.0 * mb.precision(),
                  100.0 * mm.precision(), 100.0 * mb.recall(), 100.0 * mm.recall());
      rows.push_back(mb);
    }
  }
  return rows;
}

// Fig. 16 — no VPs inside any validation network. Paper: bdrmapIT
// 91.8%-98.8% precision and 93.2%-97.1% recall; MAP-IT precision
// similar or lower except at the large access network, recall far lower.
void fig16(const std::vector<Standard>& data) {
  benchutil::print_header(
      "Fig. 16 — No in-network VP: correctness & coverage (bdrmapIT vs MAP-IT)");
  std::printf("paper: bdrmapIT precision 91.8%%-98.8%%, recall 93.2%%-97.1%%;\n"
              "       MAP-IT similar-or-lower precision, far lower recall\n\n");
  double worst_p = 1.0, best_p = 0.0, worst_r = 1.0, best_r = 0.0;
  for (const eval::Metrics& m : mapit_table(data, {})) {
    worst_p = std::min(worst_p, m.precision());
    best_p = std::max(best_p, m.precision());
    worst_r = std::min(worst_r, m.recall());
    best_r = std::max(best_r, m.recall());
  }
  std::printf("\nbdrmapIT measured: precision %.1f%%-%.1f%% (paper 91.8%%-98.8%%), "
              "recall %.1f%%-%.1f%% (paper 93.2%%-97.1%%)\n",
              100.0 * worst_p, 100.0 * best_p, 100.0 * worst_r, 100.0 * best_r);
}

// Fig. 17 — Fig. 16 restricted to links seen mid-path, isolating the
// advantage beyond the §5 destination heuristic. Paper: recall still
// well above MAP-IT's at comparable precision.
void fig17(const std::vector<Standard>& data) {
  benchutil::print_header(
      "Fig. 17 — No in-network VP, links seen mid-path only (vs MAP-IT)");
  std::printf("paper: bdrmapIT precision ~0.9+, recall well above MAP-IT\n\n");
  eval::EvalOptions opt;
  opt.exclude_last_hop_only = true;
  mapit_table(data, opt);
}

constexpr std::size_t kVpCounts[] = {20, 40, 60, 80};

/// The master corpus restricted to VP subset `set` of size `n`, drawn
/// deterministically; `salt` gives each figure its own subsets.
std::vector<tracedata::Traceroute> vp_subset(const eval::Scenario& master,
                                             std::size_t n, std::uint64_t salt,
                                             std::uint64_t set) {
  netbase::SplitMix64 rng(salt ^ (n * 131) ^ set);
  std::vector<topo::VantagePoint> pool = master.vps;
  std::vector<topo::VantagePoint> chosen;
  for (std::size_t i = 0; i < n && !pool.empty(); ++i) {
    const std::size_t j = rng.below(pool.size());
    chosen.push_back(pool[j]);
    pool[j] = pool.back();
    pool.pop_back();
  }
  return eval::filter_by_vps(master.corpus, chosen);
}

// Fig. 18 — precision and recall for five random VP sets per size
// (mean ± standard error). Paper: flat; 20-VP precision 92.4%-99.6% and
// recall 95.4%-98.6% match the 80-VP numbers.
void fig18(const eval::Scenario& master) {
  benchutil::print_header("Fig. 18 — Varying number of VPs: correctness & coverage");
  std::printf("paper: flat in #VPs; 20-VP precision 92.4%%-99.6%%, recall "
              "95.4%%-98.6%%\n\n");
  std::printf("%-5s %-10s | %18s | %18s\n", "#VPs", "network", "precision(mean+-se)",
              "recall(mean+-se)");
  for (std::size_t nvps : kVpCounts) {
    std::unordered_map<netbase::Asn, Mean> prec, rec;
    for (std::uint64_t set = 0; set < 5; ++set) {
      const auto corpus = vp_subset(master, nvps, 0xF18, set);
      eval::Visibility vis = eval::observe(corpus);
      topo::AliasSimulator alias_sim(master.net, corpus);
      core::Result r = core::Bdrmapit::run(corpus, alias_sim.midar_like(),
                                           master.ip2as, master.rels);
      for (const auto& [label, asn] : eval::validation_networks(master.net)) {
        const auto m =
            eval::evaluate_network(master.net, master.gt, vis, r.interfaces, asn);
        prec[asn].add(m.precision());
        rec[asn].add(m.recall());
      }
    }
    for (const auto& [label, asn] : eval::validation_networks(master.net)) {
      std::printf("%-5zu %-10s | %8.1f%% +- %4.1f%% | %8.1f%% +- %4.1f%%\n", nvps,
                  label.c_str(), 100.0 * prec[asn].mean(), 100.0 * prec[asn].stderr_(),
                  100.0 * rec[asn].mean(), 100.0 * rec[asn].stderr_());
    }
  }
}

// Fig. 19 — fraction of each validation network's interdomain links
// visible, same VP-set sizes. Paper: visibility grows with the number
// of VPs while Fig. 18's accuracy stays flat.
void fig19(const eval::Scenario& master) {
  benchutil::print_header("Fig. 19 — Varying number of VPs: visible links");
  std::printf("paper: fraction of visible links increases with #VPs\n\n");
  std::printf("%-5s", "#VPs");
  for (const auto& [label, asn] : eval::validation_networks(master.net))
    std::printf(" | %-16s", label.c_str());
  std::printf("\n");
  for (std::size_t nvps : kVpCounts) {
    std::unordered_map<netbase::Asn, Mean> frac;
    for (std::uint64_t set = 0; set < 5; ++set) {
      eval::Visibility vis = eval::observe(vp_subset(master, nvps, 0xF19, set));
      for (const auto& [label, asn] : eval::validation_networks(master.net))
        frac[asn].add(eval::visible_link_fraction(master.net, vis, asn));
    }
    std::printf("%-5zu", nvps);
    for (const auto& [label, asn] : eval::validation_networks(master.net))
      std::printf(" | %6.1f%% +- %4.1f%%", 100.0 * frac[asn].mean(),
                  100.0 * frac[asn].stderr_());
    std::printf("\n");
  }
}

// Fig. 20 — §7.4's first experiment: accuracy with MIDAR+iffinder-style
// aliases vs a kapar-augmented set, on multi-alias IRs only. Paper:
// kapar's false merges lower accuracy on every network, because
// bdrmapIT assigns one AS per IR.
void fig20(const std::vector<Standard>& data) {
  benchutil::print_header(
      "Fig. 20 — Alias resolution quality: midar vs kapar (multi-alias IRs)");
  std::printf("paper: kapar accuracy below midar on every network\n\n");
  std::printf("%-6s %-10s | %8s %8s\n", "data", "network", "midar", "kapar");

  std::size_t midar_wins = 0, total = 0;
  for (const Standard& d : data) {
    const eval::Scenario& s = d.s;
    const core::Result kapar =
        core::Bdrmapit::run(s.corpus, eval::kapar_aliases(s), s.ip2as, s.rels);
    eval::EvalOptions mo;
    mo.claims_on_true_links_only = true;  // validated-links accuracy
    mo.address_filter = eval::multi_alias_addresses(d.full);
    eval::EvalOptions ko;
    ko.claims_on_true_links_only = true;
    ko.address_filter = eval::multi_alias_addresses(kapar);
    for (const auto& [label, asn] : eval::validation_networks(s.net)) {
      const auto mm =
          eval::evaluate_network(s.net, s.gt, s.vis, d.full.interfaces, asn, mo);
      const auto mk = eval::evaluate_network(s.net, s.gt, s.vis, kapar.interfaces,
                                             asn, ko);
      std::printf("%-6s %-10s | %7.1f%% %7.1f%%\n", d.ds.label, label.c_str(),
                  100.0 * mm.accuracy(), 100.0 * mk.accuracy());
      ++total;
      if (mm.accuracy() >= mk.accuracy()) ++midar_wins;
    }
  }
  std::printf("\nmidar >= kapar on %zu/%zu network/dataset combinations "
              "(paper: all)\n", midar_wins, total);
}

// §7.4's second experiment — midar aliases vs no alias resolution
// (every interface its own IR). Paper: "nearly identical, with less than
// 0.1% difference in accuracy".
void noalias(const std::vector<Standard>& data) {
  benchutil::print_header("§7.4 — midar aliases vs no alias resolution");
  std::printf("paper: <0.1%% accuracy difference overall\n\n");
  std::printf("%-6s %-10s | %8s %9s %9s\n", "data", "network", "midar", "no-alias",
              "delta");

  Mean deltas;
  for (const Standard& d : data) {
    const eval::Scenario& s = d.s;
    const core::Result without =
        core::Bdrmapit::run(s.corpus, tracedata::AliasSets{}, s.ip2as, s.rels);
    for (const auto& [label, asn] : eval::validation_networks(s.net)) {
      const auto mw =
          eval::evaluate_network(s.net, s.gt, s.vis, d.full.interfaces, asn);
      const auto mo =
          eval::evaluate_network(s.net, s.gt, s.vis, without.interfaces, asn);
      const double delta = mw.accuracy() - mo.accuracy();
      deltas.add(delta);
      std::printf("%-6s %-10s | %7.1f%% %8.1f%% %+8.2f%%\n", d.ds.label,
                  label.c_str(), 100.0 * mw.accuracy(), 100.0 * mo.accuracy(),
                  100.0 * delta);
    }
  }
  std::printf("\nmean accuracy delta: %+.2f%% (paper: <0.1%%)\n",
              100.0 * deltas.mean());
}

void table3_dataset(const char* label, const graph::GraphStats& st) {
  const std::size_t links = st.links_nexthop + st.links_echo + st.links_multihop;
  const double total_links = static_cast<double>(links);
  std::printf("\ndataset %s: %zu interfaces, %zu IRs, %zu links\n", label,
              st.interfaces, st.irs, links);
  print_pct_row("nexthop (N) links",
                static_cast<double>(st.links_nexthop) / total_links, "96.4%");
  print_pct_row("echo (E) links", static_cast<double>(st.links_echo) / total_links,
                "~2%");
  print_pct_row("multihop (M) links",
                static_cast<double>(st.links_multihop) / total_links, "~1.5%");
  print_pct_row("linked IRs with E, no N",
                st.irs_with_links == 0
                    ? 0.0
                    : static_cast<double>(st.irs_echo_only_links) /
                          static_cast<double>(st.irs_with_links),
                "2.8%");
  print_pct_row("addresses with origin mapping",
                static_cast<double>(st.interfaces_mapped) /
                    static_cast<double>(st.interfaces),
                "99.95%");
  print_pct_row("IRs with no outgoing links",
                static_cast<double>(st.last_hop_irs) / static_cast<double>(st.irs),
                "~98%");
  print_pct_row("last-hop IRs w/ empty dest set",
                st.last_hop_irs == 0
                    ? 0.0
                    : static_cast<double>(st.last_hop_irs_empty_dest) /
                          static_cast<double>(st.last_hop_irs),
                "73.3%");
}

// Table 3 and the §4.1/§4.2/§5 prose numbers — link-label population.
// Paper, on the ITDK datasets: 96.4% of links are Nexthop; 2.8% of IRs
// with subsequent links have Echo but no Nexthop links; 99.95% of
// addresses have a matching prefix; ~98% of IRs have no outgoing links;
// 73.3% of last-hop IRs have an empty destination AS set.
void table3(const std::vector<Standard>& data) {
  benchutil::print_header("Table 3 — link confidence label population");
  std::printf("(the 'dense' dataset probes 12 hosts per AS instead of 3,\n"
              " approaching the ITDK's destination-heavy IR population)\n");
  for (const Standard& d : data) table3_dataset(d.ds.label, d.full.graph.stats());

  topo::SimParams dense;
  dense.host_probes_per_as = 12;
  const eval::Scenario s = eval::make_scenario(dense, 70, true, 2016);
  table3_dataset("dense", benchutil::run_bdrmapit(s).graph.stats());
}

struct Score {
  double precision, recall, owner_acc;
};

/// Mean precision/recall over the validation networks, plus router-
/// ownership accuracy over every observed interface.
Score score(const eval::Scenario& s, const core::Result& r) {
  double p = 0, rec = 0;
  std::size_t n = 0;
  for (const auto& [label, asn] : eval::validation_networks(s.net)) {
    const auto m = eval::evaluate_network(s.net, s.gt, s.vis, r.interfaces, asn);
    p += m.precision();
    rec += m.recall();
    ++n;
  }
  return {p / static_cast<double>(n), rec / static_cast<double>(n),
          eval::global_owner_accuracy(s.gt, s.vis, r.interfaces)};
}

// Ablation (not a paper figure) — each adapted heuristic disabled in
// turn, then published vs path-inferred AS relationships. The paper
// (§7.2) names the destination-based last-hop heuristic the largest
// single contributor. `Graph::build` reads no ablation switch, so each
// row annotates a copy of the dataset's graph.
void ablation(const std::vector<Standard>& data) {
  benchutil::print_header("Ablation — per-heuristic contribution (mean over "
                          "validation networks)");

  struct Row {
    const char* label;
    bool core::AnnotatorOptions::*off;  ///< the switch turned off, if any
  };
  const Row rows[] = {
      {"full algorithm", nullptr},
      {"- last-hop destinations (s5.2)", &core::AnnotatorOptions::use_last_hop_dest},
      {"- third-party test (s6.1.1)", &core::AnnotatorOptions::use_third_party},
      {"- reallocated prefixes (s6.1.2)", &core::AnnotatorOptions::use_reallocated},
      {"- vote exceptions (s6.1.3)", &core::AnnotatorOptions::use_exceptions},
      {"- hidden AS (s6.1.5)", &core::AnnotatorOptions::use_hidden_as},
      {"- link-class filter (s4.2)", &core::AnnotatorOptions::use_link_class_filter},
  };

  std::printf("\n%-34s %10s %10s %10s\n", "configuration", "precision",
              "recall", "owner-acc");
  for (const Standard& d : data) {
    std::printf("dataset %s:\n", d.ds.label);
    for (const Row& row : rows) {
      core::AnnotatorOptions opt;
      if (row.off) opt.*row.off = false;
      const Score sc =
          score(d.s, core::Bdrmapit::annotate_and_package(d.graph, d.s.rels, opt));
      std::printf("  %-32s %9.1f%% %9.1f%% %9.2f%%\n", row.label,
                  100.0 * sc.precision, 100.0 * sc.recall, 100.0 * sc.owner_acc);
    }
  }

  benchutil::print_header("Ablation — AS relationship source");
  std::printf("%-6s %-12s %10s %10s\n", "data", "relationships", "precision",
              "recall");
  for (const Standard& d : data) {
    const asrel::RelStore inferred = eval::inferred_relationships(d.s.net);
    const Score published = score(d.s, d.full);
    const Score path =
        score(d.s, core::Bdrmapit::run(d.s.corpus, d.aliases, d.s.ip2as, inferred));
    std::printf("%-6s %-12s %9.1f%% %9.1f%%\n", d.ds.label, "published",
                100.0 * published.precision, 100.0 * published.recall);
    std::printf("%-6s %-12s %9.1f%% %9.1f%%\n", d.ds.label, "inferred",
                100.0 * path.precision, 100.0 * path.recall);
  }
}

// Error analysis (not a paper figure) — outcomes by link category over
// all observed interfaces, and the refinement loop's convergence
// signature: churn per iteration dropping to zero (§6.3).
void error_analysis(const std::vector<Standard>& data) {
  benchutil::print_header("Error analysis — outcome by link category");
  for (const Standard& d : data) {
    const core::Result& r = d.full;
    std::printf("\ndataset %s (%zu observed interfaces):\n", d.ds.label,
                r.interfaces.size());
    eval::analyze_errors(d.s.net, d.s.gt, d.s.vis, r.interfaces).print(std::cout);

    std::printf("convergence: ");
    for (const auto& it : r.iteration_stats)
      std::printf("(%zu IRs, %zu ifaces) ", it.changed_irs, it.changed_ifaces);
    std::printf("-> repeated state after %d iterations\n", r.iterations);
  }
}

// Dual-stack (beyond the paper) — the same validation networks scored
// with the v4 half of a dual-stack corpus, the v6 half, and both: the
// heuristics never touch address bits, so the families should agree.
void dualstack() {
  benchutil::print_header("Dual-stack — v4-only vs v6-only vs combined corpora");

  topo::SimParams params;
  params.dual_stack = true;
  const eval::Scenario s = eval::make_scenario(params, 60, true, 64);

  std::vector<tracedata::Traceroute> v4, v6;
  for (const auto& t : s.corpus) (t.dst.is_v6() ? v6 : v4).push_back(t);
  std::printf("corpus: %zu v4 + %zu v6 traceroutes\n\n", v4.size(), v6.size());

  struct Slice {
    const char* label;
    const std::vector<tracedata::Traceroute>* corpus;
  };
  for (const Slice slice : {Slice{"v4-only", &v4}, Slice{"v6-only", &v6},
                            Slice{"combined", &s.corpus}}) {
    eval::Visibility vis = eval::observe(*slice.corpus);
    topo::AliasSimulator alias_sim(s.net, *slice.corpus);
    core::Result r = core::Bdrmapit::run(*slice.corpus, alias_sim.midar_like(),
                                         s.ip2as, s.rels);
    std::printf("%s:\n", slice.label);
    for (const auto& [label, asn] : eval::validation_networks(s.net)) {
      const auto m = eval::evaluate_network(s.net, s.gt, vis, r.interfaces, asn);
      std::printf("  %-10s precision %6.1f%%  recall %6.1f%%  (%zu links)\n",
                  label.c_str(), 100.0 * m.precision(), 100.0 * m.recall(),
                  m.visible_links);
    }
  }
}

}  // namespace

int main() {
  fig15();
  {
    std::vector<Standard> data;
    for (const Dataset& ds : kDatasets) data.emplace_back(ds);
    fig16(data);
    fig17(data);
    {
      // One 100-VP master corpus; Figs. 18 and 19 draw their VP subsets
      // from its pool, so runs of one size differ only in which VPs
      // contribute traceroutes.
      const eval::Scenario master =
          eval::make_scenario(topo::SimParams{}, 100, true, 2016);
      fig18(master);
      fig19(master);
    }
    fig20(data);
    noalias(data);
    table3(data);
    ablation(data);
    error_analysis(data);
  }  // the dual-stack scenario is the largest; build it alone
  dualstack();
  return 0;
}
