// Tests for the error-categorization analysis and the convergence
// instrumentation.

#include <gtest/gtest.h>

#include <sstream>

#include "core/annotator.hpp"
#include "eval/error_analysis.hpp"
#include "eval/experiment.hpp"

using eval::LinkCategory;
using eval::Outcome;

namespace {

struct RunResult {
  eval::Scenario s;
  std::vector<core::IfaceRecord> inf;
  eval::ErrorBreakdown breakdown;
};

RunResult make_run(std::uint64_t seed) {
  eval::Scenario s = eval::make_scenario(topo::small_params(), 16, true, seed);
  core::Result r =
      core::Bdrmapit::run(s.corpus, eval::midar_aliases(s), s.ip2as, s.rels);
  auto breakdown = eval::analyze_errors(s.net, s.gt, s.vis, r.interfaces);
  return RunResult{std::move(s), std::move(r.interfaces), breakdown};
}

}  // namespace

TEST(ErrorAnalysis, CountsCoverObservedInterfaces) {
  const RunResult run = make_run(3);
  std::size_t total = 0;
  for (std::size_t c = 0; c < static_cast<std::size_t>(LinkCategory::kCount); ++c)
    total += run.breakdown.total(static_cast<LinkCategory>(c));
  // Every observed, non-echo-only interface with truth is classified.
  std::size_t expected = 0;
  for (const auto& rec : run.inf)
    if (run.s.vis.non_echo.contains(rec.addr) && run.s.gt.truth(rec.addr)) ++expected;
  EXPECT_EQ(total, expected);
}

TEST(ErrorAnalysis, InternalCategoryDominatedByCorrect) {
  const RunResult run = make_run(3);
  EXPECT_GT(run.breakdown.accuracy(LinkCategory::internal), 0.85);
  EXPECT_GT(run.breakdown.total(LinkCategory::transit_provider_addressed), 0u);
}

TEST(ErrorAnalysis, PerfectOracleIsAllCorrect) {
  eval::Scenario s = eval::make_scenario(topo::small_params(), 10, true, 5);
  std::vector<core::IfaceRecord> oracle;
  for (const auto& [addr, t] : s.gt.all()) {
    if (!s.vis.observed.contains(addr)) continue;
    core::IfaceRecord rec;
    rec.addr = addr;
    rec.inf.router_as = t.owner;
    rec.inf.conn_as = t.others.empty() ? t.owner : t.others.front();
    rec.inf.ixp = t.ixp;
    oracle.push_back(rec);
  }
  core::sort_by_addr(oracle);
  const auto b = eval::analyze_errors(s.net, s.gt, s.vis, oracle);
  for (std::size_t c = 0; c < static_cast<std::size_t>(LinkCategory::kCount); ++c) {
    const auto cat = static_cast<LinkCategory>(c);
    EXPECT_EQ(b.total(cat) - b.correct(cat), 0u) << eval::to_string(cat);
  }
}

TEST(ErrorAnalysis, PrintProducesAlignedTable) {
  const RunResult run = make_run(3);
  std::ostringstream out;
  run.breakdown.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("category"), std::string::npos);
  EXPECT_NE(text.find("internal"), std::string::npos);
  EXPECT_NE(text.find("accuracy"), std::string::npos);
}

TEST(ErrorAnalysis, OutcomeNamesStable) {
  EXPECT_STREQ(eval::to_string(Outcome::correct), "correct");
  EXPECT_STREQ(eval::to_string(Outcome::spurious_border), "spurious-border");
  EXPECT_STREQ(eval::to_string(LinkCategory::ixp), "ixp");
}

TEST(Convergence, ChurnDropsToZero) {
  eval::Scenario s = eval::make_scenario(topo::small_params(), 16, true, 9);
  const auto aliases = eval::midar_aliases(s);
  graph::Graph g = graph::Graph::build(s.corpus, aliases, s.ip2as, s.rels);
  core::Annotator ann(g, s.rels);
  ann.run();
  const auto& stats = ann.iteration_stats();
  ASSERT_GE(stats.size(), 2u);
  // First sweep does the bulk of the work; the last does (almost) none.
  EXPECT_GT(stats.front().changed_irs, stats.back().changed_irs);
  EXPECT_LE(stats.back().changed_irs + stats.back().changed_ifaces, 2u);
}
