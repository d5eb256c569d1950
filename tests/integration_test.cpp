// End-to-end integration tests: the full pipeline on simulated
// Internets, asserting the paper's qualitative results hold.

#include <gtest/gtest.h>

#include "baselines/bdrmap.hpp"
#include "baselines/mapit.hpp"
#include "eval/experiment.hpp"

namespace {

struct Run {
  eval::Scenario scenario;
  core::Result result;
};

Run run_small(std::uint64_t seed, std::size_t vps = 16) {
  eval::Scenario s = eval::make_scenario(topo::small_params(), vps, true, seed);
  core::Result r = core::Bdrmapit::run(s.corpus, eval::midar_aliases(s), s.ip2as,
                                       s.rels);
  return Run{std::move(s), std::move(r)};
}

}  // namespace

TEST(Integration, PipelineProducesAnnotations) {
  auto run = run_small(1);
  EXPECT_GT(run.result.interfaces.size(), 100u);
  EXPECT_GE(run.result.iterations, 1);
  std::size_t annotated = 0;
  for (const auto& [addr, router_id, inf] : run.result.interfaces)
    if (inf.router_as != netbase::kNoAs) ++annotated;
  EXPECT_GT(static_cast<double>(annotated) /
                static_cast<double>(run.result.interfaces.size()),
            0.95);
}

TEST(Integration, AsLinksAreSubsetOfPlausiblePairs) {
  auto run = run_small(1);
  const auto links = run.result.as_links();
  EXPECT_FALSE(links.empty());
  for (const auto& [a, b] : links) {
    EXPECT_NE(a, b);
    EXPECT_NE(a, netbase::kNoAs);
  }
}

TEST(Integration, DeterministicEndToEnd) {
  auto a = run_small(3);
  auto b = run_small(3);
  EXPECT_TRUE(a.result.interfaces == b.result.interfaces);
}

// The headline result (Fig. 16): good precision and recall for every
// validation network with no in-network VPs, across seeds.
class AccuracySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AccuracySweep, PrecisionAndRecallAboveFloor) {
  auto run = run_small(GetParam(), 20);
  for (const auto& [label, asn] : eval::validation_networks(run.scenario.net)) {
    const auto m = eval::evaluate_network(run.scenario.net, run.scenario.gt,
                                          run.scenario.vis, run.result.interfaces,
                                          asn);
    if (m.visible_links < 3) continue;  // too small to be meaningful
    EXPECT_GE(m.precision(), 0.7) << label << " seed " << GetParam();
    EXPECT_GE(m.recall(), 0.7) << label << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccuracySweep, ::testing::Values(1, 2, 3, 4, 5));

TEST(Integration, BeatsMapItCoverage) {
  auto run = run_small(7, 20);
  const auto mapit = baselines::MapIt::run(run.scenario.corpus, run.scenario.ip2as);
  double bdr_recall = 0, mapit_recall = 0;
  std::size_t n = 0;
  for (const auto& [label, asn] : eval::validation_networks(run.scenario.net)) {
    const auto mb = eval::evaluate_network(run.scenario.net, run.scenario.gt,
                                           run.scenario.vis, run.result.interfaces,
                                           asn);
    const auto mm = eval::evaluate_network(run.scenario.net, run.scenario.gt,
                                           run.scenario.vis, mapit, asn);
    bdr_recall += mb.recall();
    mapit_recall += mm.recall();
    ++n;
  }
  EXPECT_GT(bdr_recall / static_cast<double>(n),
            mapit_recall / static_cast<double>(n));
}

TEST(Integration, SingleVpMatchesBdrmapDomain) {
  // §7.1 regression: with one in-network VP, bdrmapIT's accuracy on the
  // VP network's validated links is at least bdrmap's.
  topo::SimParams params = topo::small_params();
  topo::Internet probe = topo::Internet::generate(params);
  const netbase::Asn v =
      probe.ases()[static_cast<std::size_t>(probe.large_access_gt())].asn;
  eval::Scenario s =
      eval::make_single_vp_scenario(params, probe.as_index(v), 2016);
  const auto aliases = eval::midar_aliases(s);
  core::Result bit = core::Bdrmapit::run(s.corpus, aliases, s.ip2as, s.rels);
  auto bmap = baselines::Bdrmap::run(s.corpus, aliases, s.ip2as, s.rels, v);
  eval::EvalOptions opt;
  opt.claims_on_true_links_only = true;
  const auto mb = eval::evaluate_network(s.net, s.gt, s.vis, bit.interfaces, v, opt);
  const auto mm = eval::evaluate_network(s.net, s.gt, s.vis, bmap, v, opt);
  EXPECT_GE(mb.accuracy() + 1e-9, mm.accuracy());
  EXPECT_GE(mb.accuracy(), 0.8);
}

TEST(Integration, NoAliasCloseToMidar) {
  // §7.4: running without alias resolution barely changes accuracy.
  auto run = run_small(11, 20);
  core::Result noalias = core::Bdrmapit::run(run.scenario.corpus, {},
                                             run.scenario.ip2as, run.scenario.rels);
  double with = 0, without = 0;
  std::size_t n = 0;
  for (const auto& [label, asn] : eval::validation_networks(run.scenario.net)) {
    const auto mw = eval::evaluate_network(run.scenario.net, run.scenario.gt,
                                           run.scenario.vis, run.result.interfaces,
                                           asn);
    const auto mo = eval::evaluate_network(run.scenario.net, run.scenario.gt,
                                           run.scenario.vis, noalias.interfaces, asn);
    with += mw.accuracy();
    without += mo.accuracy();
    ++n;
  }
  EXPECT_NEAR(with / static_cast<double>(n), without / static_cast<double>(n), 0.1);
}

TEST(Integration, CorpusSerializationRoundTripsThroughPipeline) {
  // Write the corpus and alias sets to their file formats, read them
  // back, and verify the pipeline output is identical.
  eval::Scenario s = eval::make_scenario(topo::small_params(), 8, true, 13);
  const auto aliases = eval::midar_aliases(s);

  std::stringstream tr_buf, al_buf;
  tracedata::write_traceroutes(tr_buf, s.corpus);
  aliases.write(al_buf);
  std::size_t malformed = 0;
  const auto corpus2 = tracedata::read_traceroutes(tr_buf, &malformed);
  ASSERT_EQ(malformed, 0u);
  ASSERT_EQ(corpus2, s.corpus);
  const auto aliases2 = tracedata::AliasSets::read(al_buf);

  core::Result a = core::Bdrmapit::run(s.corpus, aliases, s.ip2as, s.rels);
  core::Result b = core::Bdrmapit::run(corpus2, aliases2, s.ip2as, s.rels);
  ASSERT_EQ(a.interfaces.size(), b.interfaces.size());
  for (std::size_t i = 0; i < a.interfaces.size(); ++i) {
    EXPECT_EQ(a.interfaces[i].addr, b.interfaces[i].addr);
    EXPECT_TRUE(a.interfaces[i].inf == b.interfaces[i].inf) << a.interfaces[i].addr.to_string();
  }
}

TEST(Integration, KaparAliasesHurtMultiAliasAccuracy) {
  eval::Scenario s = eval::make_scenario(topo::small_params(), 20, true, 17);
  core::Result midar =
      core::Bdrmapit::run(s.corpus, eval::midar_aliases(s), s.ip2as, s.rels);
  topo::AliasSimulator sim(s.net, s.corpus);
  topo::AliasOptions opt;
  opt.false_merge_prob = 0.15;  // strong corruption
  core::Result kapar = core::Bdrmapit::run(s.corpus, sim.kapar_like(opt), s.ip2as,
                                           s.rels);
  double m_sum = 0, k_sum = 0;
  std::size_t n = 0;
  for (const auto& [label, asn] : eval::validation_networks(s.net)) {
    eval::EvalOptions mo;
    mo.claims_on_true_links_only = true;
    mo.address_filter = eval::multi_alias_addresses(midar);
    eval::EvalOptions ko;
    ko.claims_on_true_links_only = true;
    ko.address_filter = eval::multi_alias_addresses(kapar);
    m_sum += eval::evaluate_network(s.net, s.gt, s.vis, midar.interfaces, asn, mo)
                 .accuracy();
    k_sum += eval::evaluate_network(s.net, s.gt, s.vis, kapar.interfaces, asn, ko)
                 .accuracy();
    ++n;
  }
  EXPECT_GT(m_sum / static_cast<double>(n), k_sum / static_cast<double>(n));
}
