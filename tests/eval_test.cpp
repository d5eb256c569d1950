// Unit tests for the evaluation layer: ground truth extraction,
// visibility, and the §7 precision/recall protocol.

#include <gtest/gtest.h>

#include "eval/experiment.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "test_util.hpp"

using eval::GroundTruth;
using eval::Visibility;
using netbase::IPAddr;

namespace {

const topo::Internet& small_net() {
  static topo::Internet net = topo::Internet::generate(topo::small_params());
  return net;
}

}  // namespace

TEST(GroundTruthTest, CoversEveryInterface) {
  const auto& net = small_net();
  GroundTruth gt(net);
  EXPECT_EQ(gt.all().size(), net.ifaces().size());
}

TEST(GroundTruthTest, OwnersMatchRouterOwnership) {
  const auto& net = small_net();
  GroundTruth gt(net);
  for (std::size_t i = 0; i < net.ifaces().size(); i += 13) {
    const auto& f = net.ifaces()[i];
    const auto* t = gt.truth(f.addr);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->owner, net.owner_of_router(f.router));
  }
}

TEST(GroundTruthTest, InterdomainFlagMatchesLinkKind) {
  const auto& net = small_net();
  GroundTruth gt(net);
  for (const auto& l : net.links()) {
    const auto& fa = net.ifaces()[static_cast<std::size_t>(l.a_iface)];
    const auto* t = gt.truth(fa.addr);
    ASSERT_NE(t, nullptr);
    if (l.kind == topo::LinkKind::internal) {
      EXPECT_FALSE(t->interdomain);
    } else if (l.kind == topo::LinkKind::interdomain) {
      EXPECT_TRUE(t->interdomain);
    }
  }
}

TEST(GroundTruthTest, IxpMembersKnowTheirPeers) {
  const auto& net = small_net();
  GroundTruth gt(net);
  for (const auto& fab : net.ixps()) {
    for (const auto& [a, b] : fab.sessions) {
      const auto& fa = net.ifaces()[static_cast<std::size_t>(a)];
      const auto& fb = net.ifaces()[static_cast<std::size_t>(b)];
      const auto* t = gt.truth(fa.addr);
      ASSERT_NE(t, nullptr);
      EXPECT_TRUE(t->ixp);
      EXPECT_TRUE(t->other_is(net.owner_of_router(fb.router)));
    }
  }
}

TEST(VisibilityTest, TracksReplyClasses) {
  auto corpus = std::vector{
      testutil::tr("vp", "20.0.2.9",
                   {{1, "20.0.1.1", 'T'}, {2, "20.0.2.9", 'E'}}),
      testutil::tr("vp", "20.0.3.9", {{1, "20.0.1.1", 'T'}}),
  };
  const Visibility vis = eval::observe(corpus);
  EXPECT_TRUE(vis.observed.contains(IPAddr::must_parse("20.0.1.1")));
  EXPECT_TRUE(vis.observed.contains(IPAddr::must_parse("20.0.2.9")));
  EXPECT_TRUE(vis.non_echo.contains(IPAddr::must_parse("20.0.1.1")));
  EXPECT_FALSE(vis.non_echo.contains(IPAddr::must_parse("20.0.2.9")));
  EXPECT_TRUE(vis.mid_path.contains(IPAddr::must_parse("20.0.1.1")));
  EXPECT_FALSE(vis.mid_path.contains(IPAddr::must_parse("20.0.2.9")));
}

TEST(VisibilityTest, PrivateAddressesIgnored) {
  auto corpus = std::vector{
      testutil::tr("vp", "20.0.2.9", {{1, "10.0.0.1", 'T'}, {2, "20.0.1.1", 'T'}})};
  const Visibility vis = eval::observe(corpus);
  EXPECT_FALSE(vis.observed.contains(IPAddr::must_parse("10.0.0.1")));
}

// ---------------------------------------------------------------------
// Metrics against a perfect / imperfect oracle
// ---------------------------------------------------------------------

namespace {

// Inference that copies ground truth exactly for observed addresses.
std::vector<core::IfaceRecord> oracle(const GroundTruth& gt, const Visibility& vis) {
  std::vector<core::IfaceRecord> out;
  for (const auto& [addr, t] : gt.all()) {
    if (!vis.observed.contains(addr)) continue;
    core::IfaceRecord rec;
    rec.addr = addr;
    rec.inf.router_as = t.owner;
    rec.inf.conn_as = t.others.empty() ? t.owner : t.others.front();
    rec.inf.ixp = t.ixp;
    rec.inf.seen_non_echo = vis.non_echo.contains(addr);
    rec.inf.seen_mid_path = vis.mid_path.contains(addr);
    out.push_back(rec);
  }
  core::sort_by_addr(out);
  return out;
}

}  // namespace

TEST(MetricsTest, OracleScoresPerfect) {
  const auto& net = small_net();
  topo::Tracer tracer(net);
  const auto vps = topo::Tracer::make_vps(net, 10, {}, 9);
  const auto corpus = tracer.campaign(vps, 9);
  const GroundTruth gt(net);
  const Visibility vis = eval::observe(corpus);
  const auto inf = oracle(gt, vis);
  for (const auto& as : net.ases()) {
    const auto m = eval::evaluate_network(net, gt, vis, inf, as.asn);
    EXPECT_DOUBLE_EQ(m.precision(), 1.0) << as.asn;
    EXPECT_DOUBLE_EQ(m.recall(), 1.0) << as.asn;
  }
}

TEST(MetricsTest, CorruptedOracleLosesPrecisionAndRecall) {
  const auto& net = small_net();
  topo::Tracer tracer(net);
  const auto vps = topo::Tracer::make_vps(net, 10, {}, 9);
  const auto corpus = tracer.campaign(vps, 9);
  const GroundTruth gt(net);
  const Visibility vis = eval::observe(corpus);
  auto inf = oracle(gt, vis);

  const netbase::Asn victim = net.ases()[static_cast<std::size_t>(net.tier1_gt())].asn;
  // Corrupt every claim that involves the victim network.
  std::size_t corrupted = 0;
  for (auto& [addr, router_id, i] : inf) {
    if (i.router_as == victim && i.interdomain()) {
      i.conn_as = 4242;  // nonsense far side
      ++corrupted;
    }
  }
  ASSERT_GT(corrupted, 0u);
  const auto m = eval::evaluate_network(net, gt, vis, inf, victim);
  EXPECT_LT(m.precision(), 1.0);
  EXPECT_LT(m.recall(), 1.0);
}

TEST(MetricsTest, EmptyInferencePerfectPrecisionZeroRecall) {
  const auto& net = small_net();
  topo::Tracer tracer(net);
  const auto vps = topo::Tracer::make_vps(net, 6, {}, 9);
  const auto corpus = tracer.campaign(vps, 9);
  const GroundTruth gt(net);
  const Visibility vis = eval::observe(corpus);
  const std::vector<core::IfaceRecord> empty;
  const netbase::Asn v = net.ases()[static_cast<std::size_t>(net.tier1_gt())].asn;
  const auto m = eval::evaluate_network(net, gt, vis, empty, v);
  EXPECT_DOUBLE_EQ(m.precision(), 1.0);  // no claims, vacuous
  EXPECT_GT(m.visible_links, 0u);
  EXPECT_DOUBLE_EQ(m.recall(), 0.0);
}

TEST(MetricsTest, VisibleLinkFractionBounds) {
  const auto& net = small_net();
  topo::Tracer tracer(net);
  const auto vps = topo::Tracer::make_vps(net, 10, {}, 9);
  const Visibility vis = eval::observe(tracer.campaign(vps, 9));
  const netbase::Asn v = net.ases()[static_cast<std::size_t>(net.tier1_gt())].asn;
  const double frac = eval::visible_link_fraction(net, vis, v);
  EXPECT_GE(frac, 0.0);
  EXPECT_LE(frac, 1.0);
  EXPECT_GT(frac, 0.2);  // a tier-1 is hard to miss
}

TEST(MetricsTest, MoreVpsSeeMoreLinks) {
  const auto& net = small_net();
  topo::Tracer tracer(net);
  const auto vps = topo::Tracer::make_vps(net, 24, {}, 9);
  const auto corpus = tracer.campaign(vps, 9);
  const std::vector<topo::VantagePoint> few(vps.begin(), vps.begin() + 4);
  const Visibility vis_all = eval::observe(corpus);
  const Visibility vis_few = eval::observe(eval::filter_by_vps(corpus, few));
  const netbase::Asn v =
      net.ases()[static_cast<std::size_t>(net.large_access_gt())].asn;
  EXPECT_GE(eval::visible_link_fraction(net, vis_all, v),
            eval::visible_link_fraction(net, vis_few, v));
}

TEST(MetricsTest, AddressFilterRestrictsEvaluation) {
  const auto& net = small_net();
  topo::Tracer tracer(net);
  const auto vps = topo::Tracer::make_vps(net, 10, {}, 9);
  const auto corpus = tracer.campaign(vps, 9);
  const GroundTruth gt(net);
  const Visibility vis = eval::observe(corpus);
  const auto inf = oracle(gt, vis);
  const netbase::Asn v = net.ases()[static_cast<std::size_t>(net.tier1_gt())].asn;
  eval::EvalOptions opt;
  opt.address_filter.insert(IPAddr::must_parse("203.0.113.1"));  // matches nothing
  const auto m = eval::evaluate_network(net, gt, vis, inf, v, opt);
  EXPECT_EQ(m.claims, 0u);
  EXPECT_EQ(m.visible_links, 0u);
}

TEST(ScenarioTest, PublishedRelsMatchTruth) {
  eval::Scenario s = eval::make_scenario(topo::small_params(), 6, true, 77);
  const auto& truth = s.net.relationships();
  for (netbase::Asn a : truth.ases())
    for (netbase::Asn c : truth.customers(a))
      EXPECT_EQ(s.rels.rel(a, c), asrel::Rel::p2c);
}

TEST(ScenarioTest, InferredRelsAreNoisier) {
  eval::Scenario pub = eval::make_scenario(topo::small_params(), 6, true, 77);
  const asrel::RelStore inferred = eval::inferred_relationships(pub.net);
  const auto& truth = pub.net.relationships();
  std::size_t pub_ok = 0, inf_ok = 0, total = 0;
  for (netbase::Asn a : truth.ases())
    for (netbase::Asn c : truth.customers(a)) {
      ++total;
      if (pub.rels.rel(a, c) == asrel::Rel::p2c) ++pub_ok;
      if (inferred.rel(a, c) == asrel::Rel::p2c) ++inf_ok;
    }
  EXPECT_EQ(pub_ok, total);
  EXPECT_LT(inf_ok, total);
}

TEST(ScenarioTest, ExcludesValidationVps) {
  eval::Scenario s = eval::make_scenario(topo::small_params(), 12, true, 5);
  for (const auto& vp : s.vps) {
    EXPECT_NE(vp.as_idx, s.net.tier1_gt());
    EXPECT_NE(vp.as_idx, s.net.large_access_gt());
    EXPECT_NE(vp.as_idx, s.net.re1_gt());
    EXPECT_NE(vp.as_idx, s.net.re2_gt());
  }
}

TEST(ScenarioTest, FilterByVpsSubsets) {
  eval::Scenario s = eval::make_scenario(topo::small_params(), 8, false, 5);
  const std::vector<topo::VantagePoint> two(s.vps.begin(), s.vps.begin() + 2);
  const auto sub = eval::filter_by_vps(s.corpus, two);
  EXPECT_LT(sub.size(), s.corpus.size());
  for (const auto& t : sub)
    EXPECT_TRUE(t.vp == two[0].name || t.vp == two[1].name);
}
