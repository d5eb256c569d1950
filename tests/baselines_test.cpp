// Unit tests for the MAP-IT and bdrmap baselines.

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/bdrmap.hpp"
#include "baselines/mapit.hpp"
#include "test_util.hpp"

using netbase::IPAddr;

namespace {

bgp::Ip2AS plan_ip2as() {
  std::vector<std::pair<std::string, netbase::Asn>> prefixes;
  for (int n = 1; n <= 9; ++n)
    prefixes.emplace_back("20.0." + std::to_string(n) + ".0/24",
                          static_cast<netbase::Asn>(n));
  return testutil::make_ip2as(prefixes);
}

std::string ip(int as, int host) {
  return "20.0." + std::to_string(as) + "." + std::to_string(host);
}

}  // namespace

// ---------------------------------------------------------------------
// MAP-IT
// ---------------------------------------------------------------------

TEST(MapIt, FindsBorderFromSubsequentPlurality) {
  // Interface b (origin AS1) whose subsequent interfaces are all AS2:
  // b sits on an AS2 router at an AS1-AS2 border.
  auto corpus = std::vector{
      testutil::tr("vp1", ip(2, 9),
                   {{1, ip(1, 1), 'T'}, {2, ip(1, 50), 'T'}, {3, ip(2, 1), 'T'}}),
      testutil::tr("vp2", ip(2, 8),
                   {{1, ip(1, 2), 'T'}, {2, ip(1, 50), 'T'}, {3, ip(2, 2), 'T'}}),
  };
  auto out = baselines::MapIt::run(corpus, plan_ip2as());
  const auto& inf = testutil::inf_at(out, IPAddr::must_parse(ip(1, 50)));
  EXPECT_EQ(inf.router_as, 2u);
  EXPECT_EQ(inf.conn_as, 1u);
  EXPECT_TRUE(inf.interdomain());
}

TEST(MapIt, BorderDetectedSomewhereAcrossTheBoundary) {
  // Paths cross a 2-1 boundary. MAP-IT's iterative IP reassignment may
  // settle the border claim on either flank of the boundary, but the
  // (1,2) link must be claimed by some interface, and purely internal
  // AS1 interfaces must not be.
  auto corpus = std::vector{
      testutil::tr("vp1", ip(1, 9),
                   {{1, ip(2, 1), 'T'}, {2, ip(1, 50), 'T'}, {3, ip(1, 60), 'T'}}),
      testutil::tr("vp2", ip(1, 8),
                   {{1, ip(2, 2), 'T'}, {2, ip(1, 50), 'T'}, {3, ip(1, 61), 'T'}}),
  };
  auto out = baselines::MapIt::run(corpus, plan_ip2as());
  bool border_claimed = false;
  for (const auto& [addr, router_id, inf] : out) {
    if (!inf.interdomain()) continue;
    const auto pair = std::minmax(inf.router_as, inf.conn_as);
    if (pair.first == 1u && pair.second == 2u) border_claimed = true;
  }
  EXPECT_TRUE(border_claimed);
  EXPECT_FALSE(testutil::inf_at(out, IPAddr::must_parse(ip(1, 60))).interdomain());
  EXPECT_FALSE(testutil::inf_at(out, IPAddr::must_parse(ip(1, 61))).interdomain());
}

TEST(MapIt, InternalInterfacesNotFlagged) {
  auto corpus = std::vector{testutil::tr(
      "vp", ip(1, 9), {{1, ip(1, 1), 'T'}, {2, ip(1, 2), 'T'}, {3, ip(1, 3), 'T'}})};
  auto out = baselines::MapIt::run(corpus, plan_ip2as());
  for (const auto& [addr, router_id, inf] : out) EXPECT_FALSE(inf.interdomain());
}

TEST(MapIt, NoDestinationHeuristic) {
  // A firewalled stub: last hop is the border in provider space. MAP-IT
  // cannot identify this link (no subsequent interfaces, no dest info).
  auto corpus = std::vector{testutil::tr(
      "vp", ip(5, 9), {{1, ip(9, 1), 'T'}, {2, ip(1, 5), 'T'}})};
  auto out = baselines::MapIt::run(corpus, plan_ip2as());
  const auto& inf = testutil::inf_at(out, IPAddr::must_parse(ip(1, 5)));
  EXPECT_FALSE(inf.interdomain());
}

TEST(MapIt, PluralityThresholdRespected) {
  // Subsequent ASes split 1/1 between AS2 and AS3: no AS reaches the
  // 50% plurality against... 1 of 2 votes is exactly half; both ways
  // equal - the plurality must be strict enough to pick one, and ties
  // at the threshold keep the larger count only.
  auto corpus = std::vector{
      testutil::tr("vp1", ip(2, 9),
                   {{1, ip(1, 50), 'T'}, {2, ip(2, 1), 'T'}}),
      testutil::tr("vp2", ip(3, 9),
                   {{1, ip(1, 50), 'T'}, {2, ip(3, 1), 'T'}}),
      testutil::tr("vp3", ip(2, 8),
                   {{1, ip(1, 50), 'T'}, {2, ip(2, 2), 'T'}}),
  };
  auto out = baselines::MapIt::run(corpus, plan_ip2as());
  // AS2 holds 2/3 of subsequent votes >= 0.5 -> border inferred.
  const auto& inf = testutil::inf_at(out, IPAddr::must_parse(ip(1, 50)));
  EXPECT_EQ(inf.router_as, 2u);
}

TEST(MapIt, RefinementPropagates) {
  // After b is remapped to AS2, its successor c (origin AS2) sees AS2
  // on both sides and stays internal to AS2.
  auto corpus = std::vector{
      testutil::tr("vp1", ip(2, 9),
                   {{1, ip(1, 1), 'T'}, {2, ip(1, 50), 'T'}, {3, ip(2, 1), 'T'},
                    {4, ip(2, 2), 'T'}}),
      testutil::tr("vp2", ip(2, 8),
                   {{1, ip(1, 2), 'T'}, {2, ip(1, 50), 'T'}, {3, ip(2, 1), 'T'}}),
  };
  auto out = baselines::MapIt::run(corpus, plan_ip2as());
  EXPECT_EQ(testutil::inf_at(out, IPAddr::must_parse(ip(2, 1))).router_as, 2u);
  EXPECT_FALSE(testutil::inf_at(out, IPAddr::must_parse(ip(2, 2))).interdomain());
}

// ---------------------------------------------------------------------
// bdrmap
// ---------------------------------------------------------------------

TEST(Bdrmap, InternalRoutersGetVpAs) {
  // Routers appearing before a VP-announced address are internal.
  auto corpus = std::vector{testutil::tr(
      "vp", ip(2, 9), {{1, ip(1, 1), 'T'}, {2, ip(1, 2), 'T'}, {3, ip(2, 1), 'T'}})};
  auto out = baselines::Bdrmap::run(corpus, {}, plan_ip2as(),
                                    testutil::make_rels({"1>2"}), 1);
  EXPECT_EQ(testutil::inf_at(out, IPAddr::must_parse(ip(1, 1))).router_as, 1u);
}

TEST(Bdrmap, FirstBoundaryRouterMappedToNeighbor) {
  // The router past the border carries a VP-space address (transit
  // convention) and leads into the customer's space.
  auto corpus = std::vector{testutil::tr(
      "vp", ip(2, 9),
      {{1, ip(1, 1), 'T'}, {2, ip(1, 50), 'T'}, {3, ip(2, 1), 'T'}})};
  auto out = baselines::Bdrmap::run(corpus, {}, plan_ip2as(),
                                    testutil::make_rels({"1>2"}), 1);
  const auto& border = testutil::inf_at(out, IPAddr::must_parse(ip(1, 50)));
  EXPECT_EQ(border.router_as, 2u);
  EXPECT_EQ(border.conn_as, 1u);
}

TEST(Bdrmap, SilentEdgeUsesDestinations) {
  // Probes to customer AS2 die at a VP-space border interface: bdrmap's
  // edge heuristic maps the router to the destination AS.
  auto corpus = std::vector{
      testutil::tr("vp", ip(2, 9), {{1, ip(1, 1), 'T'}, {2, ip(1, 50), 'T'}}),
      testutil::tr("vp", ip(2, 8), {{1, ip(1, 1), 'T'}, {2, ip(1, 50), 'T'}})};
  auto out = baselines::Bdrmap::run(corpus, {}, plan_ip2as(),
                                    testutil::make_rels({"1>2"}), 1);
  EXPECT_EQ(testutil::inf_at(out, IPAddr::must_parse(ip(1, 50))).router_as, 2u);
}

TEST(Bdrmap, NoClaimsBeyondFirstBoundary) {
  // Routers two AS hops out keep their origin mapping: bdrmap does not
  // reason past the first boundary.
  auto corpus = std::vector{testutil::tr(
      "vp", ip(3, 9),
      {{1, ip(1, 1), 'T'}, {2, ip(1, 50), 'T'}, {3, ip(2, 1), 'T'},
       {4, ip(2, 60), 'T'}, {5, ip(3, 1), 'T'}})};
  auto out = baselines::Bdrmap::run(corpus, {}, plan_ip2as(),
                                    testutil::make_rels({"1>2", "2>3"}), 1);
  const auto& deep = testutil::inf_at(out, IPAddr::must_parse(ip(3, 1)));
  EXPECT_FALSE(deep.interdomain());
  EXPECT_EQ(deep.router_as, 3u);
}

TEST(Bdrmap, UsesAliasesForBorderRouters) {
  // Two VP-space interfaces aliased to one border router still map to
  // the single neighbor.
  tracedata::AliasSets aliases;
  aliases.add({IPAddr::must_parse(ip(1, 50)), IPAddr::must_parse(ip(1, 51))});
  auto corpus = std::vector{
      testutil::tr("vp", ip(2, 9),
                   {{1, ip(1, 1), 'T'}, {2, ip(1, 50), 'T'}, {3, ip(2, 1), 'T'}}),
      testutil::tr("vp", ip(2, 8),
                   {{1, ip(1, 2), 'T'}, {2, ip(1, 51), 'T'}, {3, ip(2, 2), 'T'}})};
  auto out = baselines::Bdrmap::run(corpus, aliases, plan_ip2as(),
                                    testutil::make_rels({"1>2"}), 1);
  EXPECT_EQ(testutil::inf_at(out, IPAddr::must_parse(ip(1, 50))).router_as, 2u);
  EXPECT_EQ(testutil::inf_at(out, IPAddr::must_parse(ip(1, 51))).router_as, 2u);
}

TEST(Bdrmap, PrefersRelatedNeighbor) {
  // Border router leads toward both AS2 (customer of VP) and AS3 (no
  // relationship, e.g. a third-party artifact): prefer the related AS.
  auto corpus = std::vector{
      testutil::tr("vp", ip(2, 9),
                   {{1, ip(1, 1), 'T'}, {2, ip(1, 50), 'T'}, {3, ip(2, 1), 'T'}}),
      testutil::tr("vp", ip(3, 9),
                   {{1, ip(1, 1), 'T'}, {2, ip(1, 50), 'T'}, {3, ip(3, 1), 'T'}}),
      testutil::tr("vp", ip(3, 8),
                   {{1, ip(1, 1), 'T'}, {2, ip(1, 50), 'T'}, {3, ip(3, 2), 'T'}})};
  auto out = baselines::Bdrmap::run(corpus, {}, plan_ip2as(),
                                    testutil::make_rels({"1>2"}), 1);
  EXPECT_EQ(testutil::inf_at(out, IPAddr::must_parse(ip(1, 50))).router_as, 2u);
}
