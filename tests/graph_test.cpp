// Unit tests for Phase 1 graph construction (paper §4), built around
// the paper's worked examples (Figs. 2, 4, 5, 6 and Table 3).

#include <gtest/gtest.h>

#include "graph/graph.hpp"
#include "test_util.hpp"

using graph::Graph;
using graph::LinkLabel;
using netbase::IPAddr;

namespace {

// Address plan used across these tests (one /24 per AS).
//   ASn <- 20.0.n.0/24
bgp::Ip2AS plan_ip2as(int max_as = 9) {
  std::vector<std::pair<std::string, netbase::Asn>> prefixes;
  for (int n = 1; n <= max_as; ++n)
    prefixes.emplace_back("20.0." + std::to_string(n) + ".0/24",
                          static_cast<netbase::Asn>(n));
  return testutil::make_ip2as(prefixes);
}

std::string ip(int as, int host) {
  return "20.0." + std::to_string(as) + "." + std::to_string(host);
}

const graph::Link* find_link(const Graph& g, const std::string& from_iface,
                             const std::string& to_iface) {
  const int fi = g.iface_by_addr(IPAddr::must_parse(from_iface));
  const int ti = g.iface_by_addr(IPAddr::must_parse(to_iface));
  if (fi < 0 || ti < 0) return nullptr;
  const int ir = g.interfaces()[static_cast<std::size_t>(fi)].ir;
  for (const auto& l : g.links())
    if (l.ir == ir && l.iface == ti) return &l;
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------
// Table 3: link label classification (paper Fig. 4)
// ---------------------------------------------------------------------

TEST(GraphLabels, NexthopWhenAdjacent) {
  // Hops a(AS1) -> b(AS2) adjacent, b replies Time Exceeded -> N.
  auto corpus = std::vector{testutil::tr(
      "vp", ip(9, 9), {{1, ip(1, 1), 'T'}, {2, ip(2, 1), 'T'}})};
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  const auto* l = find_link(g, ip(1, 1), ip(2, 1));
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->label, LinkLabel::nexthop);
}

TEST(GraphLabels, NexthopWhenSameOriginDespiteGap) {
  // Fig. 4: c1..c2 same origin AS across missing hops -> N.
  auto corpus = std::vector{testutil::tr(
      "vp", ip(9, 9), {{4, ip(3, 1), 'T'}, {7, ip(3, 2), 'T'}})};
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  const auto* l = find_link(g, ip(3, 1), ip(3, 2));
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->label, LinkLabel::nexthop);
}

TEST(GraphLabels, MultihopWhenGapAndDifferentOrigins) {
  // Fig. 4: b(AS2) .. c1(AS3) with an unresponsive hop between -> M.
  auto corpus = std::vector{testutil::tr(
      "vp", ip(9, 9), {{2, ip(2, 1), 'T'}, {4, ip(3, 1), 'T'}})};
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  const auto* l = find_link(g, ip(2, 1), ip(3, 1));
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->label, LinkLabel::multihop);
}

TEST(GraphLabels, EchoWhenAdjacentEchoReply) {
  // Fig. 4: c2 -> d where d replies with Echo Reply -> E.
  auto corpus = std::vector{testutil::tr(
      "vp", ip(4, 1), {{7, ip(3, 2), 'T'}, {8, ip(4, 1), 'E'}})};
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  const auto* l = find_link(g, ip(3, 2), ip(4, 1));
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->label, LinkLabel::echo);
}

TEST(GraphLabels, EchoWithGapIsMultihop) {
  auto corpus = std::vector{testutil::tr(
      "vp", ip(4, 1), {{5, ip(3, 2), 'T'}, {8, ip(4, 1), 'E'}})};
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  const auto* l = find_link(g, ip(3, 2), ip(4, 1));
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->label, LinkLabel::multihop);
}

TEST(GraphLabels, HighestConfidenceLabelKept) {
  // Same link seen as M in one trace and N in another -> N retained.
  auto corpus = std::vector{
      testutil::tr("vp1", ip(9, 9), {{2, ip(2, 1), 'T'}, {4, ip(3, 1), 'T'}}),
      testutil::tr("vp2", ip(9, 9), {{2, ip(2, 1), 'T'}, {3, ip(3, 1), 'T'}}),
  };
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  const auto* l = find_link(g, ip(2, 1), ip(3, 1));
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->label, LinkLabel::nexthop);
}

TEST(GraphLabels, DestUnreachableCountsAsNexthop) {
  auto corpus = std::vector{testutil::tr(
      "vp", ip(9, 9), {{1, ip(1, 1), 'T'}, {2, ip(2, 1), 'U'}})};
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  const auto* l = find_link(g, ip(1, 1), ip(2, 1));
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->label, LinkLabel::nexthop);
}

// ---------------------------------------------------------------------
// Private addresses are gaps (§4.2)
// ---------------------------------------------------------------------

TEST(GraphPrivate, PrivateHopsAreSkipped) {
  auto corpus = std::vector{testutil::tr(
      "vp", ip(9, 9),
      {{1, "10.0.0.1", 'T'}, {2, ip(1, 1), 'T'}, {3, "192.168.0.1", 'T'},
       {4, ip(2, 1), 'T'}})};
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  EXPECT_EQ(g.iface_by_addr(IPAddr::must_parse("10.0.0.1")), -1);
  EXPECT_EQ(g.iface_by_addr(IPAddr::must_parse("192.168.0.1")), -1);
  // Link across the private hop: gap of 2, different origins -> M.
  const auto* l = find_link(g, ip(1, 1), ip(2, 1));
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->label, LinkLabel::multihop);
}

// ---------------------------------------------------------------------
// Fig. 2 / Fig. 5: IR construction and origin AS sets
// ---------------------------------------------------------------------

TEST(GraphFig5, LinkOriginSets) {
  // Paths (Fig. 2): a1-b1, a2-b2, c-b2 with {a1,a2} aliased into IR1.
  tracedata::AliasSets aliases;
  aliases.add({IPAddr::must_parse(ip(1, 1)), IPAddr::must_parse(ip(1, 2)),
               IPAddr::must_parse(ip(3, 1))});  // IR1 = {a1, a2, c}
  auto corpus = std::vector{
      testutil::tr("vp", ip(9, 9), {{3, ip(1, 1), 'T'}, {4, ip(2, 1), 'T'}}),
      testutil::tr("vp", ip(8, 8), {{3, ip(1, 2), 'T'}, {4, ip(2, 2), 'T'}}),
      testutil::tr("vp", ip(7, 7), {{3, ip(3, 1), 'T'}, {4, ip(2, 2), 'T'}}),
  };
  auto g = Graph::build(corpus, aliases, plan_ip2as(), testutil::make_rels({}));

  // L(IR1, b1) = {AS1}; L(IR1, b2) = {AS1, AS3}.
  const auto* l1 = find_link(g, ip(1, 1), ip(2, 1));
  ASSERT_NE(l1, nullptr);
  EXPECT_EQ(l1->origin_set, (std::vector<netbase::Asn>{1}));
  const auto* l2 = find_link(g, ip(1, 2), ip(2, 2));
  ASSERT_NE(l2, nullptr);
  EXPECT_EQ(l2->origin_set, (std::vector<netbase::Asn>{1, 3}));
}

TEST(GraphAliases, AliasGroupsShareOneIr) {
  tracedata::AliasSets aliases;
  aliases.add({IPAddr::must_parse(ip(1, 1)), IPAddr::must_parse(ip(2, 1))});
  auto corpus = std::vector{
      testutil::tr("vp", ip(9, 9), {{1, ip(1, 1), 'T'}, {2, ip(3, 1), 'T'}}),
      testutil::tr("vp", ip(8, 8), {{1, ip(2, 1), 'T'}, {2, ip(3, 2), 'T'}}),
  };
  auto g = Graph::build(corpus, aliases, plan_ip2as(), testutil::make_rels({}));
  const int f1 = g.iface_by_addr(IPAddr::must_parse(ip(1, 1)));
  const int f2 = g.iface_by_addr(IPAddr::must_parse(ip(2, 1)));
  EXPECT_EQ(g.interfaces()[static_cast<std::size_t>(f1)].ir,
            g.interfaces()[static_cast<std::size_t>(f2)].ir);
  const auto& ir =
      g.irs()[static_cast<std::size_t>(g.interfaces()[static_cast<std::size_t>(f1)].ir)];
  EXPECT_EQ(ir.origin_set, (std::vector<netbase::Asn>{1, 2}));
  EXPECT_EQ(ir.out_links.size(), 2u);
}

TEST(GraphAliases, AliasInternalTransitionMakesNoLink) {
  tracedata::AliasSets aliases;
  aliases.add({IPAddr::must_parse(ip(1, 1)), IPAddr::must_parse(ip(1, 2))});
  auto corpus = std::vector{testutil::tr(
      "vp", ip(9, 9), {{1, ip(1, 1), 'T'}, {2, ip(1, 2), 'T'}})};
  auto g = Graph::build(corpus, aliases, plan_ip2as(), testutil::make_rels({}));
  EXPECT_TRUE(g.links().empty());
}

// ---------------------------------------------------------------------
// Fig. 6: destination AS sets (§4.4)
// ---------------------------------------------------------------------

TEST(GraphDestSets, RecordsDestinationOrigin) {
  // Probe toward AS4's space: every responsive hop gets dest AS4.
  auto corpus = std::vector{testutil::tr(
      "vp", ip(4, 9), {{1, ip(1, 1), 'T'}, {2, ip(2, 1), 'T'}, {3, ip(3, 1), 'T'}})};
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  for (const std::string& a : {ip(1, 1), ip(2, 1), ip(3, 1)}) {
    const int fid = g.iface_by_addr(IPAddr::must_parse(a));
    ASSERT_GE(fid, 0);
    EXPECT_EQ(g.interfaces()[static_cast<std::size_t>(fid)].dest_asns,
              (std::vector<netbase::Asn>{4}))
        << a;
  }
}

TEST(GraphDestSets, EchoReplyLastHopExcluded) {
  // §4.4: a trace ending in an Echo Reply contributes no destination to
  // its final interface (the address equals the probed destination).
  auto corpus = std::vector{testutil::tr(
      "vp", ip(3, 1), {{1, ip(1, 1), 'T'}, {2, ip(3, 1), 'E'}})};
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  const int fid = g.iface_by_addr(IPAddr::must_parse(ip(3, 1)));
  ASSERT_GE(fid, 0);
  EXPECT_TRUE(g.interfaces()[static_cast<std::size_t>(fid)].dest_asns.empty());
  EXPECT_FALSE(g.interfaces()[static_cast<std::size_t>(fid)].seen_non_echo);
}

TEST(GraphDestSets, NonEchoLastHopIncluded) {
  auto corpus = std::vector{testutil::tr(
      "vp", ip(4, 9), {{1, ip(1, 1), 'T'}, {2, ip(2, 1), 'T'}})};
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  const int fid = g.iface_by_addr(IPAddr::must_parse(ip(2, 1)));
  EXPECT_EQ(g.interfaces()[static_cast<std::size_t>(fid)].dest_asns,
            (std::vector<netbase::Asn>{4}));
}

TEST(GraphDestSets, ReallocatedPrefixCorrection) {
  // §4.4: interface with exactly two dest ASes, one matching its origin
  // (the reallocating provider AS1, large cone), the other a small
  // customer (AS5) with no visible relationship: drop the provider.
  auto rels = testutil::make_rels({"1>2", "1>3", "1>4", "2>6", "3>7"});
  // No relationship between 1 and 5 on purpose (aggregation hid it).
  auto corpus = std::vector{
      testutil::tr("vp", ip(5, 9), {{1, ip(9, 1), 'T'}, {2, ip(1, 5), 'T'}}),
      testutil::tr("vp", ip(1, 9), {{1, ip(9, 1), 'T'}, {2, ip(1, 5), 'T'}}),
  };
  auto g = Graph::build(corpus, {}, plan_ip2as(), rels);
  const int fid = g.iface_by_addr(IPAddr::must_parse(ip(1, 5)));
  ASSERT_GE(fid, 0);
  EXPECT_EQ(g.interfaces()[static_cast<std::size_t>(fid)].dest_asns,
            (std::vector<netbase::Asn>{5}));
}

TEST(GraphDestSets, NoCorrectionWhenRelationshipVisible) {
  auto rels = testutil::make_rels({"1>5"});
  auto corpus = std::vector{
      testutil::tr("vp", ip(5, 9), {{1, ip(9, 1), 'T'}, {2, ip(1, 5), 'T'}}),
      testutil::tr("vp", ip(1, 9), {{1, ip(9, 1), 'T'}, {2, ip(1, 5), 'T'}}),
  };
  auto g = Graph::build(corpus, {}, plan_ip2as(), rels);
  const int fid = g.iface_by_addr(IPAddr::must_parse(ip(1, 5)));
  EXPECT_EQ(g.interfaces()[static_cast<std::size_t>(fid)].dest_asns.size(), 2u);
}

TEST(GraphDestSets, NoCorrectionForLargeConeCustomer) {
  // The non-matching AS has a customer cone > 5: not a reallocation.
  auto rels = testutil::make_rels(
      {"5>10", "5>11", "5>12", "5>13", "5>14", "5>15"});  // cone(5) = 7
  auto corpus = std::vector{
      testutil::tr("vp", ip(5, 9), {{1, ip(9, 1), 'T'}, {2, ip(1, 5), 'T'}}),
      testutil::tr("vp", ip(1, 9), {{1, ip(9, 1), 'T'}, {2, ip(1, 5), 'T'}}),
  };
  auto g = Graph::build(corpus, {}, plan_ip2as(), rels);
  const int fid = g.iface_by_addr(IPAddr::must_parse(ip(1, 5)));
  EXPECT_EQ(g.interfaces()[static_cast<std::size_t>(fid)].dest_asns.size(), 2u);
}

// ---------------------------------------------------------------------
// IR aggregates and stats
// ---------------------------------------------------------------------

TEST(GraphIr, LastHopFlag) {
  auto corpus = std::vector{testutil::tr(
      "vp", ip(9, 9), {{1, ip(1, 1), 'T'}, {2, ip(2, 1), 'T'}})};
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  const int f1 = g.iface_by_addr(IPAddr::must_parse(ip(1, 1)));
  const int f2 = g.iface_by_addr(IPAddr::must_parse(ip(2, 1)));
  EXPECT_FALSE(
      g.irs()[static_cast<std::size_t>(g.interfaces()[static_cast<std::size_t>(f1)].ir)]
          .last_hop);
  EXPECT_TRUE(
      g.irs()[static_cast<std::size_t>(g.interfaces()[static_cast<std::size_t>(f2)].ir)]
          .last_hop);
}

TEST(GraphIr, OriginVotesCountInterfaces) {
  tracedata::AliasSets aliases;
  aliases.add({IPAddr::must_parse(ip(1, 1)), IPAddr::must_parse(ip(1, 2)),
               IPAddr::must_parse(ip(2, 1))});
  auto corpus = std::vector{
      testutil::tr("a", ip(9, 9), {{1, ip(1, 1), 'T'}}),
      testutil::tr("b", ip(9, 9), {{1, ip(1, 2), 'T'}}),
      testutil::tr("c", ip(9, 9), {{1, ip(2, 1), 'T'}}),
  };
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  // Without the alias file each is a singleton.
  EXPECT_EQ(g.irs().size(), 3u);
  auto g2 = Graph::build(corpus, aliases, plan_ip2as(), testutil::make_rels({}));
  ASSERT_EQ(g2.irs().size(), 1u);
  // Ascending by ASN: two interfaces from AS 1, one from AS 2.
  EXPECT_EQ(g2.irs()[0].origin_votes, (graph::Votes{{1, 2}, {2, 1}}));
}

TEST(GraphStats, CountsLabelsAndCoverage) {
  auto corpus = std::vector{
      testutil::tr("vp", ip(4, 1),
                   {{1, ip(1, 1), 'T'}, {2, ip(2, 1), 'T'}, {4, ip(3, 1), 'T'},
                    {5, ip(4, 1), 'E'}}),
  };
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  const auto s = g.stats();
  EXPECT_EQ(s.links_nexthop, 1u);  // 1->2 adjacent
  EXPECT_EQ(s.links_multihop, 1u); // 2->3 gap
  EXPECT_EQ(s.links_echo, 1u);     // 3->4 echo adjacent
  EXPECT_EQ(s.interfaces, 4u);
  EXPECT_EQ(s.interfaces_mapped, 4u);
  EXPECT_EQ(s.irs, 4u);
  EXPECT_EQ(s.last_hop_irs, 1u);
  // The IR of ip(3,1) has only the echo link to the destination.
  EXPECT_EQ(s.irs_echo_only_links, 1u);
}

TEST(GraphStats, EchoOnlyIrDetected) {
  auto corpus = std::vector{testutil::tr(
      "vp", ip(2, 1), {{1, ip(1, 1), 'T'}, {2, ip(2, 1), 'E'}})};
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  EXPECT_EQ(g.stats().irs_echo_only_links, 1u);
}

TEST(GraphUnannounced, UnmappedAddressesCounted) {
  auto corpus = std::vector{testutil::tr(
      "vp", ip(9, 9), {{1, ip(1, 1), 'T'}, {2, "100.99.0.1", 'T'}})};
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  const auto s = g.stats();
  EXPECT_EQ(s.interfaces, 2u);
  EXPECT_EQ(s.interfaces_mapped, 1u);
  const int fid = g.iface_by_addr(IPAddr::must_parse("100.99.0.1"));
  EXPECT_EQ(g.interfaces()[static_cast<std::size_t>(fid)].origin.kind,
            bgp::OriginKind::none);
}

// ---------------------------------------------------------------------
// IXP handling and link metadata details (§4.1, §4.3)
// ---------------------------------------------------------------------

TEST(GraphIxp, IxpAddressesExcludedFromOriginSets) {
  // §4.1: BGP origins for IXP-covered addresses must not enter origin
  // AS sets, even when a member leaks the prefix into BGP.
  bgp::Rib rib;
  for (int n = 1; n <= 4; ++n)
    rib.add_line("20.0." + std::to_string(n) + ".0/24 65000 " + std::to_string(n));
  rib.add_line("198.32.0.0/24 65000 3");  // leaked IXP prefix
  auto map = bgp::Ip2AS::build(rib, {}, {netbase::Prefix::must_parse("198.32.0.0/24")});

  tracedata::AliasSets aliases;
  aliases.add({IPAddr::must_parse("20.0.1.1"), IPAddr::must_parse("198.32.0.5")});
  auto corpus = std::vector{
      testutil::tr("a", "20.0.4.9", {{1, "20.0.1.1", 'T'}, {2, "20.0.2.1", 'T'}}),
      testutil::tr("b", "20.0.4.8", {{1, "198.32.0.5", 'T'}, {2, "20.0.2.2", 'T'}})};
  auto g = Graph::build(corpus, aliases, map, testutil::make_rels({}));
  const int fid = g.iface_by_addr(IPAddr::must_parse("20.0.1.1"));
  const auto& ir = g.irs()[static_cast<std::size_t>(
      g.interfaces()[static_cast<std::size_t>(fid)].ir)];
  // Only the non-IXP interface contributes an origin.
  EXPECT_EQ(ir.origin_set, (std::vector<netbase::Asn>{1}));
  EXPECT_EQ(ir.origin_votes.size(), 1u);
}

TEST(GraphLinks, LinkDestinationSetsPerLink) {
  // The third-party test needs destination ASes *specific to one link*.
  auto corpus = std::vector{
      testutil::tr("a", ip(4, 9), {{1, ip(1, 1), 'T'}, {2, ip(2, 1), 'T'}}),
      testutil::tr("b", ip(5, 9), {{1, ip(1, 1), 'T'}, {2, ip(2, 1), 'T'}}),
      testutil::tr("c", ip(6, 9), {{1, ip(1, 1), 'T'}, {2, ip(3, 1), 'T'}})};
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  const auto* l1 = find_link(g, ip(1, 1), ip(2, 1));
  ASSERT_NE(l1, nullptr);
  EXPECT_EQ(l1->dest_asns, (std::vector<netbase::Asn>{4, 5}));
  const auto* l2 = find_link(g, ip(1, 1), ip(3, 1));
  ASSERT_NE(l2, nullptr);
  EXPECT_EQ(l2->dest_asns, (std::vector<netbase::Asn>{6}));
}

TEST(GraphLinks, InLinksMirrorOutLinks) {
  auto corpus = std::vector{
      testutil::tr("a", ip(9, 9), {{1, ip(1, 1), 'T'}, {2, ip(3, 1), 'T'}}),
      testutil::tr("b", ip(9, 8), {{1, ip(2, 1), 'T'}, {2, ip(3, 1), 'T'}})};
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  const int fid = g.iface_by_addr(IPAddr::must_parse(ip(3, 1)));
  const auto& f = g.interfaces()[static_cast<std::size_t>(fid)];
  EXPECT_EQ(f.in_links.size(), 2u);
  for (int lid : f.in_links)
    EXPECT_EQ(g.links()[static_cast<std::size_t>(lid)].iface, fid);
}

TEST(GraphLinks, PrevIfacesRecordedPerLink) {
  tracedata::AliasSets aliases;
  aliases.add({IPAddr::must_parse(ip(1, 1)), IPAddr::must_parse(ip(1, 2))});
  auto corpus = std::vector{
      testutil::tr("a", ip(9, 9), {{1, ip(1, 1), 'T'}, {2, ip(3, 1), 'T'}}),
      testutil::tr("b", ip(9, 8), {{1, ip(1, 2), 'T'}, {2, ip(3, 1), 'T'}})};
  auto g = Graph::build(corpus, aliases, plan_ip2as(), testutil::make_rels({}));
  const auto* l = find_link(g, ip(1, 1), ip(3, 1));
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->prev_ifaces.size(), 2u);  // both aliases seen before j
}

TEST(GraphDestSets, UnannouncedDestinationContributesNothing) {
  auto corpus = std::vector{testutil::tr(
      "a", "100.99.0.9", {{1, ip(1, 1), 'T'}, {2, ip(2, 1), 'T'}})};
  auto g = Graph::build(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  for (const auto& f : g.interfaces()) EXPECT_TRUE(f.dest_asns.empty());
}
