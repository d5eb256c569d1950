// IPv6 end-to-end tests: every layer above netbase is family-agnostic,
// so a v6 traceroute corpus must flow through graph construction,
// annotation, and link extraction unchanged.

#include <gtest/gtest.h>

#include "core/bdrmapit.hpp"
#include "test_util.hpp"

using netbase::IPAddr;

namespace {

// Address plan: AS n <- 2001:db8:n::/48.
bgp::Ip2AS v6_ip2as() {
  std::vector<std::pair<std::string, netbase::Asn>> prefixes;
  for (int n = 1; n <= 9; ++n)
    prefixes.emplace_back("2001:db8:" + std::to_string(n) + "::/48",
                          static_cast<netbase::Asn>(n));
  return testutil::make_ip2as(prefixes, {"2001:7f8::/32"});  // IXP /32
}

std::string ip6(int as, int host) {
  return "2001:db8:" + std::to_string(as) + "::" + std::to_string(host);
}

}  // namespace

TEST(Ipv6, OriginLookups) {
  const auto map = v6_ip2as();
  EXPECT_EQ(map.asn(IPAddr::must_parse("2001:db8:3::42")), 3u);
  EXPECT_TRUE(map.lookup(IPAddr::must_parse("2001:7f8::5")).is_ixp());
  EXPECT_EQ(map.lookup(IPAddr::must_parse("2a00::1")).kind, bgp::OriginKind::none);
  EXPECT_EQ(map.lookup(IPAddr::must_parse("fe80::1")).kind,
            bgp::OriginKind::private_addr);
}

TEST(Ipv6, GraphBuildsFromV6Corpus) {
  auto corpus = std::vector{
      testutil::tr("vp6", ip6(3, 99),
                   {{1, ip6(1, 1), 'T'}, {2, ip6(2, 1), 'T'}, {3, ip6(3, 1), 'T'}})};
  auto g = graph::Graph::build(corpus, {}, v6_ip2as(), testutil::make_rels({}));
  EXPECT_EQ(g.interfaces().size(), 3u);
  EXPECT_EQ(g.links().size(), 2u);
  for (const auto& l : g.links()) EXPECT_EQ(l.label, graph::LinkLabel::nexthop);
  const int fid = g.iface_by_addr(IPAddr::must_parse(ip6(2, 1)));
  ASSERT_GE(fid, 0);
  EXPECT_EQ(g.interfaces()[static_cast<std::size_t>(fid)].origin.asn, 2u);
}

TEST(Ipv6, LastHopDestinationHeuristic) {
  // Same firewalled-edge shape as the v4 tests: border interface in
  // provider space (AS1), probes to customer AS5 die there.
  auto corpus = std::vector{testutil::tr(
      "vp6", ip6(5, 9), {{1, ip6(9, 1), 'T'}, {2, ip6(1, 5), 'T'}})};
  core::Result r = core::Bdrmapit::run(corpus, {}, v6_ip2as(),
                                       testutil::make_rels({"1>5"}));
  const auto& inf = testutil::inf_at(r.interfaces, IPAddr::must_parse(ip6(1, 5)));
  EXPECT_EQ(inf.router_as, 5u);
  EXPECT_EQ(inf.conn_as, 1u);
  EXPECT_TRUE(inf.interdomain());
}

TEST(Ipv6, FullPipelineWithAliases) {
  tracedata::AliasSets aliases;
  aliases.add({IPAddr::must_parse(ip6(1, 11)), IPAddr::must_parse(ip6(1, 12))});
  auto corpus = std::vector{
      testutil::tr("a", ip6(2, 9), {{1, ip6(1, 11), 'T'}, {2, ip6(2, 1), 'T'}}),
      testutil::tr("b", ip6(2, 8), {{1, ip6(1, 12), 'T'}, {2, ip6(2, 1), 'T'}})};
  core::Result r = core::Bdrmapit::run(corpus, aliases, v6_ip2as(),
                                       testutil::make_rels({"1>2"}));
  // Multihomed-customer exception works identically in v6.
  EXPECT_EQ(testutil::inf_at(r.interfaces, IPAddr::must_parse(ip6(1, 11))).router_as, 2u);
  const auto links = r.as_links();
  ASSERT_FALSE(links.empty());
  EXPECT_EQ(links.front(), (std::pair<netbase::Asn, netbase::Asn>{1, 2}));
}

TEST(Ipv6, MixedFamilyCorpus) {
  // v4 and v6 traceroutes in one corpus: families never collide.
  auto corpus = std::vector{
      testutil::tr("vp4", "20.0.2.9", {{1, "20.0.1.1", 'T'}, {2, "20.0.2.1", 'T'}}),
      testutil::tr("vp6", ip6(2, 9), {{1, ip6(1, 1), 'T'}, {2, ip6(2, 1), 'T'}})};
  std::vector<std::pair<std::string, netbase::Asn>> prefixes = {
      {"20.0.1.0/24", 1}, {"20.0.2.0/24", 2},
      {"2001:db8:1::/48", 1}, {"2001:db8:2::/48", 2}};
  auto map = testutil::make_ip2as(prefixes);
  core::Result r = core::Bdrmapit::run(corpus, {}, map, testutil::make_rels({"1>2"}));
  EXPECT_EQ(r.interfaces.size(), 4u);
  // Both families produce the same inference independently (here the
  // Fig. 11 exception maps the provider-space interface to customer 2).
  EXPECT_EQ(testutil::inf_at(r.interfaces, IPAddr::must_parse("20.0.1.1")).router_as,
            testutil::inf_at(r.interfaces, IPAddr::must_parse(ip6(1, 1))).router_as);
  const auto links = r.as_links();
  // The 1-2 adjacency is inferred exactly once per family -> deduped to
  // one AS-level link.
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links.front(), (std::pair<netbase::Asn, netbase::Asn>{1, 2}));
}

TEST(Ipv6, TracerouteFileFormatRoundTrip) {
  auto corpus = std::vector{testutil::tr(
      "vp6", ip6(2, 9), {{1, ip6(1, 1), 'T'}, {4, ip6(2, 9), 'E'}})};
  std::stringstream buf;
  tracedata::write_traceroutes(buf, corpus);
  std::size_t malformed = 0;
  EXPECT_EQ(tracedata::read_traceroutes(buf, &malformed), corpus);
  EXPECT_EQ(malformed, 0u);
}

TEST(Ipv6, V6DelegationsSupplementBgp) {
  bgp::Rib rib;
  rib.add_line("2001:db8:1::/48 65000 1");
  std::vector<bgp::Delegation> dels{
      {netbase::Prefix::must_parse("2001:db8:2::/48"), 2}};
  auto map = bgp::Ip2AS::build(rib, dels, {});
  EXPECT_EQ(map.lookup(IPAddr::must_parse("2001:db8:2::7")).kind,
            bgp::OriginKind::rir);
  EXPECT_EQ(map.asn(IPAddr::must_parse("2001:db8:2::7")), 2u);
}
