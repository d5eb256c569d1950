// Tests for the public core API surface: Result semantics, the
// address-sorted interface table and its lookup, as_links extraction,
// IfaceInference predicates, iteration stats plumbing.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/bdrmapit.hpp"
#include "eval/experiment.hpp"
#include "serve/snapshot.hpp"
#include "test_util.hpp"

using netbase::IPAddr;
using netbase::kNoAs;

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

TEST(CoreApi, IfaceInferencePredicates) {
  core::IfaceInference inf;
  EXPECT_FALSE(inf.interdomain());  // both unset
  inf.router_as = 1;
  inf.conn_as = 1;
  EXPECT_FALSE(inf.interdomain());  // internal
  inf.conn_as = 2;
  EXPECT_TRUE(inf.interdomain());
  inf.router_as = kNoAs;
  EXPECT_FALSE(inf.interdomain());  // unknown side never claims a border
}

TEST(CoreApi, AsLinksDeduplicatesAndNormalizes) {
  // Two traces exposing the same 1-2 border from both flanks: one
  // normalized AS-level link.
  auto corpus = std::vector{
      testutil::tr("a", ip(2, 9), {{1, ip(1, 1), 'T'}, {2, ip(1, 50), 'T'},
                                   {3, ip(2, 1), 'T'}}),
      testutil::tr("b", ip(2, 8), {{1, ip(1, 2), 'T'}, {2, ip(1, 50), 'T'},
                                   {3, ip(2, 2), 'T'}})};
  core::Result r = core::Bdrmapit::run(corpus, {}, plan_ip2as(),
                                       testutil::make_rels({"1>2"}));
  const auto links = r.as_links();
  for (std::size_t i = 1; i < links.size(); ++i) EXPECT_LT(links[i - 1], links[i]);
  for (const auto& [a, b] : links) EXPECT_LT(a, b);
  bool found = false;
  for (const auto& l : links)
    if (l == std::pair<netbase::Asn, netbase::Asn>{1, 2}) found = true;
  EXPECT_TRUE(found);
}

TEST(CoreApi, ResultExposesIterationStats) {
  auto corpus = std::vector{testutil::tr(
      "a", ip(2, 9), {{1, ip(1, 1), 'T'}, {2, ip(2, 1), 'T'}})};
  core::Result r = core::Bdrmapit::run(corpus, {}, plan_ip2as(),
                                       testutil::make_rels({"1>2"}));
  EXPECT_EQ(static_cast<int>(r.iteration_stats.size()), r.iterations);
  ASSERT_GE(r.iterations, 1);
}

TEST(CoreApi, InterfacesKeyedByEveryObservedAddress) {
  auto corpus = std::vector{testutil::tr(
      "a", ip(3, 9),
      {{1, "10.0.0.1", 'T'}, {2, ip(1, 1), 'T'}, {3, ip(2, 1), 'T'}})};
  core::Result r =
      core::Bdrmapit::run(corpus, {}, plan_ip2as(), testutil::make_rels({}));
  EXPECT_EQ(r.interfaces.size(), 2u);  // the private gateway is excluded
  EXPECT_NE(core::find_iface(r.interfaces, IPAddr::must_parse(ip(1, 1))), nullptr);
  EXPECT_EQ(core::find_iface(r.interfaces, IPAddr::must_parse("10.0.0.1")), nullptr);
}

// On full synthetic runs the table is strictly address-sorted, holds
// exactly one record per graph interface (mirroring its IR and
// annotations), and is the snapshot's interface table as it is.
TEST(CoreApi, InterfaceTableMirrorsGraphSortedAndIsTheSnapshotTable) {
  for (const std::uint64_t seed : {1u, 5u, 7u}) {
    const eval::Scenario s = eval::make_scenario(topo::small_params(), 12, true, seed);
    const core::Result r =
        core::Bdrmapit::run(s.corpus, eval::midar_aliases(s), s.ip2as, s.rels);
    const auto& table = r.interfaces;
    ASSERT_EQ(table.size(), r.graph.interfaces().size()) << seed;
    ASSERT_GT(table.size(), 100u);
    for (std::size_t i = 1; i < table.size(); ++i)
      ASSERT_LT(table[i - 1].addr, table[i].addr) << seed << " at " << i;
    for (const auto& f : r.graph.interfaces()) {
      const core::IfaceRecord* rec = core::find_iface(table, f.addr);
      ASSERT_NE(rec, nullptr) << f.addr.to_string();
      EXPECT_EQ(rec->router_id, static_cast<std::uint32_t>(f.ir));
      EXPECT_EQ(rec->inf.router_as,
                r.graph.irs()[static_cast<std::size_t>(f.ir)].annotation);
      EXPECT_EQ(rec->inf.conn_as, f.annotation);
      EXPECT_EQ(rec->inf.ixp, f.origin.is_ixp());
      EXPECT_EQ(rec->inf.seen_non_echo, f.seen_non_echo);
      EXPECT_EQ(rec->inf.seen_mid_path, f.seen_mid_path);
    }
    EXPECT_TRUE(serve::snapshot_from_result(r).interfaces == table) << seed;

    // The lookup hits every record in place, and misses addresses the
    // table lacks in either family.
    for (const auto& rec : table) ASSERT_EQ(core::find_iface(table, rec.addr), &rec);
    for (const char* absent : {"0.0.0.0", "255.255.255.255", "::",
                               "2001:db8::dead", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"}) {
      const IPAddr a = IPAddr::must_parse(absent);
      ASSERT_TRUE(std::ranges::none_of(table, [&](const auto& rec) { return rec.addr == a; }));
      EXPECT_EQ(core::find_iface(table, a), nullptr) << absent;
    }
  }
}

// A hand-built mixed-family table: v4 records sort before v6 ones, and
// an address whose bytes mirror a record of the other family misses.
TEST(CoreApi, FindIfaceOnMixedFamilyTable) {
  std::vector<core::IfaceRecord> table;
  for (const char* a : {"2001:db8::1", "10.0.0.2", "::a00:1", "10.0.0.1"})
    table.push_back({IPAddr::must_parse(a), 0, {}});
  core::sort_by_addr(table);
  EXPECT_EQ(table.front().addr, IPAddr::must_parse("10.0.0.1"));
  EXPECT_EQ(table.back().addr, IPAddr::must_parse("2001:db8::1"));
  for (const auto& rec : table) EXPECT_EQ(core::find_iface(table, rec.addr), &rec);
  for (const char* absent : {"10.0.0.3", "0.0.0.10", "::a00:2", "::ffff:10.0.0.1",
                             "2001:db8::2"})
    EXPECT_EQ(core::find_iface(table, IPAddr::must_parse(absent)), nullptr) << absent;
  EXPECT_EQ(core::find_iface({}, IPAddr::must_parse("10.0.0.1")), nullptr);
}

TEST(CoreApi, EmptyCorpusYieldsEmptyResult) {
  core::Result r =
      core::Bdrmapit::run({}, {}, plan_ip2as(), testutil::make_rels({}));
  EXPECT_TRUE(r.interfaces.empty());
  EXPECT_TRUE(r.as_links().empty());
}

TEST(CoreApi, MaxIterationsRespected) {
  auto corpus = std::vector{testutil::tr(
      "a", ip(2, 9), {{1, ip(1, 1), 'T'}, {2, ip(2, 1), 'T'}})};
  core::AnnotatorOptions opt;
  opt.max_iterations = 1;
  core::Result r = core::Bdrmapit::run(corpus, {}, plan_ip2as(),
                                       testutil::make_rels({"1>2"}), opt);
  EXPECT_EQ(r.iterations, 1);
}
