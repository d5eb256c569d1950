// Unit and property tests for the longest-prefix-match trie.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "netbase/rng.hpp"
#include "radix/radix_trie.hpp"

using netbase::IPAddr;
using netbase::Prefix;
using radix::RadixTrie;

TEST(RadixTrie, EmptyLookupMisses) {
  RadixTrie<int> trie;
  EXPECT_EQ(trie.lookup_value(IPAddr::must_parse("1.2.3.4")), nullptr);
  EXPECT_FALSE(trie.lookup(IPAddr::must_parse("1.2.3.4")).has_value());
  EXPECT_TRUE(trie.empty());
}

TEST(RadixTrie, InsertAndExactFind) {
  RadixTrie<int> trie;
  trie.insert(Prefix::must_parse("10.0.0.0/8"), 1);
  trie.insert(Prefix::must_parse("10.1.0.0/16"), 2);
  EXPECT_EQ(*trie.find(Prefix::must_parse("10.0.0.0/8")), 1);
  EXPECT_EQ(*trie.find(Prefix::must_parse("10.1.0.0/16")), 2);
  EXPECT_EQ(trie.find(Prefix::must_parse("10.2.0.0/16")), nullptr);
  EXPECT_EQ(trie.find(Prefix::must_parse("10.0.0.0/9")), nullptr);
  EXPECT_EQ(trie.size(), 2u);
}

TEST(RadixTrie, LongestMatchWins) {
  RadixTrie<int> trie;
  trie.insert(Prefix::must_parse("0.0.0.0/0"), 0);
  trie.insert(Prefix::must_parse("10.0.0.0/8"), 8);
  trie.insert(Prefix::must_parse("10.1.0.0/16"), 16);
  trie.insert(Prefix::must_parse("10.1.2.0/24"), 24);
  EXPECT_EQ(*trie.lookup_value(IPAddr::must_parse("10.1.2.3")), 24);
  EXPECT_EQ(*trie.lookup_value(IPAddr::must_parse("10.1.3.4")), 16);
  EXPECT_EQ(*trie.lookup_value(IPAddr::must_parse("10.2.0.0")), 8);
  EXPECT_EQ(*trie.lookup_value(IPAddr::must_parse("11.0.0.0")), 0);
}

TEST(RadixTrie, LookupReturnsMatchedPrefix) {
  RadixTrie<int> trie;
  trie.insert(Prefix::must_parse("192.0.2.0/24"), 7);
  auto hit = trie.lookup(IPAddr::must_parse("192.0.2.200"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first, Prefix::must_parse("192.0.2.0/24"));
  EXPECT_EQ(*hit->second, 7);
}

TEST(RadixTrie, InsertReplacesValue) {
  RadixTrie<int> trie;
  trie.insert(Prefix::must_parse("10.0.0.0/8"), 1);
  trie.insert(Prefix::must_parse("10.0.0.0/8"), 2);
  EXPECT_EQ(*trie.find(Prefix::must_parse("10.0.0.0/8")), 2);
  EXPECT_EQ(trie.size(), 1u);
}

TEST(RadixTrie, OperatorBracketDefaultInserts) {
  RadixTrie<int> trie;
  trie[Prefix::must_parse("10.0.0.0/8")] += 5;
  trie[Prefix::must_parse("10.0.0.0/8")] += 5;
  EXPECT_EQ(*trie.find(Prefix::must_parse("10.0.0.0/8")), 10);
}

TEST(RadixTrie, EraseRemovesOnlyExact) {
  RadixTrie<int> trie;
  trie.insert(Prefix::must_parse("10.0.0.0/8"), 1);
  trie.insert(Prefix::must_parse("10.1.0.0/16"), 2);
  EXPECT_FALSE(trie.erase(Prefix::must_parse("10.0.0.0/9")));
  EXPECT_TRUE(trie.erase(Prefix::must_parse("10.0.0.0/8")));
  EXPECT_FALSE(trie.erase(Prefix::must_parse("10.0.0.0/8")));
  EXPECT_EQ(trie.size(), 1u);
  // The more specific entry still resolves.
  EXPECT_EQ(*trie.lookup_value(IPAddr::must_parse("10.1.2.3")), 2);
  EXPECT_EQ(trie.lookup_value(IPAddr::must_parse("10.2.0.0")), nullptr);
}

TEST(RadixTrie, SiblingsAtDivergence) {
  RadixTrie<int> trie;
  trie.insert(Prefix::must_parse("10.0.0.0/24"), 1);
  trie.insert(Prefix::must_parse("10.0.1.0/24"), 2);
  EXPECT_EQ(*trie.lookup_value(IPAddr::must_parse("10.0.0.5")), 1);
  EXPECT_EQ(*trie.lookup_value(IPAddr::must_parse("10.0.1.5")), 2);
  EXPECT_EQ(trie.lookup_value(IPAddr::must_parse("10.0.2.5")), nullptr);
}

TEST(RadixTrie, SpliceParentAfterChild) {
  RadixTrie<int> trie;
  trie.insert(Prefix::must_parse("10.1.2.0/24"), 24);
  trie.insert(Prefix::must_parse("10.0.0.0/8"), 8);  // inserted above existing
  EXPECT_EQ(*trie.lookup_value(IPAddr::must_parse("10.1.2.3")), 24);
  EXPECT_EQ(*trie.lookup_value(IPAddr::must_parse("10.9.9.9")), 8);
}

TEST(RadixTrie, HostRoutes) {
  RadixTrie<int> trie;
  trie.insert(Prefix::must_parse("10.0.0.1/32"), 1);
  trie.insert(Prefix::must_parse("10.0.0.0/24"), 2);
  EXPECT_EQ(*trie.lookup_value(IPAddr::must_parse("10.0.0.1")), 1);
  EXPECT_EQ(*trie.lookup_value(IPAddr::must_parse("10.0.0.2")), 2);
}

TEST(RadixTrie, AllMatchesShortestFirst) {
  RadixTrie<int> trie;
  trie.insert(Prefix::must_parse("10.0.0.0/8"), 8);
  trie.insert(Prefix::must_parse("10.1.0.0/16"), 16);
  trie.insert(Prefix::must_parse("10.1.2.0/24"), 24);
  std::vector<int> seen;
  trie.all_matches(IPAddr::must_parse("10.1.2.3"),
                   [&](const Prefix&, const int& v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{8, 16, 24}));
}

TEST(RadixTrie, VisitSeesEveryEntry) {
  RadixTrie<int> trie;
  trie.insert(Prefix::must_parse("10.0.0.0/8"), 1);
  trie.insert(Prefix::must_parse("192.0.2.0/24"), 2);
  trie.insert(Prefix::must_parse("2001:db8::/32"), 3);
  int count = 0;
  trie.visit([&](const Prefix&, const int&) { ++count; });
  EXPECT_EQ(count, 3);
}

TEST(RadixTrie, V6LongestMatch) {
  RadixTrie<int> trie;
  trie.insert(Prefix::must_parse("2001:db8::/32"), 32);
  trie.insert(Prefix::must_parse("2001:db8:1::/48"), 48);
  EXPECT_EQ(*trie.lookup_value(IPAddr::must_parse("2001:db8:1::5")), 48);
  EXPECT_EQ(*trie.lookup_value(IPAddr::must_parse("2001:db8:2::5")), 32);
  EXPECT_EQ(trie.lookup_value(IPAddr::must_parse("2001:db9::")), nullptr);
}

TEST(RadixTrie, FamiliesAreIndependent) {
  RadixTrie<int> trie;
  trie.insert(Prefix::must_parse("0.0.0.0/0"), 4);
  trie.insert(Prefix::must_parse("::/0"), 6);
  EXPECT_EQ(*trie.lookup_value(IPAddr::must_parse("8.8.8.8")), 4);
  EXPECT_EQ(*trie.lookup_value(IPAddr::must_parse("2001:db8::1")), 6);
}

TEST(RadixTrie, DefaultRouteZeroLength) {
  RadixTrie<int> trie;
  trie.insert(Prefix::must_parse("0.0.0.0/0"), 99);
  EXPECT_EQ(*trie.lookup_value(IPAddr::must_parse("203.0.113.7")), 99);
  EXPECT_EQ(*trie.find(Prefix::must_parse("0.0.0.0/0")), 99);
}

// ---------------------------------------------------------------------
// Property: trie lookup == brute-force longest match over random sets.
// ---------------------------------------------------------------------

class RadixProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RadixProperty, MatchesBruteForce) {
  netbase::SplitMix64 rng(GetParam());
  RadixTrie<std::size_t> trie;
  std::vector<Prefix> prefixes;
  for (std::size_t i = 0; i < 500; ++i) {
    const Prefix p(IPAddr::v4(static_cast<std::uint32_t>(rng())),
                   4 + static_cast<int>(rng.below(29)));
    // Keep the first value for duplicate prefixes, like the brute force.
    if (!trie.find(p)) {
      trie.insert(p, prefixes.size());
      prefixes.push_back(p);
    }
  }
  auto brute = [&](const IPAddr& a) -> std::optional<std::size_t> {
    std::optional<std::size_t> best;
    int best_len = -1;
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      if (prefixes[i].contains(a) && prefixes[i].length() > best_len) {
        best = i;
        best_len = prefixes[i].length();
      }
    }
    return best;
  };
  for (int i = 0; i < 2000; ++i) {
    // Half the probes land near stored prefixes to hit deep matches.
    IPAddr probe = IPAddr::v4(static_cast<std::uint32_t>(rng()));
    if (i % 2 == 0 && !prefixes.empty()) {
      const Prefix& base = prefixes[rng.below(prefixes.size())];
      probe = IPAddr::v4(base.addr().v4_value() +
                         static_cast<std::uint32_t>(rng.below(256)));
    }
    const auto expect = brute(probe);
    const std::size_t* got = trie.lookup_value(probe);
    if (expect.has_value()) {
      ASSERT_NE(got, nullptr) << probe.to_string();
      EXPECT_EQ(*got, *expect) << probe.to_string();
    } else {
      EXPECT_EQ(got, nullptr) << probe.to_string();
    }
  }
}

TEST_P(RadixProperty, EraseMatchesBruteForce) {
  netbase::SplitMix64 rng(GetParam() ^ 0xE5A5Eull);
  RadixTrie<int> trie;
  std::vector<Prefix> alive;
  for (int i = 0; i < 300; ++i) {
    const Prefix p(IPAddr::v4(static_cast<std::uint32_t>(rng())),
                   8 + static_cast<int>(rng.below(17)));
    if (!trie.find(p)) {
      trie.insert(p, i);
      alive.push_back(p);
    }
  }
  // Delete half.
  for (std::size_t i = 0; i < alive.size() / 2; ++i) {
    const std::size_t j = rng.below(alive.size());
    trie.erase(alive[j]);
    alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(j));
  }
  EXPECT_EQ(trie.size(), alive.size());
  for (int i = 0; i < 500; ++i) {
    const IPAddr probe = IPAddr::v4(static_cast<std::uint32_t>(rng()));
    int best_len = -1;
    bool expect = false;
    for (const auto& p : alive)
      if (p.contains(probe) && p.length() > best_len) {
        best_len = p.length();
        expect = true;
      }
    EXPECT_EQ(trie.lookup_value(probe) != nullptr, expect);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadixProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));
