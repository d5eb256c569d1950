// Unit and property tests for the build-once longest-prefix-match table
// and for Ip2AS, which resolves origins through it.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "ip2as_oracle.hpp"
#include "netbase/prefix_table.hpp"
#include "netbase/rng.hpp"

using netbase::Family;
using netbase::IPAddr;
using netbase::Prefix;
using netbase::PrefixTable;

namespace {

PrefixTable<int> table_of(const std::vector<std::pair<const char*, int>>& entries) {
  std::vector<std::pair<Prefix, int>> parsed;
  for (const auto& [text, v] : entries) parsed.emplace_back(Prefix::must_parse(text), v);
  return PrefixTable<int>(std::move(parsed));
}

std::optional<int> value_at(const PrefixTable<int>& t, const char* addr) {
  const auto* hit = t.lookup(IPAddr::must_parse(addr));
  if (!hit) return std::nullopt;
  return hit->value;
}

}  // namespace

TEST(PrefixTable, EmptyLookupMisses) {
  const PrefixTable<int> t;
  EXPECT_EQ(t.lookup(IPAddr::must_parse("1.2.3.4")), nullptr);
  EXPECT_EQ(t.lookup(IPAddr::must_parse("2001:db8::1")), nullptr);
}

TEST(PrefixTable, NetworkAddressesHitTheirOwnPrefix) {
  const auto t = table_of({{"10.0.0.0/8", 1}, {"10.1.0.0/16", 2}});
  EXPECT_EQ(value_at(t, "10.0.0.0"), 1);
  EXPECT_EQ(value_at(t, "10.1.0.0"), 2);
  EXPECT_EQ(value_at(t, "10.2.0.0"), 1);
  EXPECT_EQ(value_at(t, "11.0.0.0"), std::nullopt);
}

TEST(PrefixTable, LongestMatchWins) {
  const auto t = table_of({{"0.0.0.0/0", 0}, {"10.0.0.0/8", 8},
                           {"10.1.0.0/16", 16}, {"10.1.2.0/24", 24}});
  EXPECT_EQ(value_at(t, "10.1.2.3"), 24);
  EXPECT_EQ(value_at(t, "10.1.3.4"), 16);
  EXPECT_EQ(value_at(t, "10.2.0.0"), 8);
  EXPECT_EQ(value_at(t, "11.0.0.0"), 0);
}

TEST(PrefixTable, LookupReturnsMatchedPrefix) {
  const auto t = table_of({{"192.0.2.0/24", 7}});
  const auto* hit = t.lookup(IPAddr::must_parse("192.0.2.200"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->prefix, Prefix::must_parse("192.0.2.0/24"));
  EXPECT_EQ(hit->value, 7);
}

TEST(PrefixTable, DuplicatePrefixKeepsLastValue) {
  const auto t = table_of({{"10.0.0.0/8", 1}, {"10.1.0.0/16", 5}, {"10.0.0.0/8", 2}});
  EXPECT_EQ(value_at(t, "10.0.0.1"), 2);
  EXPECT_EQ(value_at(t, "10.1.0.1"), 5);
}

TEST(PrefixTable, SiblingsAtDivergence) {
  const auto t = table_of({{"10.0.0.0/24", 1}, {"10.0.1.0/24", 2}});
  EXPECT_EQ(value_at(t, "10.0.0.5"), 1);
  EXPECT_EQ(value_at(t, "10.0.1.5"), 2);
  EXPECT_EQ(value_at(t, "10.0.2.5"), std::nullopt);
}

TEST(PrefixTable, ParentResumesAfterNestedChildren) {
  // Listed child-first; the /8 covers the addresses around both /24s.
  const auto t = table_of({{"10.1.2.0/24", 24}, {"10.1.4.0/24", 25}, {"10.0.0.0/8", 8}});
  EXPECT_EQ(value_at(t, "10.1.1.255"), 8);
  EXPECT_EQ(value_at(t, "10.1.2.3"), 24);
  EXPECT_EQ(value_at(t, "10.1.3.0"), 8);
  EXPECT_EQ(value_at(t, "10.1.4.255"), 25);
  EXPECT_EQ(value_at(t, "10.1.5.0"), 8);
  EXPECT_EQ(value_at(t, "10.255.255.255"), 8);
  EXPECT_EQ(value_at(t, "11.0.0.0"), std::nullopt);
}

TEST(PrefixTable, HostRoutes) {
  const auto t = table_of({{"10.0.0.1/32", 1}, {"10.0.0.0/24", 2},
                           {"2001:db8::1/128", 3}, {"2001:db8::/64", 4}});
  EXPECT_EQ(value_at(t, "10.0.0.1"), 1);
  EXPECT_EQ(value_at(t, "10.0.0.2"), 2);
  EXPECT_EQ(value_at(t, "10.0.0.0"), 2);
  EXPECT_EQ(value_at(t, "2001:db8::1"), 3);
  EXPECT_EQ(value_at(t, "2001:db8::2"), 4);
}

TEST(PrefixTable, V6LongestMatch) {
  const auto t = table_of({{"2001:db8::/32", 32}, {"2001:db8:1::/48", 48}});
  EXPECT_EQ(value_at(t, "2001:db8:1::5"), 48);
  EXPECT_EQ(value_at(t, "2001:db8:2::5"), 32);
  EXPECT_EQ(value_at(t, "2001:db9::"), std::nullopt);
}

TEST(PrefixTable, FamiliesAreIndependent) {
  const auto both = table_of({{"0.0.0.0/0", 4}, {"::/0", 6}});
  EXPECT_EQ(value_at(both, "8.8.8.8"), 4);
  EXPECT_EQ(value_at(both, "2001:db8::1"), 6);
  // A family with no prefixes misses, whichever side of the other it sorts.
  const auto v4_only = table_of({{"0.0.0.0/0", 4}});
  EXPECT_EQ(value_at(v4_only, "::"), std::nullopt);
  const auto v6_only = table_of({{"::/0", 6}});
  EXPECT_EQ(value_at(v6_only, "255.255.255.255"), std::nullopt);
}

TEST(PrefixTable, EndOfAddressSpace) {
  const auto t = table_of({{"0.0.0.0/0", 0}, {"255.0.0.0/8", 8},
                           {"255.255.255.255/32", 32}, {"ffff::/16", 16}});
  EXPECT_EQ(value_at(t, "255.255.255.255"), 32);
  EXPECT_EQ(value_at(t, "255.255.255.254"), 8);
  EXPECT_EQ(value_at(t, "254.255.255.255"), 0);
  EXPECT_EQ(value_at(t, "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"), 16);
  EXPECT_EQ(value_at(t, "fffe:ffff:ffff:ffff:ffff:ffff:ffff:ffff"), std::nullopt);
}

TEST(PrefixTable, DefaultRouteZeroLength) {
  const auto t = table_of({{"0.0.0.0/0", 99}});
  EXPECT_EQ(value_at(t, "203.0.113.7"), 99);
  EXPECT_EQ(value_at(t, "0.0.0.0"), 99);
}

// ---------------------------------------------------------------------
// Random address and prefix generators shared by the properties below.
// ---------------------------------------------------------------------

namespace {

IPAddr from_bytes(Family f, const std::array<std::uint8_t, 16>& b) {
  if (f == Family::v6) return IPAddr::v6(b);
  return IPAddr::v4((std::uint32_t{b[0]} << 24) | (std::uint32_t{b[1]} << 16) |
                    (std::uint32_t{b[2]} << 8) | b[3]);
}

IPAddr random_addr(netbase::SplitMix64& rng, Family f) {
  std::array<std::uint8_t, 16> b{};
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
  return from_bytes(f, b);
}

IPAddr last_addr(Family f) {
  std::array<std::uint8_t, 16> b;
  b.fill(0xFF);
  return from_bytes(f, b);
}

// An address inside `p`: its first, its last, or a random one.
IPAddr addr_in(netbase::SplitMix64& rng, const Prefix& p) {
  std::array<std::uint8_t, 16> b = p.addr().raw();
  const std::uint64_t mode = rng.below(3);
  if (mode == 0) return p.addr();
  for (int i = p.length(); i < p.addr().bits(); ++i)
    if (mode == 1 || rng.chance(0.5))
      b[static_cast<std::size_t>(i >> 3)] |= static_cast<std::uint8_t>(0x80u >> (i & 7));
  return from_bytes(p.family(), b);
}

}  // namespace

// ---------------------------------------------------------------------
// Property: table lookup == brute-force longest match over random sets.
// ---------------------------------------------------------------------

class PrefixTableProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixTableProperty, MatchesBruteForce) {
  netbase::SplitMix64 rng(GetParam());
  std::vector<std::pair<Prefix, std::size_t>> entries;
  for (std::size_t i = 0; i < 500; ++i) {
    const Family f = rng.chance(0.7) ? Family::v4 : Family::v6;
    const int bits = netbase::family_bits(f);
    const int len = f == Family::v4 ? 4 + static_cast<int>(rng.below(29))
                                    : static_cast<int>(rng.below(bits + 1));
    entries.emplace_back(Prefix(random_addr(rng, f), len), i);
    // Repeat some prefixes with a new value; the last one must win.
    if (rng.chance(0.05)) entries.emplace_back(entries.back().first, 1000 + i);
  }
  const PrefixTable<std::size_t> table(entries);
  auto brute = [&](const IPAddr& a) -> const std::pair<Prefix, std::size_t>* {
    const std::pair<Prefix, std::size_t>* best = nullptr;
    for (const auto& e : entries)
      if (e.first.contains(a) && (!best || e.first.length() >= best->first.length()))
        best = &e;
    return best;
  };
  for (int i = 0; i < 2000; ++i) {
    // Half the probes land inside stored prefixes to hit deep matches.
    const IPAddr probe =
        i % 2 == 0 ? addr_in(rng, entries[rng.below(entries.size())].first)
                   : random_addr(rng, rng.chance(0.5) ? Family::v4 : Family::v6);
    const auto* expect = brute(probe);
    const auto* got = table.lookup(probe);
    if (expect) {
      ASSERT_NE(got, nullptr) << probe.to_string();
      EXPECT_EQ(got->prefix, expect->first) << probe.to_string();
      EXPECT_EQ(got->value, expect->second) << probe.to_string();
    } else {
      EXPECT_EQ(got, nullptr) << probe.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixTableProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------
// Property: Ip2AS::lookup == the §4.1 brute-force oracle over random
// nested v4+v6 BGP / RIR / IXP sets.
// ---------------------------------------------------------------------

class Ip2ASProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Ip2ASProperty, MatchesOracle) {
  netbase::SplitMix64 rng(GetParam());
  // Seeds cycle through v4-only, v6-only and dual-stack prefix sets;
  // probes always come from both families.
  std::vector<Family> families;
  if (GetParam() % 3 != 1) families.push_back(Family::v4);
  if (GetParam() % 3 != 0) families.push_back(Family::v6);

  // A few base addresses per family, the last address among them, so
  // the prefixes nest deeply and reach the top of the space.
  std::vector<IPAddr> bases;
  for (const Family f : families) {
    bases.push_back(last_addr(f));
    for (int i = 0; i < 4; ++i) bases.push_back(random_addr(rng, f));
  }
  auto random_prefix = [&] {
    const IPAddr base = bases[rng.below(bases.size())];
    const int bits = base.bits();
    // /0 and host routes are edges worth hitting often.
    const std::uint64_t pick = rng.below(8);
    const int len = pick == 0 ? 0 : pick == 1 ? bits
                                              : static_cast<int>(rng.below(bits + 1));
    return Prefix(base, len);
  };

  bgp::Rib rib;
  for (int i = 0; i < 40; ++i) {
    bgp::Route r;
    r.prefix = random_prefix();
    // Mostly one origin, sometimes MOAS, rarely none at all.
    const std::uint64_t n = rng.chance(0.05) ? 0 : rng.chance(0.3) ? 2 + rng.below(2) : 1;
    for (std::uint64_t k = 0; k < n; ++k)
      r.origins.push_back(static_cast<netbase::Asn>(1 + rng.below(50)));
    rib.add(std::move(r));
  }
  std::vector<bgp::Delegation> delegations;
  for (int i = 0; i < 40; ++i) {
    // Some delegations repeat an earlier prefix with another holder.
    const Prefix p = !delegations.empty() && rng.chance(0.2)
                         ? delegations[rng.below(delegations.size())].prefix
                         : random_prefix();
    delegations.push_back({p, static_cast<netbase::Asn>(100 + rng.below(50))});
  }
  std::vector<Prefix> ixp;
  for (int i = 0; i < 4; ++i) {
    const Prefix p = random_prefix();
    ixp.emplace_back(p.addr(), std::max(p.length(), p.addr().bits() / 2));
  }

  const bgp::Ip2AS map = bgp::Ip2AS::build(rib, delegations, ixp);
  const testutil::Ip2ASOracle oracle(rib, delegations, ixp);
  EXPECT_EQ(map.bgp_entries(), oracle.bgp_table.size());
  EXPECT_EQ(map.rir_entries(), oracle.rir_table.size());
  EXPECT_EQ(map.ixp_entries(), ixp.size());

  std::vector<IPAddr> probes = {IPAddr::must_parse("0.0.0.0"), last_addr(Family::v4),
                                IPAddr::must_parse("::"), last_addr(Family::v6)};
  std::vector<Prefix> stored(ixp);
  for (const auto& [p, origins] : rib.origins()) stored.push_back(p);
  for (const auto& d : delegations) stored.push_back(d.prefix);
  for (int i = 0; i < 1500; ++i)
    probes.push_back(i % 3 != 0 ? addr_in(rng, stored[rng.below(stored.size())])
                                : random_addr(rng, rng.chance(0.5) ? Family::v4
                                                                   : Family::v6));
  for (const auto& a : probes) {
    const bgp::Origin got = map.lookup(a);
    const bgp::Origin want = oracle.lookup(a);
    EXPECT_TRUE(testutil::same_origin(got, want))
        << a.to_string() << ": got " << static_cast<int>(got.kind) << " " << got.asn
        << " " << got.prefix.to_string() << ", want " << static_cast<int>(want.kind)
        << " " << want.asn << " " << want.prefix.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ip2ASProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9));
