// Tests for the serving layer: snapshot serialization round-trips,
// corrupt/truncated files are rejected with a diagnostic, and the
// AnnotationStore answers every query consistently with the Result it
// was built from.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "eval/experiment.hpp"
#include "serve/protocol.hpp"
#include "serve/store.hpp"

namespace {

struct Run {
  eval::Scenario scenario;
  core::Result result;
};

Run run_small(std::uint64_t seed, std::size_t vps = 12) {
  eval::Scenario s = eval::make_scenario(topo::small_params(), vps, true, seed);
  core::Result r =
      core::Bdrmapit::run(s.corpus, eval::midar_aliases(s), s.ip2as, s.rels);
  return Run{std::move(s), std::move(r)};
}

std::string serialize(const serve::Snapshot& snap) {
  std::ostringstream out;
  serve::write_snapshot(out, snap);
  return out.str();
}

serve::Snapshot must_load(const std::string& bytes) {
  std::istringstream in(bytes);
  serve::Snapshot snap;
  std::string error;
  EXPECT_TRUE(serve::load_snapshot(in, &snap, &error)) << error;
  return snap;
}

bool load_fails(const std::string& bytes, std::string* error = nullptr) {
  std::istringstream in(bytes);
  serve::Snapshot snap;
  std::string err;
  const bool ok = serve::load_snapshot(in, &snap, &err);
  if (error) *error = err;
  return !ok;
}

}  // namespace

TEST(Crc32, KnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(serve::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(serve::crc32("", 0), 0u);
}

TEST(Snapshot, RoundTripIsLossless) {
  auto run = run_small(5);
  const serve::Snapshot snap = serve::snapshot_from_result(run.result);
  ASSERT_EQ(snap.interfaces.size(), run.result.interfaces.size());

  const serve::Snapshot back = must_load(serialize(snap));
  EXPECT_EQ(back.iterations, snap.iterations);
  EXPECT_EQ(back.router_count, snap.router_count);
  ASSERT_EQ(back.iteration_stats.size(), snap.iteration_stats.size());
  for (std::size_t i = 0; i < snap.iteration_stats.size(); ++i) {
    EXPECT_EQ(back.iteration_stats[i].changed_irs,
              snap.iteration_stats[i].changed_irs);
    EXPECT_EQ(back.iteration_stats[i].changed_ifaces,
              snap.iteration_stats[i].changed_ifaces);
  }
  EXPECT_TRUE(back.interfaces == snap.interfaces);
  EXPECT_EQ(back.as_links, snap.as_links);
}

TEST(Snapshot, SerializationIsDeterministic) {
  auto a = run_small(9);
  auto b = run_small(9);
  EXPECT_EQ(serialize(serve::snapshot_from_result(a.result)),
            serialize(serve::snapshot_from_result(b.result)));
}

TEST(Snapshot, AsLinksOrderingStableAcrossRuns) {
  // Result::as_links() feeds the snapshot; its ordering (and therefore
  // the snapshot bytes and every LINKS reply) must not depend on
  // unordered_map iteration order.
  auto a = run_small(13);
  auto b = run_small(13);
  const auto la = a.result.as_links();
  const auto lb = b.result.as_links();
  ASSERT_EQ(la, lb);
  EXPECT_TRUE(std::is_sorted(la.begin(), la.end()));
  for (const auto& [x, y] : la) EXPECT_LT(x, y);
}

TEST(Snapshot, RejectsGarbageAndShortFiles) {
  std::string error;
  EXPECT_TRUE(load_fails("", &error));
  EXPECT_NE(error.find("too small"), std::string::npos) << error;
  EXPECT_TRUE(load_fails("BMIS", &error));  // header cut off
  EXPECT_TRUE(load_fails("this is not a snapshot at all", &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(Snapshot, RejectsTruncation) {
  auto run = run_small(5);
  const std::string bytes = serialize(serve::snapshot_from_result(run.result));
  // Every strict prefix must fail — header checks catch most, payload
  // bounds checks the rest. Sample a spread of cut points.
  for (std::size_t keep : {std::size_t{1}, std::size_t{10}, std::size_t{19},
                           std::size_t{20}, bytes.size() / 2, bytes.size() - 1}) {
    ASSERT_LT(keep, bytes.size());
    EXPECT_TRUE(load_fails(bytes.substr(0, keep))) << "kept " << keep;
  }
}

TEST(Snapshot, RejectsTrailingGarbage) {
  auto run = run_small(5);
  std::string bytes = serialize(serve::snapshot_from_result(run.result));
  bytes += "extra";
  std::string error;
  EXPECT_TRUE(load_fails(bytes, &error));
  EXPECT_NE(error.find("size mismatch"), std::string::npos) << error;
}

TEST(Snapshot, RejectsBitFlips) {
  auto run = run_small(5);
  const std::string good = serialize(serve::snapshot_from_result(run.result));
  // Flip one byte at a spread of offsets across the payload; the CRC
  // must catch every one.
  for (std::size_t off = 20; off < good.size(); off += good.size() / 37 + 1) {
    std::string bad = good;
    bad[off] = static_cast<char>(bad[off] ^ 0x40);
    EXPECT_TRUE(load_fails(bad)) << "flip at " << off;
  }
}

TEST(Snapshot, RejectsUnsupportedVersion) {
  auto run = run_small(5);
  std::string bytes = serialize(serve::snapshot_from_result(run.result));
  bytes[4] = 'c';  // version lives at offset 4, little-endian
  std::string error;
  EXPECT_TRUE(load_fails(bytes, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(Store, AnswersMatchResult) {
  auto run = run_small(7);
  const serve::AnnotationStore store(
      must_load(serialize(serve::snapshot_from_result(run.result))));
  ASSERT_EQ(store.stats().interfaces, run.result.interfaces.size());
  for (const auto& want : run.result.interfaces) {
    const auto* rec = store.find(want.addr);
    ASSERT_NE(rec, nullptr) << want.addr.to_string();
    EXPECT_TRUE(*rec == want) << want.addr.to_string();
  }
  EXPECT_EQ(store.find(netbase::IPAddr::must_parse("255.255.255.254")), nullptr);
}

TEST(Store, BatchedEqualsSingles) {
  auto run = run_small(7);
  const serve::AnnotationStore store(
      must_load(serialize(serve::snapshot_from_result(run.result))));
  std::vector<netbase::IPAddr> addrs;
  for (const auto& rec : store.snapshot().interfaces) addrs.push_back(rec.addr);
  addrs.push_back(netbase::IPAddr::must_parse("203.0.113.250"));  // likely miss
  std::vector<const serve::SnapshotIface*> batch(addrs.size());
  store.find_batch(addrs.data(), addrs.size(), batch.data());
  for (std::size_t i = 0; i < addrs.size(); ++i)
    EXPECT_EQ(batch[i], store.find(addrs[i]));
}

TEST(Store, PrefixEnumerationMatchesFilter) {
  auto run = run_small(7);
  const serve::AnnotationStore store(
      must_load(serialize(serve::snapshot_from_result(run.result))));
  const auto& all = store.snapshot().interfaces;

  // The whole v4 space enumerates every interface, in address order.
  const auto everything = store.find_under(netbase::Prefix::must_parse("0.0.0.0/0"));
  std::size_t v4_count = 0;
  for (const auto& rec : all) v4_count += rec.addr.is_v4();
  EXPECT_EQ(everything.size(), v4_count);
  for (std::size_t i = 1; i < everything.size(); ++i)
    EXPECT_LT(everything[i - 1].addr, everything[i].addr);

  // Every /20 around an observed address returns exactly the brute-force
  // filtered set, in table order.
  for (std::size_t i = 0; i < all.size(); i += all.size() / 16 + 1) {
    const netbase::Prefix p(all[i].addr, 20);
    std::vector<netbase::IPAddr> got, expect;
    for (const auto& rec : store.find_under(p)) got.push_back(rec.addr);
    for (const auto& rec : all)
      if (p.contains(rec.addr)) expect.push_back(rec.addr);
    EXPECT_EQ(got, expect) << p.to_string();
  }
}

TEST(Store, SecondaryIndexesAreConsistent) {
  auto run = run_small(7);
  const serve::AnnotationStore store(
      must_load(serialize(serve::snapshot_from_result(run.result))));
  const auto links = run.result.as_links();
  ASSERT_FALSE(links.empty());
  EXPECT_EQ(store.stats().as_links, links.size());

  // Each AS's link list is exactly the global list filtered to it.
  std::unordered_set<netbase::Asn> ases;
  for (const auto& [a, b] : links) {
    ases.insert(a);
    ases.insert(b);
  }
  for (netbase::Asn asn : ases) {
    const auto links_of = store.links_of(asn);
    const std::vector<std::pair<netbase::Asn, netbase::Asn>> got(links_of.begin(),
                                                                 links_of.end());
    std::vector<std::pair<netbase::Asn, netbase::Asn>> expect;
    for (const auto& l : links)
      if (l.first == asn || l.second == asn) expect.push_back(l);
    EXPECT_EQ(got, expect) << "AS" << asn;
  }
  EXPECT_TRUE(store.links_of(4200000001u).empty());

  // Interface counts per AS sum to the table size.
  std::unordered_map<netbase::Asn, std::uint64_t> counts;
  for (const auto& rec : store.snapshot().interfaces)
    ++counts[rec.inf.router_as];
  std::uint64_t total = 0;
  for (const auto& [asn, n] : counts) {
    EXPECT_EQ(store.iface_count_of(asn), n);
    total += n;
  }
  EXPECT_EQ(total, store.stats().interfaces);
  EXPECT_EQ(store.iface_count_of(4200000001u), 0u);

  // Router ids stay within the router count and group aliases together.
  for (const auto& rec : store.snapshot().interfaces)
    EXPECT_LT(rec.router_id, store.stats().routers);
}

TEST(Store, RouterMembershipMatchesGraph) {
  auto run = run_small(7);
  const serve::AnnotationStore store(
      must_load(serialize(serve::snapshot_from_result(run.result))));
  // Two addresses on the same IR in the graph share a router_id in the
  // store, and vice versa.
  const auto& g = run.result.graph;
  for (const auto& f : g.interfaces()) {
    const auto* rec = store.find(f.addr);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->router_id, static_cast<std::uint32_t>(f.ir));
  }
}

// ROUTER answers every alias of the router in ascending address order,
// then END with the count: a brute-force filter of the table, rendered
// independently of the protocol's formatter.
TEST(Store, RouterRepliesMatchBruteForce) {
  auto run = run_small(7);
  serve::StoreHandle handle(std::make_shared<const serve::AnnotationStore>(
      must_load(serialize(serve::snapshot_from_result(run.result)))));
  const serve::Protocol protocol(handle);
  const auto& all = handle.acquire()->snapshot().interfaces;
  ASSERT_FALSE(all.empty());
  std::size_t multi = 0;  // routers with more than one alias
  for (const auto& rec : all) {
    std::string expect;
    std::size_t n = 0;
    for (const auto& other : all) {
      if (other.router_id != rec.router_id) continue;
      std::string flags = std::string(other.inf.interdomain() ? "B" : "") +
                          (other.inf.ixp ? "X" : "") + (other.inf.seen_non_echo ? "" : "E");
      expect += other.addr.to_string() + "\t" + std::to_string(other.inf.router_as) +
                "\t" + std::to_string(other.inf.conn_as) + "\t" +
                (flags.empty() ? "-" : flags) + "\n";
      ++n;
    }
    expect += "END\t" + std::to_string(n) + "\n";
    multi += n > 1;
    std::string got;
    protocol.handle_line("ROUTER " + rec.addr.to_string(), got);
    EXPECT_EQ(got, expect) << rec.addr.to_string();
  }
  EXPECT_GT(multi, 0u);  // the scenario has real alias sets
}

// find_under's edges on a hand-built dual-stack table: each family's
// default route stays in its family, a host prefix is exactly its
// record, and prefixes past either family's last record are empty.
TEST(Store, FindUnderDualStackEdges) {
  serve::Snapshot snap;
  snap.router_count = 2;
  for (const char* addr : {"10.0.0.1", "10.0.0.2", "192.0.2.7", "2001:db8::1",
                           "2001:db8::2", "2001:db8:1::1"}) {
    serve::SnapshotIface rec;
    rec.addr = netbase::IPAddr::must_parse(addr);
    rec.router_id = rec.addr.is_v4() ? 0 : 1;
    rec.inf.router_as = 65001;
    snap.interfaces.push_back(rec);
  }
  ASSERT_TRUE(serve::validate_snapshot(snap).empty());
  const serve::AnnotationStore store(snap);
  auto addrs_under = [&store](const char* cidr) {
    std::vector<std::string> out;
    for (const auto& rec : store.find_under(netbase::Prefix::must_parse(cidr)))
      out.push_back(rec.addr.to_string());
    return out;
  };
  using V = std::vector<std::string>;
  EXPECT_EQ(addrs_under("0.0.0.0/0"), (V{"10.0.0.1", "10.0.0.2", "192.0.2.7"}));
  EXPECT_EQ(addrs_under("::/0"), (V{"2001:db8::1", "2001:db8::2", "2001:db8:1::1"}));
  EXPECT_EQ(addrs_under("10.0.0.2/32"), (V{"10.0.0.2"}));
  EXPECT_EQ(addrs_under("2001:db8::1/128"), (V{"2001:db8::1"}));
  EXPECT_EQ(addrs_under("10.0.0.0/30"), (V{"10.0.0.1", "10.0.0.2"}));
  EXPECT_EQ(addrs_under("2001:db8::/48"), (V{"2001:db8::1", "2001:db8::2"}));
  EXPECT_TRUE(addrs_under("10.0.0.3/32").empty());
  EXPECT_TRUE(addrs_under("223.0.0.0/8").empty());     // past the last v4 record
  EXPECT_TRUE(addrs_under("ffff::/16").empty());       // past the last record
  EXPECT_TRUE(addrs_under("0.0.0.0/8").empty());       // before the first record
}

// ---- serve-time audit gate ---------------------------------------------

TEST(StoreAudit, HealthySnapshotValidatesCleanAndOpens) {
  auto run = run_small(5);
  serve::Snapshot snap = serve::snapshot_from_result(run.result);
  EXPECT_TRUE(serve::validate_snapshot(snap).empty());
  std::vector<serve::SnapshotIssue> issues;
  const auto store = serve::AnnotationStore::open(snap, 1, &issues);
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(issues.empty());
  EXPECT_EQ(store->stats().interfaces, snap.interfaces.size());
}

TEST(StoreAudit, CrcValidButViolatingSnapshotIsRejected) {
  auto run = run_small(5);
  serve::Snapshot snap = serve::snapshot_from_result(run.result);
  ASSERT_GE(snap.interfaces.size(), 2u);
  std::swap(snap.interfaces.front(), snap.interfaces.back());
  // The corruption survives a serialize/load round-trip: the rewritten
  // CRC is valid, so only the audit can catch it.
  serve::Snapshot reloaded = must_load(serialize(snap));
  const auto found = serve::validate_snapshot(reloaded);
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found.front().check, "snapshot.iface-sorted");

  std::vector<serve::SnapshotIssue> issues;
  EXPECT_EQ(serve::AnnotationStore::open(std::move(reloaded), 1, &issues),
            nullptr);
  EXPECT_FALSE(issues.empty());
}

TEST(StoreAudit, DanglingAsLinkAndRouterCountAreFlagged) {
  auto run = run_small(5);
  {
    serve::Snapshot snap = serve::snapshot_from_result(run.result);
    snap.as_links.push_back({4200000000u, 4200000001u});
    const auto found = serve::validate_snapshot(snap);
    ASSERT_FALSE(found.empty());
    bool member = false;
    for (const auto& i : found) member |= i.check == "snapshot.as-link-member";
    EXPECT_TRUE(member);
  }
  {
    serve::Snapshot snap = serve::snapshot_from_result(run.result);
    snap.router_count = snap.interfaces.size() + 3;
    const auto found = serve::validate_snapshot(snap);
    ASSERT_FALSE(found.empty());
    EXPECT_EQ(found.front().check, "snapshot.router-count");
  }
}

TEST(StoreAudit, ValidationIsThreadCountInvariant) {
  auto run = run_small(5);
  serve::Snapshot snap = serve::snapshot_from_result(run.result);
  std::swap(snap.interfaces.front(), snap.interfaces.back());
  snap.as_links.push_back({4200000000u, 4200000001u});
  const auto base = serve::validate_snapshot(snap, 1);
  for (const int threads : {2, 8, 0}) {
    const auto got = serve::validate_snapshot(snap, threads);
    ASSERT_EQ(got.size(), base.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(got[i].check, base[i].check);
      EXPECT_EQ(got[i].detail, base[i].detail);
    }
  }
}

// A hot-reload cycle is a sequence of gated opens feeding a
// StoreHandle: only candidates the gate accepts may advance the
// published generation.
TEST(StoreAudit, RejectedReloadNeverPublishes) {
  auto run = run_small(5);
  auto healthy = [&] { return serve::snapshot_from_result(run.result); };

  serve::StoreHandle handle(serve::AnnotationStore::open(healthy()));
  EXPECT_EQ(handle.generation(), 1u);

  // Reload #1: healthy candidate, audited, published.
  {
    auto next = serve::AnnotationStore::open(healthy());
    ASSERT_NE(next, nullptr);
    EXPECT_EQ(handle.publish(std::move(next)), 2u);
  }

  // Reload #2: CRC-valid but audit-violating candidate. The gate
  // rejects it before publication, so the old generation keeps serving.
  {
    serve::Snapshot bad = healthy();
    ASSERT_GE(bad.interfaces.size(), 2u);
    std::swap(bad.interfaces.front(), bad.interfaces.back());
    std::vector<serve::SnapshotIssue> issues;
    EXPECT_EQ(serve::AnnotationStore::open(must_load(serialize(bad)), 1, &issues),
              nullptr);
    EXPECT_FALSE(issues.empty());
  }
  EXPECT_EQ(handle.generation(), 2u);

  // The surviving generation still answers: the rejected candidate
  // never reached the handle.
  const auto pinned = handle.acquire();
  EXPECT_EQ(pinned->stats().interfaces, healthy().interfaces.size());
}

TEST(StoreAudit, EmptySnapshotValidatesCleanAndServesZeroState) {
  const serve::Snapshot empty;
  EXPECT_TRUE(serve::validate_snapshot(empty).empty());
  const auto store = serve::AnnotationStore::open(empty);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->stats().interfaces, 0u);
  EXPECT_EQ(store->stats().routers, 0u);
  EXPECT_EQ(store->find(netbase::IPAddr::must_parse("10.0.0.1")), nullptr);
  EXPECT_TRUE(store->find_under(netbase::Prefix::must_parse("::/0")).empty());
  EXPECT_TRUE(store->router_members(0).empty());
  EXPECT_TRUE(store->links_of(65001).empty());
  EXPECT_EQ(store->iface_count_of(netbase::kNoAs), 0u);
}
