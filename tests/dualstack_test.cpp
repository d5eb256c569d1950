// Dual-stack simulator tests: v6 addressing invariants, v6 campaigns,
// and end-to-end accuracy over a mixed v4+v6 corpus.

#include <gtest/gtest.h>

#include "eval/experiment.hpp"

namespace {

topo::SimParams ds_params() {
  topo::SimParams p = topo::small_params();
  p.dual_stack = true;
  return p;
}

const topo::Internet& ds_net() {
  static topo::Internet net = topo::Internet::generate(ds_params());
  return net;
}

}  // namespace

TEST(DualStack, EveryInterfaceHasV6) {
  for (const auto& f : ds_net().ifaces()) {
    EXPECT_TRUE(f.has_addr6);
    EXPECT_TRUE(f.addr6.is_v6());
    EXPECT_FALSE(f.addr6.is_private());
  }
}

TEST(DualStack, V6AddressesComeFromOwnersBlocks) {
  const auto& net = ds_net();
  for (const auto& f : net.ifaces()) {
    if (f.ixp >= 0) {
      EXPECT_TRUE(net.ixps()[static_cast<std::size_t>(f.ixp)].prefix6.contains(f.addr6));
      continue;
    }
    // The v6 address must come from some AS's announced /32.
    bool covered = false;
    for (const auto& as : net.ases())
      if (as.block6.contains(f.addr6)) covered = true;
    EXPECT_TRUE(covered) << f.addr6.to_string();
  }
}

TEST(DualStack, V6FollowsV4AddressingOwner) {
  // For interdomain links, the v6 /128s must come from the same AS
  // whose v4 space numbers the link (the provider, by convention).
  const auto& net = ds_net();
  for (const auto& l : net.links()) {
    if (l.kind != topo::LinkKind::interdomain) continue;
    const auto& fa = net.ifaces()[static_cast<std::size_t>(l.a_iface)];
    const auto& fb = net.ifaces()[static_cast<std::size_t>(l.b_iface)];
    int v4_owner = -1, v6_owner = -1;
    for (const auto& as : net.ases()) {
      if (as.block.contains(fa.addr) || (as.has_infra_block && as.infra_block.contains(fa.addr)))
        v4_owner = as.idx;
      if (as.block6.contains(fa.addr6)) v6_owner = as.idx;
    }
    ASSERT_GE(v6_owner, 0);
    if (v4_owner >= 0) {
      EXPECT_EQ(v4_owner, v6_owner);
    }
    // Both sides of a ptp link share one v6 owner.
    bool same = net.ases()[static_cast<std::size_t>(v6_owner)].block6.contains(fb.addr6);
    EXPECT_TRUE(same);
  }
}

TEST(DualStack, AddressIndexCoversBothFamilies) {
  const auto& net = ds_net();
  for (std::size_t fid = 0; fid < net.ifaces().size(); fid += 17) {
    const auto& f = net.ifaces()[fid];
    EXPECT_EQ(net.iface_by_addr(f.addr), static_cast<int>(fid));
    EXPECT_EQ(net.iface_by_addr(f.addr6), static_cast<int>(fid));
  }
}

TEST(DualStack, RibAnnouncesV6Blocks) {
  const auto& net = ds_net();
  const bgp::Rib rib = net.rib();
  for (const auto& as : net.ases())
    EXPECT_TRUE(rib.origins().contains(as.block6)) << as.asn;
}

TEST(DualStack, DelegationsAndIxpIncludeV6) {
  const auto& net = ds_net();
  bool v6_del = false;
  for (const auto& d : net.delegations())
    if (d.prefix.family() == netbase::Family::v6) v6_del = true;
  EXPECT_TRUE(v6_del);
  bool v6_ixp = false;
  for (const auto& p : net.ixp_prefixes())
    if (p.family() == netbase::Family::v6) v6_ixp = true;
  EXPECT_TRUE(v6_ixp);
}

TEST(DualStack, V6TracesUseV6AddressesOnly) {
  const auto& net = ds_net();
  topo::Tracer tracer(net);
  const auto vp = topo::Tracer::vp_in_as(net, 2);
  bool saw_trace = false;
  for (int as = 10; as < 30; ++as) {
    const auto t = tracer.trace(vp, net.host_addr6(as, 1), 9);
    if (t.hops.empty()) continue;
    saw_trace = true;
    for (const auto& h : t.hops) EXPECT_TRUE(h.addr.is_v6()) << h.addr.to_string();
  }
  EXPECT_TRUE(saw_trace);
}

TEST(DualStack, CampaignContainsBothFamilies) {
  const auto& net = ds_net();
  topo::Tracer tracer(net);
  const auto vps = topo::Tracer::make_vps(net, 4, {}, 3);
  const auto corpus = tracer.campaign(vps, 3);
  std::size_t v4 = 0, v6 = 0;
  for (const auto& t : corpus) (t.dst.is_v6() ? v6 : v4) += 1;
  EXPECT_GT(v4, 0u);
  EXPECT_GT(v6, 0u);
}

TEST(DualStack, EndToEndAccuracyHolds) {
  topo::SimParams p = ds_params();
  eval::Scenario s = eval::make_scenario(p, 16, true, 21);
  core::Result r =
      core::Bdrmapit::run(s.corpus, eval::midar_aliases(s), s.ip2as, s.rels);
  for (const auto& [label, asn] : eval::validation_networks(s.net)) {
    const auto m = eval::evaluate_network(s.net, s.gt, s.vis, r.interfaces, asn);
    if (m.visible_links < 3) continue;
    EXPECT_GE(m.precision(), 0.7) << label;
    EXPECT_GE(m.recall(), 0.7) << label;
  }
  // Both families contribute interdomain claims.
  std::size_t v4 = 0, v6 = 0;
  for (const auto& [addr, router_id, inf] : r.interfaces)
    if (inf.interdomain()) (addr.is_v6() ? v6 : v4) += 1;
  EXPECT_GT(v4, 0u);
  EXPECT_GT(v6, 0u);
}

TEST(DualStack, V4OnlyModeUnchanged) {
  // dual_stack off: no v6 anywhere (the default for all paper benches).
  topo::Internet net = topo::Internet::generate(topo::small_params());
  for (const auto& f : net.ifaces()) EXPECT_FALSE(f.has_addr6);
  for (const auto& p : net.ixp_prefixes())
    EXPECT_EQ(p.family(), netbase::Family::v4);
}
