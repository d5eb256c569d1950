// Tests for the invariant auditor (src/audit/): a healthy pipeline
// audits clean, and each class of deliberate corruption — bad label,
// broken partition, unsorted/duplicated AS sets, stale Jacobi state,
// inconsistent result or snapshot — triggers exactly the named check.
// The fixtures and corruption matrix live in audit_corruptions.hpp,
// shared with audit_parallel_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "audit_corruptions.hpp"

using audit::Violation;
using audit_fixtures::checks_of;
using audit_fixtures::has_check;
using audit_fixtures::Pipeline;

TEST(Audit, HealthyPipelinePassesEveryAudit) {
  const Pipeline p;
  const core::Result r = p.run();
  EXPECT_TRUE(audit::audit_graph(r.graph).empty())
      << checks_of(audit::audit_graph(r.graph));
  EXPECT_TRUE(audit::audit_origins(r.graph, p.ip2as).empty());
  EXPECT_TRUE(audit::audit_reallocated(r.graph, p.rels).empty());
  EXPECT_TRUE(audit::audit_fixed_point(r.graph, p.rels, p.opt).empty())
      << checks_of(audit::audit_fixed_point(r.graph, p.rels, p.opt));
  EXPECT_TRUE(audit::audit_result(r).empty()) << checks_of(audit::audit_result(r));
  const auto all = audit::audit_all(r, p.ip2as, p.rels, p.opt);
  EXPECT_TRUE(all.empty()) << checks_of(all);
  const auto snap_violations = audit::audit_snapshot(serve::snapshot_from_result(r));
  EXPECT_TRUE(snap_violations.empty()) << checks_of(snap_violations);
}

TEST(Audit, AuditedRunMatchesPlainRunAndPasses) {
  const Pipeline p;
  std::vector<std::pair<audit::Stage, Violation>> violations;
  const core::Result audited =
      audit::audited_run(p.corpus, p.aliases, p.ip2as, p.rels, p.opt, &violations);
  EXPECT_TRUE(violations.empty());
  const core::Result plain = p.run();
  EXPECT_EQ(audited.iterations, plain.iterations);
  EXPECT_EQ(audited.as_links(), plain.as_links());
}

// Every row of the shared corruption matrix must trigger exactly the
// check it names — the same matrix audit_parallel_test replays at
// multiple thread counts.
TEST(Audit, EveryMatrixCorruptionTriggersItsCheck) {
  const Pipeline p;
  for (const auto& c : audit_fixtures::corruption_matrix()) {
    core::Result r = p.run();
    c.apply(r);
    const auto vs = audit::audit_all(r, p.ip2as, p.rels, p.opt);
    EXPECT_TRUE(has_check(vs, c.check))
        << c.name << " did not trigger " << c.check << "; got " << checks_of(vs);
  }
  const core::Result r = p.run();
  for (const auto& c : audit_fixtures::snapshot_corruption_matrix()) {
    serve::Snapshot s = serve::snapshot_from_result(r);
    c.apply(s);
    const auto vs = audit::audit_snapshot(s);
    EXPECT_TRUE(has_check(vs, c.check))
        << c.name << " did not trigger " << c.check << "; got " << checks_of(vs);
  }
}

// Empty inputs are boring, not broken: a default graph, result, and
// zero-section snapshot must audit clean without throwing.
TEST(Audit, EmptyInputsAuditClean) {
  const Pipeline p;
  const graph::Graph empty_graph;
  EXPECT_TRUE(audit::audit_graph(empty_graph).empty());
  EXPECT_TRUE(audit::audit_origins(empty_graph, p.ip2as).empty());
  EXPECT_TRUE(audit::audit_reallocated(empty_graph, p.rels).empty());
  EXPECT_TRUE(audit::audit_fixed_point(empty_graph, p.rels, p.opt).empty());

  const core::Result empty_result;
  EXPECT_TRUE(audit::audit_result(empty_result).empty())
      << checks_of(audit::audit_result(empty_result));
  EXPECT_TRUE(audit::audit_all(empty_result, p.ip2as, p.rels, p.opt).empty());

  const serve::Snapshot empty_snap;
  EXPECT_TRUE(audit::audit_snapshot(empty_snap).empty());

  std::vector<std::pair<audit::Stage, Violation>> violations;
  const core::Result from_empty_corpus =
      audit::audited_run({}, {}, p.ip2as, p.rels, p.opt, &violations);
  EXPECT_TRUE(violations.empty());
  EXPECT_TRUE(from_empty_corpus.interfaces.empty());
}

TEST(Audit, BadLinkLabelIsDetected) {
  const Pipeline p;
  core::Result r = p.run();
  ASSERT_FALSE(r.graph.links().empty());
  r.graph.links()[0].label = static_cast<graph::LinkLabel>(7);
  const auto vs = audit::audit_graph(r.graph);
  EXPECT_TRUE(has_check(vs, "link.label-range")) << checks_of(vs);
}

TEST(Audit, DuplicatedLinkOriginSetIsDetected) {
  const Pipeline p;
  core::Result r = p.run();
  graph::Link* with_origins = nullptr;
  for (auto& l : r.graph.links())
    if (!l.origin_set.empty()) with_origins = &l;
  ASSERT_NE(with_origins, nullptr);
  with_origins->origin_set.push_back(with_origins->origin_set.front());
  const auto vs = audit::audit_graph(r.graph);
  EXPECT_TRUE(has_check(vs, "link.origin-set-dedup")) << checks_of(vs);
}

TEST(Audit, ForeignLinkOriginIsDetected) {
  const Pipeline p;
  core::Result r = p.run();
  graph::Link* l = &r.graph.links()[0];
  l->origin_set.push_back(64999);  // no interface of the source IR announces it
  const auto vs = audit::audit_graph(r.graph);
  EXPECT_TRUE(has_check(vs, "link.origin-set-member")) << checks_of(vs);
}

TEST(Audit, BrokenPartitionIsDetected) {
  const Pipeline p;
  {
    // An interface pointing at an out-of-range IR: partition no longer total.
    core::Result r = p.run();
    r.graph.interfaces()[0].ir = static_cast<int>(r.graph.irs().size()) + 5;
    EXPECT_TRUE(has_check(audit::audit_graph(r.graph), "ir.partition-total"));
  }
  {
    // The same interface claimed by two IRs: no longer disjoint.
    core::Result r = p.run();
    ASSERT_GE(r.graph.irs().size(), 2u);
    r.graph.irs()[1].ifaces.push_back(r.graph.irs()[0].ifaces.front());
    EXPECT_TRUE(has_check(audit::audit_graph(r.graph), "ir.partition-disjoint"));
  }
}

TEST(Audit, LastHopFlagMismatchIsDetected) {
  const Pipeline p;
  core::Result r = p.run();
  graph::IR* with_links = nullptr;
  for (auto& ir : r.graph.irs())
    if (!ir.out_links.empty()) with_links = &ir;
  ASSERT_NE(with_links, nullptr);
  with_links->last_hop = true;
  const auto vs = audit::audit_graph(r.graph);
  EXPECT_TRUE(has_check(vs, "ir.last-hop-flag")) << checks_of(vs);
}

TEST(Audit, OriginDisagreementWithIp2asIsDetected) {
  const Pipeline p;
  core::Result r = p.run();
  r.graph.interfaces()[0].origin.asn = 64999;
  const auto vs = audit::audit_origins(r.graph, p.ip2as);
  EXPECT_TRUE(has_check(vs, "iface.origin-ip2as")) << checks_of(vs);
}

TEST(Audit, UncorrectedReallocatedPrefixIsDetected) {
  const Pipeline p;
  core::Result r = p.run();
  // Rebuild the exact pattern §4.4 removes: origin AS plus a small-cone,
  // relationship-less second destination.
  graph::Interface* f = nullptr;
  for (auto& cand : r.graph.interfaces())
    if (cand.origin.announced()) f = &cand;
  ASSERT_NE(f, nullptr);
  f->dest_asns = {f->origin.asn, 65001};  // AS 65001 unknown to the rel store
  const auto vs = audit::audit_reallocated(r.graph, p.rels);
  EXPECT_TRUE(has_check(vs, "iface.realloc-applied")) << checks_of(vs);
}

TEST(Audit, StaleJacobiStateIsDetected) {
  const Pipeline p;
  core::Result r = p.run();
  // Simulate a sweep that committed a half-updated iteration: overwrite
  // one refined IR annotation with a value no sweep would produce.
  graph::IR* refined = nullptr;
  for (auto& ir : r.graph.irs())
    if (!ir.last_hop && ir.annotation != netbase::kNoAs) refined = &ir;
  ASSERT_NE(refined, nullptr);
  refined->annotation = 64999;
  const auto vs = audit::audit_fixed_point(r.graph, p.rels, p.opt);
  EXPECT_TRUE(has_check(vs, "refine.fixed-point")) << checks_of(vs);
}

TEST(Audit, ResultMapDivergenceIsDetected) {
  const Pipeline p;
  core::Result r = p.run();
  ASSERT_FALSE(r.interfaces.empty());
  r.interfaces.front().inf.router_as = 64999;
  const auto vs = audit::audit_result(r);
  EXPECT_TRUE(has_check(vs, "result.iface-consistency")) << checks_of(vs);
}

TEST(Audit, IterationStatsMismatchIsDetected) {
  const Pipeline p;
  core::Result r = p.run();
  r.iteration_stats.pop_back();
  EXPECT_TRUE(has_check(audit::audit_result(r), "result.iteration-stats"));
}

TEST(Audit, SnapshotCorruptionIsDetected) {
  const Pipeline p;
  const core::Result r = p.run();
  {
    // Unsorted interface records.
    serve::Snapshot s = serve::snapshot_from_result(r);
    ASSERT_GE(s.interfaces.size(), 2u);
    std::swap(s.interfaces.front(), s.interfaces.back());
    EXPECT_TRUE(has_check(audit::audit_snapshot(s), "snapshot.iface-sorted"));
  }
  {
    // Router id beyond the advertised router count.
    serve::Snapshot s = serve::snapshot_from_result(r);
    s.interfaces.front().router_id = static_cast<std::uint32_t>(s.router_count) + 1;
    EXPECT_TRUE(has_check(audit::audit_snapshot(s), "snapshot.router-id-range"));
  }
  {
    // Unsorted / non-normalized AS links.
    serve::Snapshot s = serve::snapshot_from_result(r);
    ASSERT_FALSE(s.as_links.empty());
    std::swap(s.as_links.front().first, s.as_links.front().second);
    EXPECT_TRUE(has_check(audit::audit_snapshot(s), "snapshot.as-links-canonical"));
  }
}
