// Tests for the sharded invariant auditor: for every corruption in the
// shared matrix (and for healthy, larger, and empty inputs) the
// violation report must be byte-identical at --threads 1, 2, and 8 —
// the determinism contract docs/TOOLING.md promises. Runs clean under
// TSan (BDRMAPIT_SANITIZE=thread): the scans share nothing but
// read-only state and per-shard buffers.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "audit_corruptions.hpp"
#include "eval/experiment.hpp"

using audit::Violation;
using audit_fixtures::checks_of;
using audit_fixtures::Pipeline;

namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

// The byte-exact rendering the comparison runs over — check and detail,
// in report order.
std::string render(const std::vector<Violation>& vs) {
  std::string out;
  for (const auto& v : vs) {
    out += v.check;
    out += ": ";
    out += v.detail;
    out += '\n';
  }
  return out;
}

void expect_identical_reports(const core::Result& r, const Pipeline& p,
                              const std::string& label) {
  core::AnnotatorOptions opt = p.opt;
  opt.threads = 1;
  const std::string baseline = render(audit::audit_all(r, p.ip2as, p.rels, opt));
  for (const int threads : kThreadCounts) {
    opt.threads = threads;
    EXPECT_EQ(render(audit::audit_all(r, p.ip2as, p.rels, opt)), baseline)
        << label << " report diverges at threads=" << threads;
  }
}

}  // namespace

TEST(AuditParallel, HealthyReportIdenticalAcrossThreadCounts) {
  const Pipeline p;
  const core::Result r = p.run();
  expect_identical_reports(r, p, "healthy");
}

TEST(AuditParallel, EveryCorruptionReportIdenticalAcrossThreadCounts) {
  const Pipeline p;
  for (const auto& c : audit_fixtures::corruption_matrix()) {
    core::Result r = p.run();
    c.apply(r);
    EXPECT_FALSE(audit::audit_all(r, p.ip2as, p.rels, p.opt).empty())
        << c.name << " was not detected at all";
    expect_identical_reports(r, p, c.name);
  }
}

TEST(AuditParallel, SnapshotReportIdenticalAcrossThreadCounts) {
  const Pipeline p;
  const core::Result r = p.run();
  for (const auto& c : audit_fixtures::snapshot_corruption_matrix()) {
    serve::Snapshot s = serve::snapshot_from_result(r);
    c.apply(s);
    const std::string baseline = render(audit::audit_snapshot(s, 1));
    EXPECT_FALSE(baseline.empty()) << c.name << " was not detected at all";
    for (const int threads : kThreadCounts)
      EXPECT_EQ(render(audit::audit_snapshot(s, threads)), baseline)
          << c.name << " snapshot report diverges at threads=" << threads;
  }
}

// A larger synthetic internet: hundreds of interfaces, so every scan
// actually splits across shards (the Pipeline scenario fits in one).
TEST(AuditParallel, LargerScenarioReportIdenticalAcrossThreadCounts) {
  const eval::Scenario s =
      eval::make_scenario(topo::small_params(), 8, /*exclude_validation=*/true, 7);
  core::Result r =
      core::Bdrmapit::run(s.corpus, eval::midar_aliases(s), s.ip2as, s.rels);
  // Seed a spread of violations so the merged report has content in
  // every scan family, not just an empty-vs-empty comparison.
  r.graph.links()[0].label = static_cast<graph::LinkLabel>(9);
  r.graph.interfaces()[0].ir = static_cast<int>(r.graph.irs().size());
  r.graph.interfaces()[3].origin.asn = 64999;
  r.interfaces.front().inf.router_as = 64999;
  const std::string baseline =
      render(audit::audit_graph(r.graph, 1)) +
      render(audit::audit_origins(r.graph, s.ip2as, 1)) +
      render(audit::audit_result(r, 1));
  EXPECT_NE(baseline.find("link.label-range"), std::string::npos);
  EXPECT_NE(baseline.find("ir.partition-total"), std::string::npos);
  EXPECT_NE(baseline.find("iface.origin-ip2as"), std::string::npos);
  for (const int threads : {2, 8, 0}) {  // 0 = hardware concurrency
    const std::string got = render(audit::audit_graph(r.graph, threads)) +
                            render(audit::audit_origins(r.graph, s.ip2as, threads)) +
                            render(audit::audit_result(r, threads));
    EXPECT_EQ(got, baseline) << "diverges at threads=" << threads;
  }
}

// Two swapped records far apart in the result table: the order check
// reports them identically however the table is sharded.
TEST(AuditParallel, SwappedResultRecordsReportedAtEveryThreadCount) {
  const eval::Scenario s =
      eval::make_scenario(topo::small_params(), 8, /*exclude_validation=*/true, 7);
  core::Result r =
      core::Bdrmapit::run(s.corpus, eval::midar_aliases(s), s.ip2as, s.rels);
  ASSERT_TRUE(audit::audit_result(r, 1).empty());
  ASSERT_GE(r.interfaces.size(), 8u);
  std::swap(r.interfaces[1], r.interfaces[r.interfaces.size() - 2]);
  const std::string baseline = render(audit::audit_result(r, 1));
  EXPECT_NE(baseline.find("result.iface-sorted: interface records out of order at index 2 "),
            std::string::npos)
      << baseline;
  EXPECT_NE(baseline.find("result.iface-sorted: interface records out of order at index " +
                          std::to_string(r.interfaces.size() - 2) + " "),
            std::string::npos)
      << baseline;
  for (const int threads : {2, 8, 0})  // 0 = hardware concurrency
    EXPECT_EQ(render(audit::audit_result(r, threads)), baseline)
        << "diverges at threads=" << threads;
}

TEST(AuditParallel, EmptyInputsIdenticalAndCleanAtAnyThreadCount) {
  const Pipeline p;
  const graph::Graph g;
  const core::Result r;
  const serve::Snapshot s;
  for (const int threads : kThreadCounts) {
    EXPECT_TRUE(audit::audit_graph(g, threads).empty());
    EXPECT_TRUE(audit::audit_origins(g, p.ip2as, threads).empty());
    EXPECT_TRUE(audit::audit_result(r, threads).empty());
    EXPECT_TRUE(audit::audit_snapshot(s, threads).empty());
  }
}
