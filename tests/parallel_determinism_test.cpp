// Determinism of the parallel pipeline: every stage — ingest, graph
// construction, refinement — must produce results identical to the
// serial path for any thread count, and the final artifacts (the
// --output TSV and the binary snapshot) must be byte-identical.
// Also unit-tests the parallel substrate itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "eval/experiment.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"
#include "tracedata/scamper_json.hpp"

namespace {

// ----------------------------------------------------------------------
// Substrate
// ----------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(10007);
    parallel::parallel_for(hits.size(), threads,
                           [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelReduceMergesInShardOrder) {
  // Collecting indices must reproduce the serial order exactly because
  // shards are contiguous and merged in shard order.
  for (int threads : {1, 3, 8}) {
    auto order = parallel::parallel_reduce(
        1000, threads, std::vector<std::size_t>{},
        [](std::vector<std::size_t>& acc, std::size_t i) { acc.push_back(i); },
        [](std::vector<std::size_t>& total, std::vector<std::size_t>& s) {
          total.insert(total.end(), s.begin(), s.end());
        });
    ASSERT_EQ(order.size(), 1000u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  EXPECT_THROW(parallel::parallel_for(100, 4,
                                      [](std::size_t i) {
                                        if (i == 57)
                                          throw std::runtime_error("boom");
                                      }),
               std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> n{0};
  parallel::parallel_for(100, 4, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_GE(parallel::hardware_threads(), 1u);
  EXPECT_EQ(parallel::resolve_threads(0), parallel::hardware_threads());
  EXPECT_EQ(parallel::resolve_threads(-3), parallel::hardware_threads());
  EXPECT_EQ(parallel::resolve_threads(5), 5u);
}

// ----------------------------------------------------------------------
// Pipeline stages
// ----------------------------------------------------------------------

const eval::Scenario& scenario() {
  static eval::Scenario s =
      eval::make_scenario(topo::small_params(), 12, true, 42);
  return s;
}

TEST(ParallelDeterminism, IngestMatchesSerial) {
  const auto& s = scenario();
  std::stringstream json;
  tracedata::write_json_traceroutes(json, s.corpus);
  const std::string blob = json.str();

  std::size_t bad_serial = 0;
  std::istringstream in_serial(blob);
  const auto serial = tracedata::read_json_traceroutes(in_serial, &bad_serial);
  for (int threads : {2, 8}) {
    std::size_t bad = 0;
    std::istringstream in(blob);
    const auto parsed = tracedata::read_json_traceroutes(in, &bad, threads);
    EXPECT_EQ(bad, bad_serial);
    EXPECT_EQ(parsed, serial);
  }

  std::stringstream native;
  tracedata::write_traceroutes(native, s.corpus);
  const std::string native_blob = native.str();
  std::istringstream in1(native_blob), in8(native_blob);
  EXPECT_EQ(tracedata::read_traceroutes(in8, nullptr, 8),
            tracedata::read_traceroutes(in1, nullptr, 1));
}

void expect_graphs_identical(const graph::Graph& a, const graph::Graph& b) {
  ASSERT_EQ(a.interfaces().size(), b.interfaces().size());
  for (std::size_t i = 0; i < a.interfaces().size(); ++i) {
    const auto& fa = a.interfaces()[i];
    const auto& fb = b.interfaces()[i];
    ASSERT_EQ(fa.addr, fb.addr) << "interface id order diverged at " << i;
    EXPECT_EQ(fa.id, fb.id);
    EXPECT_EQ(fa.origin.asn, fb.origin.asn);
    EXPECT_EQ(fa.origin.kind, fb.origin.kind);
    EXPECT_EQ(fa.ir, fb.ir);
    EXPECT_EQ(fa.seen_non_echo, fb.seen_non_echo);
    EXPECT_EQ(fa.seen_mid_path, fb.seen_mid_path);
    EXPECT_EQ(fa.dest_asns, fb.dest_asns) << "dest set order at iface " << i;
    EXPECT_EQ(fa.in_links, fb.in_links);
  }
  ASSERT_EQ(a.links().size(), b.links().size());
  for (std::size_t i = 0; i < a.links().size(); ++i) {
    const auto& la = a.links()[i];
    const auto& lb = b.links()[i];
    EXPECT_EQ(la.ir, lb.ir) << "link id order diverged at " << i;
    EXPECT_EQ(la.iface, lb.iface);
    EXPECT_EQ(la.label, lb.label);
    EXPECT_EQ(la.origin_set, lb.origin_set) << "origin set order at link " << i;
    EXPECT_EQ(la.dest_asns, lb.dest_asns);
    EXPECT_EQ(la.prev_ifaces, lb.prev_ifaces);
  }
  ASSERT_EQ(a.irs().size(), b.irs().size());
  for (std::size_t i = 0; i < a.irs().size(); ++i) {
    const auto& ra = a.irs()[i];
    const auto& rb = b.irs()[i];
    EXPECT_EQ(ra.ifaces, rb.ifaces) << "IR membership at " << i;
    EXPECT_EQ(ra.out_links, rb.out_links);
    EXPECT_EQ(ra.origin_set, rb.origin_set);
    EXPECT_EQ(ra.dest_asns, rb.dest_asns);
    EXPECT_EQ(ra.origin_votes, rb.origin_votes);
    EXPECT_EQ(ra.last_hop, rb.last_hop);
  }
}

TEST(ParallelDeterminism, GraphBuildIdenticalAcrossThreadCounts) {
  const auto& s = scenario();
  const auto aliases = eval::midar_aliases(s);
  const auto serial = graph::Graph::build(s.corpus, aliases, s.ip2as, s.rels, 1);
  for (int threads : {2, 3, 8}) {
    const auto parallel_g =
        graph::Graph::build(s.corpus, aliases, s.ip2as, s.rels, threads);
    expect_graphs_identical(serial, parallel_g);
  }
}

// The final artifacts a downstream consumer sees: the TSV rows (what
// bdrmapit_cli --output writes, through the same renderer) and the
// binary snapshot.
std::string result_tsv(const core::Result& r) {
  std::string out;
  for (const auto& rec : r.interfaces) serve::append_iface(out, rec);
  return out;
}

std::string result_snapshot_bytes(const core::Result& r) {
  std::ostringstream out;
  serve::write_snapshot(out, serve::snapshot_from_result(r));
  return out.str();
}

TEST(ParallelDeterminism, FullPipelineBytesIdenticalAcrossThreadCounts) {
  const auto& s = scenario();
  const auto aliases = eval::midar_aliases(s);

  core::AnnotatorOptions opt;
  opt.threads = 1;
  const core::Result serial =
      core::Bdrmapit::run(s.corpus, aliases, s.ip2as, s.rels, opt);
  const std::string tsv = result_tsv(serial);
  const std::string snap = result_snapshot_bytes(serial);
  ASSERT_FALSE(tsv.empty());

  for (int threads : {2, 8}) {
    opt.threads = threads;
    const core::Result r =
        core::Bdrmapit::run(s.corpus, aliases, s.ip2as, s.rels, opt);
    EXPECT_EQ(r.iterations, serial.iterations);
    EXPECT_EQ(result_tsv(r), tsv) << "TSV diverged at " << threads << " threads";
    EXPECT_EQ(result_snapshot_bytes(r), snap)
        << "snapshot bytes diverged at " << threads << " threads";
  }
}

}  // namespace
