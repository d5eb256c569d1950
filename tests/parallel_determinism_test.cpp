// Determinism of the parallel pipeline: every stage — ingest, graph
// construction, refinement — must produce results identical to the
// serial path for any thread count, and the final artifacts (the
// --output TSV and the binary snapshot) must be byte-identical. The
// graph must also be a function of the corpus *set*: reordering or
// duplicating traceroutes may renumber it but not change it.
// Also unit-tests the parallel substrate itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
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
    EXPECT_EQ(fa.dest_asns, fb.dest_asns) << "dest set at iface " << i;
    EXPECT_EQ(fa.in_links, fb.in_links);
  }
  ASSERT_EQ(a.links().size(), b.links().size());
  for (std::size_t i = 0; i < a.links().size(); ++i) {
    const auto& la = a.links()[i];
    const auto& lb = b.links()[i];
    EXPECT_EQ(la.ir, lb.ir) << "link id order diverged at " << i;
    EXPECT_EQ(la.iface, lb.iface);
    EXPECT_EQ(la.label, lb.label);
    EXPECT_EQ(la.origin_set, lb.origin_set) << "origin set at link " << i;
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

// An id-free rendering of a graph, one sorted line per interface, IR
// and link. Interfaces are keyed by address, IRs by their sorted member
// addresses, links by source IR and subsequent interface address.
std::vector<std::string> canonical_lines(const graph::Graph& g) {
  const auto& ifaces = g.interfaces();
  auto join = [](const auto& values) {
    std::string out;
    for (const auto& v : values) {
      if (!out.empty()) out += ',';
      out += std::to_string(v);
    }
    return out;
  };
  auto addrs = [&](const std::vector<int>& ids) {
    std::vector<netbase::IPAddr> as;
    for (int id : ids) as.push_back(ifaces[static_cast<std::size_t>(id)].addr);
    std::sort(as.begin(), as.end());
    std::string out;
    for (const auto& a : as) out += a.to_string() + ' ';
    return out;
  };
  std::vector<std::string> lines;
  for (const auto& f : ifaces)
    lines.push_back("iface " + f.addr.to_string() + " origin=" +
                    std::to_string(f.origin.asn) + '/' +
                    std::to_string(static_cast<int>(f.origin.kind)) +
                    " non_echo=" + std::to_string(f.seen_non_echo) +
                    " mid_path=" + std::to_string(f.seen_mid_path) +
                    " dest=" + join(f.dest_asns));
  for (const auto& ir : g.irs()) {
    std::string votes;
    for (const auto& [asn, count] : ir.origin_votes)
      votes += std::to_string(asn) + ':' + std::to_string(count) + ' ';
    lines.push_back("ir " + addrs(ir.ifaces) + "origins=" + join(ir.origin_set) +
                    " votes=" + votes + "dest=" + join(ir.dest_asns) +
                    " last_hop=" + std::to_string(ir.last_hop));
  }
  for (const auto& l : g.links())
    lines.push_back("link " + addrs(g.irs()[static_cast<std::size_t>(l.ir)].ifaces) +
                    "-> " + ifaces[static_cast<std::size_t>(l.iface)].addr.to_string() +
                    " label=" + std::to_string(static_cast<int>(l.label)) +
                    " origins=" + join(l.origin_set) + " dest=" + join(l.dest_asns) +
                    " prev=" + addrs(l.prev_ifaces));
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(GraphMetamorphic, BuildIsAFunctionOfTheCorpusSet) {
  const auto& s = scenario();
  const auto aliases = eval::midar_aliases(s);
  const std::vector<std::string> want =
      canonical_lines(graph::Graph::build(s.corpus, aliases, s.ip2as, s.rels, 1));
  ASSERT_FALSE(want.empty());

  const std::vector<tracedata::Traceroute> reversed(s.corpus.rbegin(),
                                                    s.corpus.rend());
  std::vector<tracedata::Traceroute> doubled = s.corpus;
  std::shuffle(doubled.begin(), doubled.end(), std::mt19937(1234));
  doubled.insert(doubled.begin(), s.corpus.begin(), s.corpus.end());

  struct Variant {
    const char* name;
    const std::vector<tracedata::Traceroute>* corpus;
  };
  for (const Variant v : {Variant{"original", &s.corpus}, Variant{"reversed", &reversed},
                          Variant{"with shuffled duplicate", &doubled}})
    for (int threads : {1, 4}) {
      const std::vector<std::string> got = canonical_lines(
          graph::Graph::build(*v.corpus, aliases, s.ip2as, s.rels, threads));
      ASSERT_EQ(got.size(), want.size()) << v.name << " at threads=" << threads;
      const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
      EXPECT_TRUE(diff.first == got.end())
          << v.name << " at threads=" << threads << ": got\n  " << *diff.first
          << "\nwant\n  " << *diff.second;
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
