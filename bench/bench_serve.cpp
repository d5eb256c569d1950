// bench/bench_serve.cpp — snapshot + query-engine throughput.
//
// Beyond the paper: the serving layer. Runs the pipeline once on a
// synthetic Internet, freezes the result into a snapshot, then reports
//
//   * snapshot size and write / load+index time,
//   * single-interface (IFACE) queries per second, exact and batched,
//   * PREFIX range queries per second,
//   * LINKS lookups per second.
//
// Acceptance floor for the serving layer: >= 100k single-interface
// queries/sec. Exits nonzero if the round-trip corrupts any answer.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "netbase/rng.hpp"
#include "serve/store.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  benchutil::print_header("bench_serve — snapshot store & query engine");

  eval::Scenario s = eval::make_scenario(topo::SimParams{}, 40, true, 8264);
  const core::Result result = benchutil::run_bdrmapit(s);
  std::printf("  corpus: %zu traceroutes, %zu interfaces annotated\n",
              s.corpus.size(), result.interfaces.size());

  // ---- snapshot write / load -----------------------------------------
  const serve::Snapshot snap = serve::snapshot_from_result(result);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "bench_serve.snap";
  std::string error;
  auto t0 = Clock::now();
  if (!serve::write_snapshot_file(path.string(), snap, &error)) {
    std::fprintf(stderr, "snapshot write failed: %s\n", error.c_str());
    return 1;
  }
  const double write_s = seconds_since(t0);
  const auto size = std::filesystem::file_size(path);

  serve::Snapshot loaded;
  t0 = Clock::now();
  if (!serve::load_snapshot_file(path.string(), &loaded, &error)) {
    std::fprintf(stderr, "snapshot load failed: %s\n", error.c_str());
    return 1;
  }
  const serve::AnnotationStore store(std::move(loaded));
  const double load_s = seconds_since(t0);
  std::filesystem::remove(path);

  std::printf("  snapshot: %.1f KiB, write %.2f ms, load+index %.2f ms\n",
              static_cast<double>(size) / 1024.0, 1e3 * write_s, 1e3 * load_s);

  // ---- verify the store answers match the result ----------------------
  for (const auto& [addr, router_id, inf] : result.interfaces) {
    const auto* rec = store.find(addr);
    if (!rec || rec->router_id != router_id || rec->inf.router_as != inf.router_as ||
        rec->inf.conn_as != inf.conn_as) {
      std::fprintf(stderr, "round-trip mismatch at %s\n", addr.to_string().c_str());
      return 1;
    }
  }

  // ---- query throughput ----------------------------------------------
  std::vector<netbase::IPAddr> addrs;
  addrs.reserve(store.stats().interfaces);
  for (const auto& rec : store.snapshot().interfaces) addrs.push_back(rec.addr);
  netbase::SplitMix64 rng(1);
  for (std::size_t i = addrs.size(); i > 1; --i)
    std::swap(addrs[i - 1], addrs[rng.below(i)]);

  // Exact single lookups.
  constexpr std::size_t kQueries = 2'000'000;
  std::size_t hits = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < kQueries; ++i)
    if (store.find(addrs[i % addrs.size()])) ++hits;
  const double exact_s = seconds_since(t0);
  const double exact_qps = static_cast<double>(kQueries) / exact_s;
  std::printf("  IFACE exact:   %10.0f queries/sec (%zu hits)\n", exact_qps, hits);

  // Batched lookups, 256 per call.
  constexpr std::size_t kBatch = 256;
  std::vector<netbase::IPAddr> batch(kBatch);
  std::vector<const serve::SnapshotIface*> recs(kBatch);
  std::size_t batched = 0, batch_hits = 0;
  t0 = Clock::now();
  while (batched < kQueries) {
    for (std::size_t i = 0; i < kBatch; ++i)
      batch[i] = addrs[(batched + i) % addrs.size()];
    store.find_batch(batch.data(), kBatch, recs.data());
    for (const auto* rec : recs)
      if (rec) ++batch_hits;
    batched += kBatch;
  }
  const double batch_qps = static_cast<double>(batched) / seconds_since(t0);
  std::printf("  IFACE batched: %10.0f queries/sec (batch=%zu)\n", batch_qps,
              kBatch);

  // PREFIX queries: /24s around observed addresses.
  constexpr std::size_t kPrefixQueries = 200'000;
  std::size_t covered = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < kPrefixQueries; ++i) {
    const netbase::Prefix p(addrs[i % addrs.size()], 24);
    covered += store.find_under(p).size();
  }
  const double prefix_qps = static_cast<double>(kPrefixQueries) / seconds_since(t0);
  std::printf("  PREFIX /24:    %10.0f queries/sec (%.1f ifaces/answer)\n",
              prefix_qps,
              static_cast<double>(covered) / static_cast<double>(kPrefixQueries));

  // LINKS lookups over every AS seen in links.
  std::vector<netbase::Asn> ases;
  for (const auto& [a, b] : store.snapshot().as_links) {
    ases.push_back(a);
    ases.push_back(b);
  }
  constexpr std::size_t kLinkQueries = 2'000'000;
  std::size_t link_rows = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < kLinkQueries; ++i)
    link_rows += store.links_of(ases[i % ases.size()]).size();
  const double links_qps = static_cast<double>(kLinkQueries) / seconds_since(t0);
  std::printf("  LINKS:         %10.0f queries/sec (%.1f links/answer)\n",
              links_qps,
              static_cast<double>(link_rows) / static_cast<double>(kLinkQueries));

  const bool ok = exact_qps >= 100'000.0;
  std::printf("  floor: >=100k IFACE queries/sec — %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
