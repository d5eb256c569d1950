// bench_perf — engineering microbenchmarks (google-benchmark).
//
// Not a paper figure: timings for the hot paths so regressions in the
// substrate (IP-to-AS lookups, graph construction, refinement sweeps,
// the full pipeline) are visible.

#include <benchmark/benchmark.h>

#include <sstream>

#include "bench_util.hpp"
#include "core/annotator.hpp"
#include "tracedata/scamper_json.hpp"

namespace {

const eval::Scenario& shared_scenario() {
  static eval::Scenario s = [] {
    topo::SimParams params = topo::small_params();
    return eval::make_scenario(params, 20, true, 42);
  }();
  return s;
}

void BM_Ip2ASLookup(benchmark::State& state) {
  const auto& s = shared_scenario();
  netbase::SplitMix64 rng(9);
  std::vector<netbase::IPAddr> probes;
  for (int i = 0; i < 1024; ++i)
    probes.push_back(netbase::IPAddr::v4(0x01000000u + static_cast<std::uint32_t>(
                                                           rng.below(1u << 24))));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.ip2as.lookup(probes[i++ & 1023]));
  }
}
BENCHMARK(BM_Ip2ASLookup);

void BM_GraphBuild(benchmark::State& state) {
  const auto& s = shared_scenario();
  const auto aliases = eval::midar_aliases(s);
  for (auto _ : state) {
    auto g = graph::Graph::build(s.corpus, aliases, s.ip2as, s.rels);
    benchmark::DoNotOptimize(g.irs().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.corpus.size()));
}
BENCHMARK(BM_GraphBuild)->Unit(benchmark::kMillisecond);

// Threaded variants: Arg is the executor count. On a single-core host
// these collapse to roughly the serial time plus scheduling overhead;
// on multicore hardware graph construction and refinement scale with
// the thread count while producing byte-identical results.
void BM_GraphBuildThreads(benchmark::State& state) {
  const auto& s = shared_scenario();
  const auto aliases = eval::midar_aliases(s);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto g = graph::Graph::build(s.corpus, aliases, s.ip2as, s.rels, threads);
    benchmark::DoNotOptimize(g.irs().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.corpus.size()));
}
BENCHMARK(BM_GraphBuildThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_IngestParseThreads(benchmark::State& state) {
  const auto& s = shared_scenario();
  std::ostringstream json;
  tracedata::write_json_traceroutes(json, s.corpus);
  const std::string blob = json.str();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::istringstream in(blob);
    auto traces = tracedata::read_json_traceroutes(in, nullptr, threads);
    benchmark::DoNotOptimize(traces.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.corpus.size()));
}
BENCHMARK(BM_IngestParseThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_RefinementIteration(benchmark::State& state) {
  const auto& s = shared_scenario();
  const auto aliases = eval::midar_aliases(s);
  auto g = graph::Graph::build(s.corpus, aliases, s.ip2as, s.rels);
  core::Annotator ann(g, s.rels);
  for (auto& f : g.interfaces())
    f.annotation = f.origin.announced() ? f.origin.asn : netbase::kNoAs;
  ann.annotate_last_hops();
  for (auto _ : state) {
    ann.annotate_irs();
    ann.annotate_interfaces();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.irs().size()));
}
BENCHMARK(BM_RefinementIteration)->Unit(benchmark::kMillisecond);

void BM_FullPipeline(benchmark::State& state) {
  const auto& s = shared_scenario();
  const auto aliases = eval::midar_aliases(s);
  for (auto _ : state) {
    auto r = core::Bdrmapit::run(s.corpus, aliases, s.ip2as, s.rels);
    benchmark::DoNotOptimize(r.iterations);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.corpus.size()));
}
BENCHMARK(BM_FullPipeline)->Unit(benchmark::kMillisecond);

void BM_RefinementIterationThreads(benchmark::State& state) {
  const auto& s = shared_scenario();
  const auto aliases = eval::midar_aliases(s);
  auto g = graph::Graph::build(s.corpus, aliases, s.ip2as, s.rels);
  core::AnnotatorOptions opt;
  opt.threads = static_cast<int>(state.range(0));
  core::Annotator ann(g, s.rels, opt);
  for (auto& f : g.interfaces())
    f.annotation = f.origin.announced() ? f.origin.asn : netbase::kNoAs;
  ann.annotate_last_hops();
  for (auto _ : state) {
    ann.annotate_irs();
    ann.annotate_interfaces();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.irs().size()));
}
BENCHMARK(BM_RefinementIterationThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_FullPipelineThreads(benchmark::State& state) {
  const auto& s = shared_scenario();
  const auto aliases = eval::midar_aliases(s);
  core::AnnotatorOptions opt;
  opt.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = core::Bdrmapit::run(s.corpus, aliases, s.ip2as, s.rels, opt);
    benchmark::DoNotOptimize(r.iterations);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.corpus.size()));
}
BENCHMARK(BM_FullPipelineThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MapItBaseline(benchmark::State& state) {
  const auto& s = shared_scenario();
  for (auto _ : state) {
    auto r = baselines::MapIt::run(s.corpus, s.ip2as);
    benchmark::DoNotOptimize(r.size());
  }
}
BENCHMARK(BM_MapItBaseline)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
