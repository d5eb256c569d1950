// perfbench/src/trace.cpp — traced in-process replay of a workload.
//
//   perf_trace map --inputs DIR --corpus FILE --threads N --out DIR
//                  --spans FILE
//     Calls the library's public functions in bdrmapit_cli's order
//     (Rib::read, Ip2AS::build, load_serial1 + RelStore::finalize,
//     read_*traceroutes, AliasSets::read, Graph::build,
//     Bdrmapit::annotate_and_package, snapshot_from_result,
//     write_snapshot_file, itdk_nodes) with a span around each call, and
//     writes the snapshot and ITDK files to --out so their bytes can be
//     compared with the CLI's. Then probes nested work through public
//     API only: Annotator::run on copies of the built graph with
//     max_iterations = 0..k times §5 and each §6 sweep, and Ip2AS::lookup
//     over the corpus's hop addresses.
//
//   perf_trace serve --snapshot FILE --threads N --spans FILE
//                    (--text-stream FILE | --bulk-stream FILE)
//     Spans around load_snapshot_file, validate_snapshot and the
//     AnnotationStore constructor, then timed loops over the workload's
//     own requests through find / find_batch / find_under / links_of
//     and Protocol::handle_line / handle_bulk (BULK frames of 1,024 of
//     the requests' addresses). With a bulk stream, the text requests
//     are derived from its addresses. With a text stream, ROUTER's share
//     of the stream's handle_line time is reported too.
//
// Spans {name, start, end, parent, run} stay in memory and are written
// to --spans as JSON lines when the replay ends. Prints one JSON line of
// metrics; a metric of a layer the replay does not run is absent.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "asrel/serial1.hpp"
#include "common.hpp"
#include "core/bdrmapit.hpp"
#include "core/itdk.hpp"
#include "serve/bulk.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "tracedata/scamper_json.hpp"

// Counting allocator: protocol.allocs_per_req is the count over a warm,
// single-threaded request loop divided by the requests in it. Counting
// is off elsewhere, so the parallel pipeline stages never contend on
// the counter.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
volatile std::size_t g_sink = 0;  ///< keeps probe results observable

template <class F>
std::uint64_t count_allocs(F&& f) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  f();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Out of line, and the only one that calls free(): GCC then does not
// pair an inlined free() with operator new and warn
// (-Wmismatched-new-delete) about memory this operator new took from
// malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using perfbench::now_ns;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perf_trace: %s\n", msg.c_str());
  std::exit(2);
}

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot open " + path);
  return in;
}

struct Span {
  std::string name;
  std::int64_t start = 0, end = 0;
  int parent = -1;  ///< index into the span list, -1 for a root
  int run = 0;
};

// In-memory span recorder. A span's parent is the innermost open span.
class Tracer {
 public:
  template <class F>
  auto span(const std::string& name, int run, F&& f) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_ns(), 0, open_.empty() ? -1 : open_.back(), run});
    open_.push_back(id);
    struct Close {
      Tracer* t;
      int id;
      ~Close() {
        t->spans_[static_cast<std::size_t>(id)].end = now_ns();
        t->open_.pop_back();
      }
    } close{this, id};
    return f();
  }

  double seconds(const std::string& name) const {
    double s = 0;
    for (const auto& sp : spans_)
      if (sp.name == name) s += static_cast<double>(sp.end - sp.start) / 1e9;
    return s;
  }

  /// Self time per layer (the name up to the first '.') over spans of
  /// `run`: each span's duration minus that of its direct children.
  std::map<std::string, double> self_by_layer(int run) const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = static_cast<double>(spans_[i].end - spans_[i].start) / 1e9;
    for (const auto& sp : spans_)
      if (sp.parent >= 0)
        self[static_cast<std::size_t>(sp.parent)] -=
            static_cast<double>(sp.end - sp.start) / 1e9;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].run == run)
        out[spans_[i].name.substr(0, spans_[i].name.find('.'))] += self[i];
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const auto& sp : spans_)
      out << "{\"name\": \"" << sp.name << "\", \"start\": " << sp.start
          << ", \"end\": " << sp.end << ", \"parent\": " << sp.parent
          << ", \"run\": " << sp.run << "}\n";
    if (!out.flush()) die("cannot write " + path);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

constexpr int kReplay = 1;  ///< run id of the replay in the CLI's order
constexpr int kProbe = 2;   ///< run id of the nested-work probes

int trace_map(std::map<std::string, std::string>& args) {
  const std::filesystem::path in(args["inputs"]);
  const std::filesystem::path out(args["out"]);
  std::filesystem::create_directories(out);
  const int threads = std::stoi(args["threads"]);
  core::AnnotatorOptions opt;
  opt.threads = threads;
  Tracer tr;
  perfbench::JsonLine m;

  core::Result result;
  graph::Graph probe_base;
  std::vector<tracedata::Traceroute> corpus;
  std::size_t malformed = 0;
  bgp::Ip2AS ip2as;
  asrel::RelStore rels;
  tr.span("replay", kReplay, [&] {
    bgp::Rib rib;
    tr.span("bgp.rib_read", kReplay, [&] {
      auto f = open_in((in / "rib.txt").string());
      return rib.read(f);
    });
    const auto delegations = tr.span("bgp.delegations_read", kReplay, [&] {
      auto f = open_in((in / "delegations.txt").string());
      return bgp::read_delegations(f);
    });
    const auto ixp = tr.span("bgp.ixp_read", kReplay, [&] {
      auto f = open_in((in / "ixp.txt").string());
      return bgp::Ip2AS::read_ixp_prefixes(f);
    });
    ip2as = tr.span("bgp.ip2as_build", kReplay,
                    [&] { return bgp::Ip2AS::build(rib, delegations, ixp); });
    tr.span("asrel.load", kReplay, [&] {
      auto f = open_in((in / "rels.txt").string());
      return asrel::load_serial1(f, rels);
    });
    tr.span("asrel.finalize", kReplay, [&] {
      rels.finalize();
      return 0;
    });
    const std::string corpus_path = (in / args["corpus"]).string();
    corpus = tr.span("tracedata.parse", kReplay, [&] {
      auto f = open_in(corpus_path);
      return corpus_path.ends_with(".json")
                 ? tracedata::read_json_traceroutes(f, &malformed, threads)
                 : tracedata::read_traceroutes(f, &malformed, threads);
    });
    const auto aliases = tr.span("tracedata.alias_read", kReplay, [&] {
      auto f = open_in((in / "aliases.nodes").string());
      return tracedata::AliasSets::read(f);
    });
    graph::Graph g = tr.span("graph.build", kReplay, [&] {
      return graph::Graph::build(corpus, aliases, ip2as, rels, threads);
    });
    probe_base = g;  // outside any span: the probes below annotate copies
    result = tr.span("core.annotate_and_package", kReplay, [&] {
      return core::Bdrmapit::annotate_and_package(std::move(g), rels, opt);
    });
    tr.span("core.as_links", kReplay, [&] { return result.as_links().size(); });
    const serve::Snapshot snap =
        tr.span("snapshot.build", kReplay, [&] { return serve::snapshot_from_result(result); });
    tr.span("snapshot.write", kReplay, [&] {
      std::string error;
      if (!serve::write_snapshot_file((out / "map.snap").string(), snap, &error)) die(error);
      return 0;
    });
    tr.span("core.itdk", kReplay, [&] {
      const auto nodes = core::itdk_nodes(result);
      std::ofstream a(out / "itdk.nodes"), b(out / "itdk.nodes.as");
      core::write_itdk_nodes(a, nodes);
      core::write_itdk_nodes_as(b, nodes);
      return 0;
    });
  });

  // Probes: §5 and the §6 sweeps, timed through Annotator::run with a
  // growing iteration cap on copies of the unannotated graph.
  std::vector<double> run_s;
  for (int cap = 0; cap <= result.iterations; ++cap) {
    graph::Graph copy = probe_base;
    core::AnnotatorOptions capped = opt;
    capped.max_iterations = cap;
    core::Annotator ann(copy, rels, capped);
    const std::int64_t a = now_ns();
    tr.span("core.run_capped", kProbe, [&] {
      ann.run();
      return 0;
    });
    run_s.push_back(static_cast<double>(now_ns() - a) / 1e9);
  }
  std::size_t lookups = 0;
  const std::int64_t lookup_ns = [&] {
    const std::int64_t a = now_ns();
    tr.span("bgp.lookup", kProbe, [&] {
      std::uint64_t sink = 0;
      for (const auto& t : corpus)
        for (const auto& h : t.hops) {
          sink += ip2as.lookup(h.addr).asn;
          if (++lookups == 1000000) return sink;
        }
      return sink;
    });
    return now_ns() - a;
  }();

  std::size_t hops = 0;
  for (const auto& t : corpus) hops += t.hops.size();
  const auto& g = result.graph;
  const double iters = result.iterations;
  double changed = 0;
  for (const auto& st : result.iteration_stats)
    changed += static_cast<double>(st.changed_irs) / static_cast<double>(g.irs().size());

  m.add("tracedata.parse_s", tr.seconds("tracedata.parse"));
  m.add("tracedata.ns_per_trace", tr.seconds("tracedata.parse") * 1e9 /
                                      static_cast<double>(std::max<std::size_t>(1, corpus.size())));
  m.add("tracedata.traces", static_cast<double>(corpus.size()));
  m.add("tracedata.lines", static_cast<double>(corpus.size() + malformed));
  m.add("tracedata.hops", static_cast<double>(hops));
  m.add("tracedata.malformed_ratio",
        static_cast<double>(malformed) / static_cast<double>(corpus.size() + malformed));
  m.add("tracedata.alias_read_s", tr.seconds("tracedata.alias_read"));
  m.add("bgp.rib_read_s", tr.seconds("bgp.rib_read"));
  m.add("bgp.ip2as_build_s", tr.seconds("bgp.ip2as_build"));
  m.add("bgp.lookup_ns", static_cast<double>(lookup_ns) / static_cast<double>(lookups));
  m.add("asrel.load_s", tr.seconds("asrel.load"));
  m.add("asrel.finalize_s", tr.seconds("asrel.finalize"));
  m.add("graph.build_s", tr.seconds("graph.build"));
  m.add("graph.interfaces", static_cast<double>(g.interfaces().size()));
  m.add("graph.irs", static_cast<double>(g.irs().size()));
  m.add("graph.links", static_cast<double>(g.links().size()));
  m.add("graph.ifaces_per_hop",
        static_cast<double>(g.interfaces().size()) / static_cast<double>(hops));
  m.add("core.last_hops_s", run_s.front());
  m.add("core.sweep_s", iters > 0 ? (run_s.back() - run_s.front()) / iters : 0);
  m.add("core.iterations", iters);
  m.add("core.changed_irs_ratio", iters > 0 ? changed / iters : 0);
  m.add("core.package_s",
        std::max(0.0, tr.seconds("core.annotate_and_package") - run_s.back()));
  m.add("core.itdk_s", tr.seconds("core.itdk"));
  m.add("snapshot.build_s", tr.seconds("snapshot.build"));
  m.add("snapshot.write_s", tr.seconds("snapshot.write"));
  m.add("snapshot.bytes", static_cast<double>(std::filesystem::file_size(out / "map.snap")));
  // Library time of the replay: the CLI's wall time minus this is the
  // CLI's own share (process start, TSV and AS-link rendering).
  double library = 0;
  for (const auto& [layer, s] : tr.self_by_layer(kReplay)) {
    if (layer == "replay") continue;
    m.add("self_s." + layer, s);
    library += s;
  }
  m.add("trace.library_s", library);
  m.add("trace.replay_s", tr.seconds("replay"));
  tr.write(args["spans"]);
  m.print();
  return 0;
}

// ns per item of `body` run over `n` items, recorded as a probe span.
template <class F>
double per_item_ns(Tracer& tr, const std::string& name, std::size_t n, F&& body) {
  if (n == 0) return 0;
  const std::int64_t a = now_ns();
  tr.span(name, kProbe, [&] {
    body();
    return 0;
  });
  return static_cast<double>(now_ns() - a) / static_cast<double>(n);
}

int trace_serve(std::map<std::string, std::string>& args) {
  const int threads = std::stoi(args["threads"]);
  Tracer tr;
  perfbench::JsonLine m;

  std::shared_ptr<const serve::AnnotationStore> store;
  tr.span("replay", kReplay, [&] {
    serve::Snapshot snap;
    tr.span("snapshot.load", kReplay, [&] {
      std::string error;
      if (!serve::load_snapshot_file(args["snapshot"], &snap, &error)) die(error);
      return 0;
    });
    const auto issues = tr.span("snapshot.validate", kReplay,
                                [&] { return serve::validate_snapshot(snap, threads); });
    if (!issues.empty()) die("snapshot fails validation: " + issues.front().check);
    store = tr.span("store.index", kReplay, [&] {
      return std::make_shared<const serve::AnnotationStore>(std::move(snap));
    });
  });
  const serve::StoreHandle handle(store);
  const serve::Protocol protocol(handle);

  // The workload's own requests: the serve-text stream's lines by verb,
  // or lines derived from the bulk stream's addresses.
  std::map<std::string, std::vector<std::string>> by_verb;
  std::vector<netbase::IPAddr> addrs;
  std::vector<netbase::Prefix> prefixes;
  std::vector<netbase::Asn> asns;
  if (args.contains("text-stream")) {
    auto f = open_in(args["text-stream"]);
    for (std::string line; std::getline(f, line);) {
      const std::string verb = line.substr(0, line.find(' '));
      const std::string arg = line.substr(line.find(' ') + 1);
      by_verb[verb].push_back(line);
      if (verb == "IFACE" || verb == "ROUTER") addrs.push_back(netbase::IPAddr::must_parse(arg));
      if (verb == "PREFIX") prefixes.push_back(netbase::Prefix::must_parse(arg));
      if (verb == "LINKS") asns.push_back(static_cast<netbase::Asn>(std::stoul(arg)));
    }
  } else if (args.contains("bulk-stream")) {
    addrs = perfbench::read_addr_records(args["bulk-stream"]);
    // Fixed counts per verb; ROUTER scans the whole table, so few.
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      const std::string a = addrs[i].to_string();
      if (i < 20000) by_verb["IFACE"].push_back("IFACE " + a);
      if (i < 2000) {
        prefixes.emplace_back(addrs[i], addrs[i].is_v4() ? 24 : 64);
        by_verb["PREFIX"].push_back("PREFIX " + prefixes.back().to_string());
        const auto* rec = store->find(addrs[i]);
        if (rec != nullptr && rec->inf.router_as != netbase::kNoAs) {
          asns.push_back(rec->inf.router_as);
          by_verb["LINKS"].push_back("LINKS " + std::to_string(rec->inf.router_as));
        }
      }
      if (i < 100) by_verb["ROUTER"].push_back("ROUTER " + a);
    }
  } else {
    die("serve needs --text-stream or --bulk-stream");
  }

  std::size_t hits = 0;
  m.add("store.find_ns", per_item_ns(tr, "store.find", addrs.size(), [&] {
          for (const auto& a : addrs) hits += store->find(a) != nullptr;
        }));
  m.add("store.lookups", static_cast<double>(addrs.size()));
  m.add("store.hit_ratio", static_cast<double>(hits) / static_cast<double>(addrs.size()));
  constexpr std::size_t kBatch = 1024;
  std::vector<const serve::SnapshotIface*> recs(kBatch);
  m.add("store.find_batch_ns_per_addr",
        per_item_ns(tr, "store.find_batch", addrs.size(), [&] {
          for (std::size_t i = 0; i < addrs.size(); i += kBatch)
            store->find_batch(addrs.data() + i, std::min(kBatch, addrs.size() - i), recs.data());
        }));
  std::size_t under = 0;
  m.add("store.find_under_ns", per_item_ns(tr, "store.find_under", prefixes.size(), [&] {
          for (const auto& p : prefixes) under += store->find_under(p).size();
        }));
  m.add("store.links_of_ns", per_item_ns(tr, "store.links_of", asns.size(), [&] {
          for (const auto a : asns) under += store->links_of(a).size();
        }));

  std::string out;
  std::uint64_t requests = 0, allocs = 0;
  double line_ns = 0, router_ns = 0;  ///< handle_line time over all lines
  for (const char* verb : {"IFACE", "PREFIX", "LINKS", "ROUTER"}) {
    const auto& lines = by_verb[verb];
    const double ns =
        per_item_ns(tr, std::string("protocol.handle_line.") + verb, lines.size(), [&] {
          for (const auto& l : lines) {
            out.clear();
            protocol.handle_line(l, out);
          }
        });
    m.add(std::string("protocol.handle_line_ns.") + verb, ns);
    line_ns += ns * static_cast<double>(lines.size());
    if (std::strcmp(verb, "ROUTER") == 0) router_ns = ns * static_cast<double>(lines.size());
    // Second, warm pass: the reply path should not allocate.
    allocs += count_allocs([&] {
      for (const auto& l : lines) {
        out.clear();
        protocol.handle_line(l, out);
      }
    });
    requests += lines.size();
  }
  std::vector<std::string> frames;
  for (std::size_t i = 0; i + kBatch <= addrs.size(); i += kBatch) {
    frames.emplace_back();
    serve::bulk::append_request(
        frames.back(),
        std::vector<netbase::IPAddr>(addrs.begin() + static_cast<std::ptrdiff_t>(i),
                                     addrs.begin() + static_cast<std::ptrdiff_t>(i + kBatch)));
  }
  serve::Protocol::BulkScratch scratch;
  auto run_frames = [&] {
    for (const auto& f : frames) {
      out.clear();
      if (!protocol.handle_bulk(f, out, scratch).ok) die("bulk frame refused");
    }
  };
  m.add("protocol.handle_bulk_ns_per_addr",
        per_item_ns(tr, "protocol.handle_bulk", frames.size() * kBatch, run_frames));
  allocs += count_allocs(run_frames);
  requests += frames.size();
  m.add("protocol.requests", static_cast<double>(requests));
  // The derived bulk-stream lines have fixed counts per verb, not a mix.
  if (args.contains("text-stream")) m.add("protocol.router_time_share", router_ns / line_ns);
  m.add("protocol.allocs_per_req", static_cast<double>(allocs) / static_cast<double>(requests));
  m.add("snapshot.load_s", tr.seconds("snapshot.load"));
  m.add("snapshot.validate_s", tr.seconds("snapshot.validate"));
  m.add("store.index_s", tr.seconds("store.index"));
  for (const auto& [layer, s] : tr.self_by_layer(kReplay))
    if (layer != "replay") m.add("self_s." + layer, s);
  m.add("trace.replay_s", tr.seconds("replay"));
  g_sink = under + hits;
  tr.write(args["spans"]);
  m.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: perf_trace map|serve --flag value ...");
  const std::string mode = argv[1];
  auto args = perfbench::parse_flags(argc, argv, 2);
  if (mode == "map") return trace_map(args);
  if (mode == "serve") return trace_serve(args);
  die("unknown mode " + mode);
}
