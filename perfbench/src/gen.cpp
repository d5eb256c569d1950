// perfbench/src/gen.cpp — seeded input generator for the benchmark.
//
// Every file is written through the repository's own writers, so the
// programs under test read exactly the formats they read in production.
//
//   perf_gen map --kind json|wide --seed S --out DIR
//       A complete bdrmapit_cli input bundle from the topology simulator:
//       traces.{json,txt}, rib.txt, delegations.txt, ixp.txt, rels.txt,
//       aliases.nodes, plus an empty corpus (empty.txt) for set-up runs.
//   perf_gen text-stream --snapshot FILE --seed S --lines N --out FILE
//       The serve-text request stream over a snapshot's interfaces, in a
//       fixed verb mix (shares in kTextMix below).
//   perf_gen bulk --seed S --ifaces N --addrs M --out DIR
//       Two generations (gen_a.snap, gen_b.snap) of an ITDK-scale
//       synthetic snapshot, each checked with validate_snapshot, and a
//       stream of M uniformly drawn lookup addresses (bulk_addrs.bin:
//       17-byte records, family byte then 16 address bytes).

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "asrel/serial1.hpp"
#include "common.hpp"
#include "eval/experiment.hpp"
#include "netbase/rng.hpp"
#include "serve/snapshot.hpp"
#include "tracedata/scamper_json.hpp"

namespace {

using netbase::Asn;
using netbase::IPAddr;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perf_gen: %s\n", msg.c_str());
  std::exit(2);
}

std::ofstream open_out(const std::filesystem::path& p) {
  std::ofstream out(p, std::ios::binary);
  if (!out) die("cannot create " + p.string());
  return out;
}

void close_out(std::ofstream& out, const std::filesystem::path& p) {
  out.flush();
  if (!out) die("write failed for " + p.string());
}

// Internet shapes. "json" is bench_scale's large Internet probed by 100
// VPs: many traces per interface, so parsing carries the run. "wide" is
// a dual-stack Internet three times larger probed by 10 VPs: few traces
// per interface, so graph build, refinement and output carry it.
topo::SimParams map_params(const std::string& kind, std::size_t* vps) {
  topo::SimParams p;
  if (kind == "json") {
    p.tier1 = 10;
    p.transit = 80;
    p.regional = 200;
    p.stub = 1000;
    p.ixps = 16;
    *vps = 100;
  } else if (kind == "wide") {
    p.tier1 = 12;
    p.transit = 200;
    p.regional = 500;
    p.stub = 3000;
    p.ixps = 30;
    p.dual_stack = true;
    *vps = 10;
  } else {
    die("unknown --kind " + kind + " (want json or wide)");
  }
  return p;
}

int gen_map(std::map<std::string, std::string>& args) {
  std::size_t vps = 0;
  topo::SimParams params = map_params(args["kind"], &vps);
  const std::uint64_t seed = std::stoull(args["seed"]);
  params.seed = seed;
  const std::filesystem::path dir(args["out"]);
  std::filesystem::create_directories(dir);

  const eval::Scenario s = eval::make_scenario(params, vps, true, seed);
  const bool json = args["kind"] == "json";
  {
    const auto p = dir / (json ? "traces.json" : "traces.txt");
    auto out = open_out(p);
    if (json)
      tracedata::write_json_traceroutes(out, s.corpus);
    else
      tracedata::write_traceroutes(out, s.corpus);
    close_out(out, p);
  }
  {
    const auto p = dir / "empty.txt";
    auto out = open_out(p);
    close_out(out, p);
  }
  {
    const auto p = dir / "rib.txt";
    auto out = open_out(p);
    s.net.rib().write(out);
    close_out(out, p);
  }
  {
    const auto p = dir / "delegations.txt";
    auto out = open_out(p);
    bgp::write_delegations(out, s.net.delegations());
    close_out(out, p);
  }
  {
    const auto p = dir / "ixp.txt";
    auto out = open_out(p);
    out << "# IXP prefixes\n";
    for (const auto& px : s.net.ixp_prefixes()) out << px.to_string() << '\n';
    close_out(out, p);
  }
  {
    const auto p = dir / "rels.txt";
    auto out = open_out(p);
    asrel::write_serial1(out, s.net.relationships());
    close_out(out, p);
  }
  {
    const auto p = dir / "aliases.nodes";
    auto out = open_out(p);
    eval::midar_aliases(s).write(out);
    close_out(out, p);
  }
  std::printf("{\"traces\": %zu, \"ases\": %zu, \"vps\": %zu}\n", s.corpus.size(),
              s.net.ases().size(), vps);
  return 0;
}

IPAddr random_v4(netbase::SplitMix64& rng) {
  // Public unicast space only, so the address never looks private.
  return IPAddr::v4(static_cast<std::uint32_t>(rng.range(0x01000000u, 0xDFFFFFFFu)));
}

IPAddr random_v6(netbase::SplitMix64& rng) {
  std::array<std::uint8_t, 16> b{};
  b[0] = 0x20;
  b[1] = 0x01;
  for (std::size_t i = 2; i < 16; ++i) b[i] = static_cast<std::uint8_t>(rng());
  return IPAddr::v6(b);
}

// A random public address absent from `have`: IPv6 when `v6`, else IPv4.
IPAddr random_miss(netbase::SplitMix64& rng, const std::unordered_set<IPAddr>& have,
                   bool v6) {
  for (;;) {
    const IPAddr a = v6 ? random_v6(rng) : random_v4(rng);
    if (!have.contains(a)) return a;
  }
}

// The serve-text verb mix, in percent. An unverified assumption: no
// query log of a deployed service is available, so the shares are not
// measured (README.md lists the basis of each serve parameter). ROUTER
// is in the mix because it scans the whole table, not because 2% was
// observed.
struct MixRow {
  const char* kind;
  int percent;
};
constexpr MixRow kTextMix[] = {
    {"iface-v4", 55}, {"iface-v6", 20}, {"iface-miss", 10},
    {"prefix", 8},    {"links", 5},     {"router", 2},
};

int gen_text_stream(std::map<std::string, std::string>& args) {
  serve::Snapshot snap;
  std::string error;
  if (!serve::load_snapshot_file(args["snapshot"], &snap, &error))
    die(args["snapshot"] + ": " + error);
  std::vector<const serve::SnapshotIface*> v4, v6;
  std::unordered_set<IPAddr> have;
  for (const auto& rec : snap.interfaces) {
    (rec.addr.is_v4() ? v4 : v6).push_back(&rec);
    have.insert(rec.addr);
  }
  if (v4.empty() || v6.empty()) die("snapshot needs v4 and v6 interfaces");
  netbase::SplitMix64 rng(std::stoull(args["seed"]) ^ 0x7E57u);
  const std::size_t lines = std::stoul(args["lines"]);
  std::vector<std::string> out_lines;
  out_lines.reserve(lines);
  auto pick = [&rng](const std::vector<const serve::SnapshotIface*>& v) {
    return v[rng.below(v.size())];
  };
  for (const auto& row : kTextMix) {
    const std::size_t n = lines * static_cast<std::size_t>(row.percent) / 100;
    const std::string kind = row.kind;
    for (std::size_t i = 0; i < n; ++i) {
      if (kind == "iface-v4") {
        out_lines.push_back("IFACE " + pick(v4)->addr.to_string());
      } else if (kind == "iface-v6") {
        out_lines.push_back("IFACE " + pick(v6)->addr.to_string());
      } else if (kind == "iface-miss") {
        out_lines.push_back("IFACE " + random_miss(rng, have, i % 2 == 1).to_string());
      } else if (kind == "prefix") {
        out_lines.push_back("PREFIX " +
                            netbase::Prefix(pick(v4)->addr, 24).to_string());
      } else if (kind == "links") {
        Asn asn = netbase::kNoAs;
        while (asn == netbase::kNoAs) asn = pick(v4)->inf.router_as;
        out_lines.push_back("LINKS " + std::to_string(asn));
      } else {
        out_lines.push_back("ROUTER " + pick(v4)->addr.to_string());
      }
    }
  }
  // Fisher-Yates with the seeded generator: the order is part of the input.
  for (std::size_t i = out_lines.size(); i > 1; --i)
    std::swap(out_lines[i - 1], out_lines[rng.below(i)]);
  const std::filesystem::path p(args["out"]);
  auto out = open_out(p);
  for (const auto& l : out_lines) out << l << '\n';
  close_out(out, p);
  return 0;
}

// ITDK-scale synthetic snapshot: `n` interfaces (one in five IPv6) on
// routers of one to four aliases, whose ids are scattered so no router's
// interfaces are contiguous. One interface in five is a border interface.
serve::Snapshot synth_snapshot(std::uint64_t seed, std::size_t n) {
  netbase::SplitMix64 rng(seed ^ 0xB01Cu);
  std::unordered_set<IPAddr> seen;
  seen.reserve(n * 2);
  std::vector<IPAddr> addrs;
  addrs.reserve(n);
  while (addrs.size() < n) {
    const IPAddr a = rng.below(5) == 0 ? random_v6(rng) : random_v4(rng);
    if (seen.insert(a).second) addrs.push_back(a);
  }
  std::sort(addrs.begin(), addrs.end());

  // Routers in address-independent order: a shuffled index list is cut
  // into runs of 1..4 interfaces.
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);

  constexpr std::uint32_t kAsPool = 60000;
  serve::Snapshot snap;
  snap.interfaces.resize(n);
  std::uint32_t router = 0;
  for (std::size_t i = 0; i < n; ++router) {
    const std::size_t fan = std::min<std::size_t>(1 + rng.below(4), n - i);
    const Asn owner = 1 + static_cast<Asn>(rng.below(kAsPool));
    for (std::size_t k = 0; k < fan; ++k, ++i) {
      serve::SnapshotIface& rec = snap.interfaces[order[i]];
      rec.addr = addrs[order[i]];
      rec.router_id = router;
      rec.inf.router_as = owner;
      rec.inf.conn_as =
          rng.below(5) == 0 ? 1 + static_cast<Asn>(rng.below(kAsPool)) : owner;
      rec.inf.ixp = rng.below(100) == 0;
      rec.inf.seen_non_echo = rng.below(10) != 0;
      rec.inf.seen_mid_path = rng.below(3) != 0;
    }
  }
  snap.router_count = router;
  for (const auto& rec : snap.interfaces)
    if (rec.inf.interdomain())
      snap.as_links.emplace_back(std::min(rec.inf.router_as, rec.inf.conn_as),
                                 std::max(rec.inf.router_as, rec.inf.conn_as));
  std::sort(snap.as_links.begin(), snap.as_links.end());
  snap.as_links.erase(std::unique(snap.as_links.begin(), snap.as_links.end()),
                      snap.as_links.end());
  snap.iterations = 3;
  snap.iteration_stats = {{n / 10, n / 5}, {n / 100, n / 50}, {0, 0}};
  return snap;
}

// Generation B answers every address differently from A: each AS number
// moves up by a fixed offset, so a reply names its generation.
serve::Snapshot next_generation(serve::Snapshot snap) {
  constexpr Asn kOffset = 100000;
  for (auto& rec : snap.interfaces) {
    rec.inf.router_as += kOffset;
    rec.inf.conn_as += kOffset;
  }
  for (auto& [a, b] : snap.as_links) {
    a += kOffset;
    b += kOffset;
  }
  return snap;
}

void write_checked(const std::filesystem::path& p, const serve::Snapshot& snap) {
  const auto issues = serve::validate_snapshot(snap, 0);
  if (!issues.empty())
    die(p.string() + ": " + issues.front().check + ": " + issues.front().detail);
  std::string error;
  if (!serve::write_snapshot_file(p.string(), snap, &error)) die(error);
}

int gen_bulk(std::map<std::string, std::string>& args) {
  const std::uint64_t seed = std::stoull(args["seed"]);
  const std::size_t n = std::stoul(args["ifaces"]);
  const std::size_t m = std::stoul(args["addrs"]);
  const std::filesystem::path dir(args["out"]);
  std::filesystem::create_directories(dir);
  serve::Snapshot a = synth_snapshot(seed, n);

  // Lookup stream: one address in ten misses (an unverified assumption),
  // the rest are drawn uniformly from the table.
  netbase::SplitMix64 rng(seed ^ 0xADD5u);
  std::unordered_set<IPAddr> have;
  have.reserve(n * 2);
  for (const auto& rec : a.interfaces) have.insert(rec.addr);
  {
    const auto p = dir / "bulk_addrs.bin";
    auto out = open_out(p);
    std::string buf;
    buf.reserve(m * 17);
    for (std::size_t i = 0; i < m; ++i) {
      const IPAddr addr = rng.below(10) == 0
                              ? random_miss(rng, have, rng.below(5) == 0)
                              : a.interfaces[rng.below(n)].addr;
      buf += static_cast<char>(addr.is_v4() ? 4 : 6);
      buf.append(reinterpret_cast<const char*>(addr.raw().data()), 16);
    }
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    close_out(out, p);
  }
  have = {};
  write_checked(dir / "gen_a.snap", a);
  write_checked(dir / "gen_b.snap", next_generation(std::move(a)));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: perf_gen map|text-stream|bulk --flag value ...");
  const std::string mode = argv[1];
  auto args = perfbench::parse_flags(argc, argv, 2);
  auto need = [&args](std::initializer_list<const char*> keys) {
    for (const char* k : keys)
      if (!args.contains(k)) die(std::string("missing --") + k);
  };
  if (mode == "map") {
    need({"kind", "seed", "out"});
    return gen_map(args);
  }
  if (mode == "text-stream") {
    need({"snapshot", "seed", "lines", "out"});
    return gen_text_stream(args);
  }
  if (mode == "bulk") {
    need({"seed", "ifaces", "addrs", "out"});
    return gen_bulk(args);
  }
  die("unknown mode " + mode);
}
