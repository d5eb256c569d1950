// apps/gen_testdata.cpp — synthetic dataset generator.
//
// Materializes a complete bdrmapIT input bundle (plus ground truth) to
// a directory, in the same file formats the real pipeline consumes:
//
//   traces.txt        traceroute corpus
//   rib.txt           BGP table with AS paths
//   delegations.txt   RIR extended delegation file
//   ixp.txt           IXP prefix list
//   rels.txt          CAIDA serial-1 AS relationships
//   aliases.nodes     ITDK-style alias sets (MIDAR-like)
//   ground_truth.tsv  addr <tab> owner_as <tab> other_as(es) per interface
//   networks.txt      the four validation networks' ASNs
//
// Usage: gen_testdata --out DIR [--vps N] [--seed S] [--scale small|default]
//
// Tamper mode (for exercising the serve-time audit gate): rewrites a
// valid snapshot with one structural invariant broken but a fresh,
// correct CRC — the kind of corruption a checksum cannot catch.
//
//   gen_testdata --tamper-snapshot IN --tamper-out OUT
//                --tamper-mode unsorted|router-range|aslink

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <system_error>
#include <utility>

#include "asrel/serial1.hpp"
#include "eval/experiment.hpp"
#include "serve/snapshot.hpp"

#include "cli.hpp"

namespace {

// Break one invariant in-place; the rewrite below re-stamps the CRC so
// only the serve-time audit can reject the result.
bool tamper(serve::Snapshot& snap, const std::string& mode) {
  if (mode == "unsorted") {
    if (snap.interfaces.size() < 2) return false;
    std::swap(snap.interfaces.front(), snap.interfaces.back());
    return true;
  }
  if (mode == "router-range") {
    if (snap.interfaces.empty()) return false;
    snap.interfaces.front().router_id =
        static_cast<std::uint32_t>(snap.router_count + 100);
    return true;
  }
  if (mode == "aslink") {
    // An AS nothing in the interface table mentions, reverse-ordered.
    snap.as_links.insert(snap.as_links.begin(), {4200000000u, 64496u});
    return true;
  }
  return false;
}

int run_tamper(std::map<std::string, std::string>& args) {
  serve::Snapshot snap;
  std::string error;
  if (!serve::load_snapshot_file(args["tamper-snapshot"], &snap, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", args["tamper-snapshot"].c_str(),
                 error.c_str());
    return 1;
  }
  if (!tamper(snap, args["tamper-mode"])) {
    std::fprintf(stderr,
                 "error: cannot apply --tamper-mode %s (unknown mode or "
                 "snapshot too small)\n",
                 args["tamper-mode"].c_str());
    return 1;
  }
  if (!serve::write_snapshot_file(args["tamper-out"], snap, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote tampered (%s) snapshot to %s\n",
               args["tamper-mode"].c_str(), args["tamper-out"].c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    if (argv[i][0] != '-' || argv[i][1] != '-' || i + 1 == argc) {
      std::fprintf(stderr, "usage: %s --out DIR [--vps N] [--seed S] "
                           "[--scale small|default]\n", argv[0]);
      return 1;
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  if (args.contains("tamper-snapshot")) {
    if (!args.contains("tamper-out") || !args.contains("tamper-mode")) {
      std::fprintf(stderr,
                   "error: --tamper-snapshot needs --tamper-out and "
                   "--tamper-mode unsorted|router-range|aslink\n");
      return 1;
    }
    return run_tamper(args);
  }
  if (!args.contains("out")) {
    std::fprintf(stderr, "error: --out DIR is required\n");
    return 1;
  }
  std::size_t vps = 40;
  if (args.contains("vps") && !apps::parse_flag("--vps", args["vps"], 1L, 100000L,
                                                "a positive integer (1..100000)", vps))
    return 1;
  std::uint64_t seed = 20181031;
  if (args.contains("seed") && !apps::parse_flag("--seed", args["seed"], 0L, LONG_MAX,
                                                 "a non-negative integer", seed))
    return 1;
  const std::string scale = args.contains("scale") ? args["scale"] : "default";
  if (scale != "small" && scale != "default") {
    std::fprintf(stderr, "error: --scale expects small or default, got '%s'\n",
                 scale.c_str());
    return 1;
  }
  topo::SimParams params = scale == "small" ? topo::small_params() : topo::SimParams{};
  params.seed = seed;

  const std::filesystem::path dir(args["out"]);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  std::fprintf(stderr, "generating internet (%zu ASes, seed %llu)...\n",
               params.tier1 + params.transit + params.regional + params.stub,
               static_cast<unsigned long long>(seed));
  eval::Scenario s =
      eval::make_scenario(params, vps, /*exclude_validation=*/true, seed);

  using Fill = std::function<void(std::ostream&)>;
  const std::pair<const char*, Fill> files[] = {
      {"traces.txt", [&](std::ostream& out) { tracedata::write_traceroutes(out, s.corpus); }},
      {"rib.txt", [&](std::ostream& out) { s.net.rib().write(out); }},
      {"delegations.txt",
       [&](std::ostream& out) { bgp::write_delegations(out, s.net.delegations()); }},
      {"ixp.txt",
       [&](std::ostream& out) {
         out << "# IXP prefixes\n";
         for (const auto& p : s.net.ixp_prefixes()) out << p.to_string() << '\n';
       }},
      {"rels.txt", [&](std::ostream& out) { asrel::write_serial1(out, s.net.relationships()); }},
      {"aliases.nodes", [&](std::ostream& out) { eval::midar_aliases(s).write(out); }},
      {"ground_truth.tsv",
       [&](std::ostream& out) {
         out << "# addr\towner_as\tother_as(es)\n";
         for (const auto& f : s.net.ifaces()) {
           out << f.addr.to_string() << '\t' << s.net.owner_of_router(f.router) << '\t';
           const auto* t = s.gt.truth(f.addr);
           if (!t || t->others.empty()) {
             out << '-';
           } else {
             for (std::size_t i = 0; i < t->others.size(); ++i) {
               if (i) out << ',';
               out << t->others[i];
             }
           }
           out << '\n';
         }
       }},
      {"networks.txt",
       [&](std::ostream& out) {
         out << "# validation networks\n";
         for (const auto& [label, asn] : eval::validation_networks(s.net))
           out << label << '\t' << asn << '\n';
       }},
  };
  for (const auto& [name, fill] : files)
    if (!apps::write_file(dir / name, fill)) return 1;
  std::fprintf(stderr,
               "wrote %zu traceroutes, %zu interfaces of ground truth to %s\n",
               s.corpus.size(), s.net.ifaces().size(), dir.string().c_str());
  return 0;
}
