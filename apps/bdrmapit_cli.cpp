// apps/bdrmapit_cli.cpp — the bdrmapIT command-line tool.
//
// Mirrors the released tool's pipeline: file inputs in the standard
// formats, TSV outputs ready for downstream analysis.
//
//   bdrmapit_cli --traces FILE --rib FILE --rels FILE
//                [--delegations FILE] [--ixp FILE] [--aliases FILE]
//                [--output FILE] [--as-links FILE] [--snapshot-out FILE]
//                [--max-iterations N] [--threads N]
//                [--no-last-hop-dest] [--no-third-party]
//                [--no-reallocated] [--no-exceptions] [--no-hidden-as]
//                [--no-link-class-filter]
//
// --threads N parallelizes ingest, graph construction, and the
// refinement sweeps across N executors (default: hardware
// concurrency). Output is byte-identical for every thread count.
//
// Inputs:
//   --traces       traceroute corpus: native T|vp|dst|ttl:addr:type;... lines
//                  or scamper JSON, told apart by tracedata::is_json_corpus
//   --rib          BGP table ("prefix as-path" or prefix2as lines)
//   --rels         CAIDA serial-1 AS relationships
//   --delegations  RIR extended delegation file (optional)
//   --ixp          IXP prefix list, one per line (optional)
//   --aliases      ITDK-style nodes file (optional)
//
// Outputs:
//   --output       TSV: addr <tab> router_as <tab> conn_as <tab> flags
//   --as-links     TSV: as_a <tab> as_b (deduplicated AS adjacencies)
//   --itdk PREFIX  write PREFIX.nodes and PREFIX.nodes.as (ITDK style)
//   --snapshot-out FILE  binary snapshot for bdrmapit_serve (docs/FORMATS.md)
//
// An output that cannot be written in full (missing directory, full
// disk) is exit 1 with one diagnostic, like a bad flag; audit
// violations under --audit are exit 2.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "asrel/serial1.hpp"
#include "audit/invariants.hpp"
#include "core/bdrmapit.hpp"
#include "core/itdk.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"
#include "tracedata/scamper_json.hpp"

#include "cli.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --traces FILE --rib FILE --rels FILE\n"
               "          [--delegations FILE] [--ixp FILE] [--aliases FILE]\n"
               "          [--output FILE] [--as-links FILE] [--snapshot-out FILE]\n"
               "          [--max-iterations N] [--threads N] [--audit]\n"
               "          [--no-last-hop-dest] [--no-third-party] "
               "[--no-reallocated]\n"
               "          [--no-exceptions] [--no-hidden-as] "
               "[--no-link-class-filter]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  core::AnnotatorOptions opt;
  // Debug and sanitizer builds audit every run; release builds opt in
  // with --audit.
#ifdef BDRMAPIT_AUDIT_DEFAULT
  bool run_audit = true;
#else
  bool run_audit = false;
#endif
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--audit") {
      run_audit = true;
    } else if (a == "--no-last-hop-dest") {
      opt.use_last_hop_dest = false;
    } else if (a == "--no-third-party") {
      opt.use_third_party = false;
    } else if (a == "--no-reallocated") {
      opt.use_reallocated = false;
    } else if (a == "--no-exceptions") {
      opt.use_exceptions = false;
    } else if (a == "--no-hidden-as") {
      opt.use_hidden_as = false;
    } else if (a == "--no-link-class-filter") {
      opt.use_link_class_filter = false;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a.substr(2)] = argv[++i];
    } else if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: missing value for %s\n", a.c_str());
      usage(argv[0]);
      return 1;
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", a.c_str());
      usage(argv[0]);
      return 1;
    }
  }
  for (const char* required : {"traces", "rib", "rels"}) {
    if (!args.contains(required)) {
      std::fprintf(stderr, "error: --%s is required\n", required);
      usage(argv[0]);
      return 1;
    }
  }
  if (args.contains("max-iterations") &&
      !apps::parse_flag("--max-iterations", args["max-iterations"], 0L, 1000000L,
                        "a non-negative integer", opt.max_iterations))
    return 1;
  opt.threads = 0;  // CLI default: hardware concurrency
  if (args.contains("threads") &&
      !apps::parse_flag("--threads", args["threads"], 1L, 1024L,
                        "a positive integer (1..1024)", opt.threads))
    return 1;

  // ---- load inputs ----------------------------------------------------
  bgp::Rib rib;
  {
    auto in = apps::open_or_die(args["rib"]);
    const std::size_t bad = rib.read(in);
    if (bad) std::fprintf(stderr, "warning: %zu malformed RIB lines\n", bad);
  }
  std::vector<bgp::Delegation> delegations;
  if (args.contains("delegations")) {
    auto in = apps::open_or_die(args["delegations"]);
    delegations = bgp::read_delegations(in);
  }
  std::vector<netbase::Prefix> ixp;
  if (args.contains("ixp")) {
    auto in = apps::open_or_die(args["ixp"]);
    ixp = bgp::Ip2AS::read_ixp_prefixes(in);
  }
  const bgp::Ip2AS ip2as = bgp::Ip2AS::build(rib, delegations, ixp);

  asrel::RelStore rels;
  {
    auto in = apps::open_or_die(args["rels"]);
    const std::size_t bad = asrel::load_serial1(in, rels);
    if (bad) std::fprintf(stderr, "warning: %zu malformed rel lines\n", bad);
    rels.finalize();
  }

  std::vector<tracedata::Traceroute> corpus;
  {
    auto in = apps::open_or_die(args["traces"]);
    std::size_t bad = 0;
    if (tracedata::is_json_corpus(in))
      corpus = tracedata::read_json_traceroutes(in, &bad, opt.threads);
    else
      corpus = tracedata::read_traceroutes(in, &bad, opt.threads);
    if (bad) std::fprintf(stderr, "warning: %zu malformed traceroute lines\n", bad);
  }
  tracedata::AliasSets aliases;
  if (args.contains("aliases")) {
    auto in = apps::open_or_die(args["aliases"]);
    aliases = tracedata::AliasSets::read(in);
  }

  std::fprintf(stderr,
               "loaded %zu traceroutes, %zu RIB prefixes, %zu delegations, "
               "%zu IXP prefixes, %zu alias sets, %zu/%zu AS relationships\n",
               corpus.size(), rib.origins().size(), delegations.size(), ixp.size(),
               aliases.size(), rels.p2c_edges(), rels.p2p_edges());

  // ---- run --------------------------------------------------------------
  std::vector<std::pair<audit::Stage, audit::Violation>> violations;
  const core::Result result =
      run_audit ? audit::audited_run(corpus, aliases, ip2as, rels, opt, &violations)
                : core::Bdrmapit::run(corpus, aliases, ip2as, rels, opt);
  std::fprintf(stderr, "annotated %zu interfaces in %d refinement iterations\n",
               result.interfaces.size(), result.iterations);

  // ---- write outputs ------------------------------------------------------
  const auto write_tsv = [&](std::ostream& out) {
    std::string rows = "# addr\trouter_as\tconn_as\tflags\n";
    for (const auto& rec : result.interfaces) serve::append_iface(rows, rec);
    out << rows;
  };
  if (args.contains("output")) {
    if (!apps::write_file(args["output"], write_tsv)) return 1;
  } else {
    write_tsv(std::cout);
    if (!std::cout.flush()) {
      std::fprintf(stderr, "error: cannot write standard output\n");
      return 1;
    }
  }
  if (args.contains("as-links") &&
      !apps::write_file(args["as-links"], [&](std::ostream& out) {
        out << "# as_a\tas_b\n";
        for (const auto& [a, b] : result.as_links()) out << a << '\t' << b << '\n';
      }))
    return 1;
  if (args.contains("snapshot-out")) {
    const serve::Snapshot snap = serve::snapshot_from_result(result);
    if (run_audit)
      for (const auto& v : audit::audit_snapshot(snap, opt.threads))
        violations.emplace_back(audit::Stage::refined, v);
    std::string error;
    if (!serve::write_snapshot_file(args["snapshot-out"], snap, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
  }
  if (args.contains("itdk")) {
    const auto nodes = core::itdk_nodes(result);
    if (!apps::write_file(args["itdk"] + ".nodes",
                          [&](std::ostream& out) { core::write_itdk_nodes(out, nodes); }) ||
        !apps::write_file(args["itdk"] + ".nodes.as",
                          [&](std::ostream& out) { core::write_itdk_nodes_as(out, nodes); }))
      return 1;
  }
  if (run_audit) {
    for (const auto& [stage, v] : violations)
      std::fprintf(stderr, "audit violation [%s] %s: %s\n",
                   audit::stage_name(stage), v.check.c_str(), v.detail.c_str());
    if (!violations.empty()) {
      std::fprintf(stderr, "audit: %zu invariant violations\n", violations.size());
      return 2;
    }
    std::fprintf(stderr, "audit: all pipeline invariants hold\n");
  }
  return 0;
}
