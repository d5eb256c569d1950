// examples/quickstart.cpp — the smallest end-to-end bdrmapIT run.
//
// Builds every input by hand — a handful of traceroutes, a BGP table,
// an AS relationship file — runs the algorithm, and prints the inferred
// router operators and interdomain links. This is the place to start
// reading to understand the public API:
//
//   inputs:  tracedata::Traceroute, tracedata::AliasSets,
//            bgp::Ip2AS (from bgp::Rib + RIR delegations + IXP prefixes),
//            asrel::RelStore
//   run:     core::Bdrmapit::run(...)
//   output:  core::Result — per-interface (router AS, connected AS)

#include <cstdio>
#include <sstream>

#include "asrel/serial1.hpp"
#include "core/bdrmapit.hpp"

int main() {
  // --- 1. BGP view: who announces what -------------------------------
  // AS100 is a transit provider; AS200 is its customer; AS300 is a
  // customer of AS200 that firewalls traceroute at its border.
  bgp::Rib rib;
  rib.add_line("198.51.100.0/24 64999 100");  // provider space
  rib.add_line("203.0.113.0/24 64999 100 200");  // customer space
  rib.add_line("192.0.2.0/24 64999 100 200 300");  // edge space

  bgp::Ip2AS ip2as = bgp::Ip2AS::build(rib, /*delegations=*/{}, /*ixp=*/{});

  // --- 2. AS relationships (CAIDA serial-1 format) --------------------
  std::istringstream serial1(
      "100|200|-1\n"   // 100 is 200's provider
      "200|300|-1\n"); // 200 is 300's provider
  asrel::RelStore rels;
  asrel::load_serial1(serial1, rels);
  rels.finalize();

  // --- 3. Traceroutes -------------------------------------------------
  // vp probes a host in AS200 and one in AS300. Border links use the
  // provider's address space (industry convention), so the traceroute
  // never shows an AS300 address: only the destination AS reveals the
  // final router's operator (paper §5).
  std::vector<tracedata::Traceroute> corpus;
  std::size_t malformed = 0;
  std::istringstream traces(
      // vp -> AS200 host: 100's core, 100's border, 200's border (100
      // space!), 200's core, destination echo.
      "T|vp|203.0.113.77|1:198.51.100.1:T;2:198.51.100.5:T;"
      "3:198.51.100.9:T;4:203.0.113.1:T;5:203.0.113.77:E\n"
      // vp -> AS300 host: dies at 300's border router, which replies
      // with an address from 200's space.
      "T|vp|192.0.2.50|1:198.51.100.1:T;2:198.51.100.5:T;"
      "3:198.51.100.9:T;4:203.0.113.1:T;5:203.0.113.9:T\n");
  for (auto t = tracedata::read_traceroutes(traces, &malformed); auto& tr : t)
    corpus.push_back(std::move(tr));

  // --- 4. Alias resolution (optional) ----------------------------------
  tracedata::AliasSets aliases;  // none: every interface is its own IR

  // --- 5. Run bdrmapIT -------------------------------------------------
  core::Result result = core::Bdrmapit::run(corpus, aliases, ip2as, rels);

  std::printf("refinement iterations: %d\n\n", result.iterations);
  std::printf("%-16s %-12s %-12s %s\n", "interface", "router AS", "connected",
              "interdomain?");
  for (const auto& t : corpus)
    for (const auto& h : t.hops) {
      const core::IfaceRecord* rec = core::find_iface(result.interfaces, h.addr);
      if (!rec) continue;
      std::printf("%-16s AS%-10u AS%-10u %s\n", h.addr.to_string().c_str(),
                  rec->inf.router_as, rec->inf.conn_as,
                  rec->inf.interdomain() ? "yes" : "");
    }

  std::printf("\ninferred AS-level links:\n");
  for (const auto& [a, b] : result.as_links())
    std::printf("  AS%u -- AS%u\n", a, b);

  // The punchline: 203.0.113.9 (an address in AS200's space) sits on
  // AS300's firewalled border router — inferred from destinations only.
  const core::IfaceRecord* edge =
      core::find_iface(result.interfaces, netbase::IPAddr::must_parse("203.0.113.9"));
  if (!edge) return 1;
  std::printf("\n203.0.113.9 -> router operated by AS%u (expected AS300)\n",
              edge->inf.router_as);
  return edge->inf.router_as == 300 ? 0 : 1;
}
