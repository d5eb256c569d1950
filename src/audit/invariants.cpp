#include "audit/invariants.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <string>
#include <utility>

#include "core/annotator.hpp"
#include "parallel/thread_pool.hpp"

namespace audit {
namespace {

using graph::Graph;
using graph::Interface;
using graph::IR;
using graph::Link;
using netbase::Asn;

void report(std::vector<Violation>& out, const char* check, std::string detail) {
  out.push_back(Violation{check, std::move(detail)});
}

void append(std::vector<Violation>& out, std::vector<Violation> more) {
  out.insert(out.end(), std::make_move_iterator(more.begin()),
             std::make_move_iterator(more.end()));
}

bool in_range(int id, std::size_t size) noexcept {
  return id >= 0 && static_cast<std::size_t>(id) < size;
}

std::string origin_str(const bgp::Origin& o) {
  return "asn=" + std::to_string(o.asn) +
         " kind=" + std::to_string(static_cast<int>(o.kind)) +
         " prefix=" + o.prefix.to_string();
}

/// Per-shard accumulator for scans that both emit violations and tally
/// cross-element reference counts (partition membership, link
/// back-references). Violations concatenate in shard order — index
/// order overall — and the count vectors merge by addition, so the
/// subsequent per-index check pass sees thread-count-independent state.
struct CountingScan {
  std::vector<Violation> violations;
  std::vector<int> counts;
};

template <typename Fn>
CountingScan counting_scan(std::size_t n, std::size_t counted, int threads,
                           Fn&& fn) {
  return parallel::parallel_reduce(
      n, threads, CountingScan{},
      [&](CountingScan& acc, std::size_t i) {
        if (acc.counts.empty()) acc.counts.resize(counted, 0);
        fn(acc, i);
      },
      [counted](CountingScan& total, CountingScan& s) {
        append(total.violations, std::move(s.violations));
        if (total.counts.empty()) total.counts.resize(counted, 0);
        for (std::size_t i = 0; i < s.counts.size(); ++i)
          total.counts[i] += s.counts[i];
      });
}

}  // namespace

const char* stage_name(Stage s) noexcept {
  return s == Stage::graph_built ? "graph-built" : "refined";
}

std::vector<Violation> audit_graph(const Graph& g, int threads) {
  std::vector<Violation> out;
  const auto& ifaces = g.interfaces();
  const auto& irs = g.irs();
  const auto& links = g.links();

  // ---- interfaces: ids, IR range (partition totality), sorted sets ----
  append(out, parallel::parallel_collect<Violation>(
                  ifaces.size(), threads,
                  [&](std::vector<Violation>& acc, std::size_t i) {
                    const Interface& f = ifaces[i];
                    if (f.id != static_cast<int>(i))
                      report(acc, "iface.id-index",
                             "interface at index " + std::to_string(i) +
                                 " has id " + std::to_string(f.id));
                    if (!in_range(f.ir, irs.size()))
                      report(acc, "ir.partition-total",
                             "interface " + f.addr.to_string() + " has IR " +
                                 std::to_string(f.ir) + " outside [0, " +
                                 std::to_string(irs.size()) + ")");
                    if (!graph::is_set(f.dest_asns))
                      report(acc, "iface.dest-set-dedup",
                             "interface " + f.addr.to_string() +
                                 " destination ASes are not strictly ascending");
                  }));

  // ---- IRs: ids, partition disjointness, aggregates, last-hop flag ----
  CountingScan ir_scan = counting_scan(
      irs.size(), ifaces.size(), threads, [&](CountingScan& acc, std::size_t i) {
        std::vector<Violation>& vs = acc.violations;
        const IR& ir = irs[i];
        if (ir.id != static_cast<int>(i))
          report(vs, "ir.id-index",
                 "IR at index " + std::to_string(i) + " has id " +
                     std::to_string(ir.id));
        for (int fid : ir.ifaces) {
          if (!in_range(fid, ifaces.size())) {
            report(vs, "ir.partition-disjoint",
                   "IR " + std::to_string(ir.id) + " lists out-of-range interface " +
                       std::to_string(fid));
            continue;
          }
          ++acc.counts[static_cast<std::size_t>(fid)];
          if (ifaces[static_cast<std::size_t>(fid)].ir != ir.id)
            report(vs, "ir.partition-disjoint",
                   "IR " + std::to_string(ir.id) + " lists interface " +
                       std::to_string(fid) + " whose ir field is " +
                       std::to_string(ifaces[static_cast<std::size_t>(fid)].ir));
        }
        if (ir.last_hop != ir.out_links.empty())
          report(vs, "ir.last-hop-flag",
                 "IR " + std::to_string(ir.id) + " last_hop=" +
                     (ir.last_hop ? "true" : "false") + " but has " +
                     std::to_string(ir.out_links.size()) + " outgoing links");

        // Origin aggregates must mirror the member interfaces exactly.
        if (!graph::is_set(ir.origin_set))
          report(vs, "ir.origin-set-dedup",
                 "IR " + std::to_string(ir.id) +
                     " origin ASes are not strictly ascending");
        if (!graph::is_set(ir.dest_asns))
          report(vs, "ir.dest-set-dedup",
                 "IR " + std::to_string(ir.id) +
                     " destination ASes are not strictly ascending");
        std::vector<Asn> want_origins;  // announced member origins
        for (int fid : ir.ifaces) {
          if (!in_range(fid, ifaces.size())) continue;
          const Interface& f = ifaces[static_cast<std::size_t>(fid)];
          if (f.origin.announced()) want_origins.push_back(f.origin.asn);
          for (Asn d : f.dest_asns)
            if (!graph::set_contains(ir.dest_asns, d))
              report(vs, "ir.dest-set-consistency",
                     "IR " + std::to_string(ir.id) + " is missing destination AS " +
                         std::to_string(d) + " of interface " + f.addr.to_string());
        }
        std::sort(want_origins.begin(), want_origins.end());
        if (ir.origin_votes != graph::tally(want_origins))
          report(vs, "ir.origin-votes",
                 "IR " + std::to_string(ir.id) +
                     " votes are not the ascending per-AS counts of its announced"
                     " member interfaces");
        graph::make_set(want_origins);
        for (Asn o : want_origins)
          if (!graph::set_contains(ir.origin_set, o))
            report(vs, "ir.origin-set-consistency",
                   "IR " + std::to_string(ir.id) + " is missing origin AS " +
                       std::to_string(o));
        for (Asn o : ir.origin_set)
          if (!graph::set_contains(want_origins, o))
            report(vs, "ir.origin-set-consistency",
                   "IR " + std::to_string(ir.id) + " lists origin AS " +
                       std::to_string(o) + " that no member interface announces");
      });
  append(out, std::move(ir_scan.violations));
  const std::vector<int>& iface_memberships = ir_scan.counts;
  append(out, parallel::parallel_collect<Violation>(
                  ifaces.size(), threads,
                  [&](std::vector<Violation>& acc, std::size_t i) {
                    if (in_range(ifaces[i].ir, irs.size()) &&
                        iface_memberships[i] != 1)
                      report(acc, "ir.partition-disjoint",
                             "interface " + ifaces[i].addr.to_string() +
                                 " appears in " +
                                 std::to_string(iface_memberships[i]) +
                                 " IR member lists");
                  }));

  // ---- links: ids, endpoints, labels, AS sets, back-references --------
  append(out, parallel::parallel_collect<Violation>(
                  links.size(), threads,
                  [&](std::vector<Violation>& acc, std::size_t i) {
                    const Link& l = links[i];
                    if (l.id != static_cast<int>(i))
                      report(acc, "link.id-index",
                             "link at index " + std::to_string(i) + " has id " +
                                 std::to_string(l.id));
                    const bool endpoints_ok =
                        in_range(l.ir, irs.size()) && in_range(l.iface, ifaces.size());
                    if (!endpoints_ok)
                      report(acc, "link.endpoint-range",
                             "link " + std::to_string(l.id) + " connects IR " +
                                 std::to_string(l.ir) + " to interface " +
                                 std::to_string(l.iface));
                    const auto label = static_cast<std::uint8_t>(l.label);
                    if (label < static_cast<std::uint8_t>(graph::LinkLabel::nexthop) ||
                        label > static_cast<std::uint8_t>(graph::LinkLabel::multihop))
                      report(acc, "link.label-range",
                             "link " + std::to_string(l.id) + " has confidence label " +
                                 std::to_string(label) + " outside {N=1, E=2, M=3}");
                    if (!graph::is_set(l.origin_set))
                      report(acc, "link.origin-set-dedup",
                             "link " + std::to_string(l.id) +
                                 " origin ASes are not strictly ascending");
                    if (!graph::is_set(l.dest_asns))
                      report(acc, "link.dest-set-dedup",
                             "link " + std::to_string(l.id) +
                                 " destination ASes are not strictly ascending");
                    if (endpoints_ok) {
                      const IR& src = irs[static_cast<std::size_t>(l.ir)];
                      // L(IRi, j) collects announced origins of the source IR's
                      // interfaces (§4.3); anything else snuck in from elsewhere.
                      for (Asn o : l.origin_set)
                        if (!graph::set_contains(src.origin_set, o))
                          report(acc, "link.origin-set-member",
                                 "link " + std::to_string(l.id) + " origin AS " +
                                     std::to_string(o) +
                                     " is not an origin of source IR " +
                                     std::to_string(l.ir));
                      if (!graph::is_set(l.prev_ifaces))
                        report(acc, "link.prev-ifaces",
                               "link " + std::to_string(l.id) +
                                   " previous interfaces are not strictly ascending");
                      for (int pf : l.prev_ifaces)
                        if (!in_range(pf, ifaces.size()) ||
                            ifaces[static_cast<std::size_t>(pf)].ir != l.ir)
                          report(acc, "link.prev-ifaces",
                                 "link " + std::to_string(l.id) +
                                     " previous interface " + std::to_string(pf) +
                                     " does not belong to source IR " +
                                     std::to_string(l.ir));
                    }
                  }));

  CountingScan out_scan = counting_scan(
      irs.size(), links.size(), threads, [&](CountingScan& acc, std::size_t i) {
        const IR& ir = irs[i];
        for (int lid : ir.out_links) {
          if (!in_range(lid, links.size()) ||
              links[static_cast<std::size_t>(lid)].ir != ir.id)
            report(acc.violations, "ir.out-links-backref",
                   "IR " + std::to_string(ir.id) + " lists link " +
                       std::to_string(lid) + " it is not the source of");
          else
            ++acc.counts[static_cast<std::size_t>(lid)];
        }
      });
  append(out, std::move(out_scan.violations));
  CountingScan in_scan = counting_scan(
      ifaces.size(), links.size(), threads, [&](CountingScan& acc, std::size_t i) {
        const Interface& f = ifaces[i];
        for (int lid : f.in_links) {
          if (!in_range(lid, links.size()) ||
              links[static_cast<std::size_t>(lid)].iface != f.id)
            report(acc.violations, "iface.in-links-backref",
                   "interface " + f.addr.to_string() + " lists link " +
                       std::to_string(lid) + " it is not the target of");
          else
            ++acc.counts[static_cast<std::size_t>(lid)];
        }
      });
  append(out, std::move(in_scan.violations));
  const std::vector<int>& out_refs = out_scan.counts;
  const std::vector<int>& in_refs = in_scan.counts;
  append(out, parallel::parallel_collect<Violation>(
                  links.size(), threads,
                  [&](std::vector<Violation>& acc, std::size_t i) {
                    if (out_refs[i] != 1)
                      report(acc, "ir.out-links-backref",
                             "link " + std::to_string(i) + " appears in " +
                                 std::to_string(out_refs[i]) +
                                 " IR out_links lists");
                    if (in_refs[i] != 1)
                      report(acc, "iface.in-links-backref",
                             "link " + std::to_string(i) + " appears in " +
                                 std::to_string(in_refs[i]) +
                                 " interface in_links lists");
                  }));
  return out;
}

std::vector<Violation> audit_origins(const Graph& g, const bgp::Ip2AS& ip2as,
                                     int threads) {
  const auto& ifaces = g.interfaces();
  return parallel::parallel_collect<Violation>(
      ifaces.size(), threads, [&](std::vector<Violation>& acc, std::size_t i) {
        const Interface& f = ifaces[i];
        const bgp::Origin fresh = ip2as.lookup(f.addr);
        if (fresh.kind == bgp::OriginKind::private_addr)
          report(acc, "iface.no-private",
                 "private address " + f.addr.to_string() + " became an interface");
        if (f.origin.asn != fresh.asn || f.origin.kind != fresh.kind ||
            !(f.origin.prefix == fresh.prefix))
          report(acc, "iface.origin-ip2as",
                 "interface " + f.addr.to_string() + " stores {" +
                     origin_str(f.origin) + "} but ip2as says {" +
                     origin_str(fresh) + "}");
      });
}

std::vector<Violation> audit_reallocated(const Graph& g, const asrel::RelStore& rels,
                                         int threads) {
  const auto& ifaces = g.interfaces();
  return parallel::parallel_collect<Violation>(
      ifaces.size(), threads, [&](std::vector<Violation>& acc, std::size_t i) {
        const Interface& f = ifaces[i];
        if (f.dest_asns.size() != 2 || !f.origin.announced()) return;
        Asn matching = netbase::kNoAs, other = netbase::kNoAs;
        if (f.dest_asns[0] == f.origin.asn) {
          matching = f.dest_asns[0];
          other = f.dest_asns[1];
        } else if (f.dest_asns[1] == f.origin.asn) {
          matching = f.dest_asns[1];
          other = f.dest_asns[0];
        } else {
          return;
        }
        // Exactly the §4.4 trigger: small-cone second destination with no
        // observed relationship to the origin. build() must have dropped one.
        if (rels.cone_size(other) <= 5 && !rels.has_relationship(matching, other))
          report(acc, "iface.realloc-applied",
                 "interface " + f.addr.to_string() +
                     " still carries the uncorrected destination pair {" +
                     std::to_string(matching) + ", " + std::to_string(other) + "}");
      });
}

std::vector<Violation> audit_fixed_point(const Graph& g, const asrel::RelStore& rels,
                                         core::AnnotatorOptions opt) {
  std::vector<Violation> out;
  Graph copy = g;
  core::Annotator ann(copy, rels, opt);
  ann.annotate_irs();
  ann.annotate_interfaces();
  const auto& irs = g.irs();
  const auto& irs2 = copy.irs();
  append(out, parallel::parallel_collect<Violation>(
                  std::min(irs.size(), irs2.size()), opt.threads,
                  [&](std::vector<Violation>& acc, std::size_t i) {
                    if (irs[i].annotation != irs2[i].annotation)
                      report(acc, "refine.fixed-point",
                             "IR " + std::to_string(irs[i].id) +
                                 " annotation moves " +
                                 std::to_string(irs[i].annotation) + " -> " +
                                 std::to_string(irs2[i].annotation) +
                                 " on one more sweep");
                  }));
  const auto& ifs = g.interfaces();
  const auto& ifs2 = copy.interfaces();
  append(out, parallel::parallel_collect<Violation>(
                  std::min(ifs.size(), ifs2.size()), opt.threads,
                  [&](std::vector<Violation>& acc, std::size_t i) {
                    if (ifs[i].annotation != ifs2[i].annotation)
                      report(acc, "refine.fixed-point",
                             "interface " + ifs[i].addr.to_string() +
                                 " annotation moves " +
                                 std::to_string(ifs[i].annotation) + " -> " +
                                 std::to_string(ifs2[i].annotation) +
                                 " on one more sweep");
                  }));
  return out;
}

std::vector<Violation> audit_result(const core::Result& r, int threads) {
  std::vector<Violation> out;
  const auto& table = r.interfaces;
  if (table.size() != r.graph.interfaces().size())
    report(out, "result.iface-consistency",
           "result holds " + std::to_string(table.size()) +
               " interfaces but the graph has " +
               std::to_string(r.graph.interfaces().size()));
  // Element i compares against its predecessor, so a shard's first
  // element still sees across the shard boundary.
  append(out, parallel::parallel_collect<Violation>(
                  table.size(), threads,
                  [&](std::vector<Violation>& acc, std::size_t i) {
                    if (i > 0 && !(table[i - 1].addr < table[i].addr))
                      report(acc, "result.iface-sorted",
                             "interface records out of order at index " +
                                 std::to_string(i) + " (" +
                                 table[i].addr.to_string() + ")");
                  }));
  const auto& ifaces = r.graph.interfaces();
  append(out, parallel::parallel_collect<Violation>(
                  ifaces.size(), threads,
                  [&](std::vector<Violation>& acc, std::size_t i) {
                    const Interface& f = ifaces[i];
                    const core::IfaceRecord* rec = core::find_iface(table, f.addr);
                    if (!rec) {
                      report(acc, "result.iface-consistency",
                             "graph interface " + f.addr.to_string() +
                                 " missing from the result");
                      return;
                    }
                    const core::IfaceInference& inf = rec->inf;
                    const Asn want_router =
                        in_range(f.ir, r.graph.irs().size())
                            ? r.graph.irs()[static_cast<std::size_t>(f.ir)].annotation
                            : netbase::kNoAs;
                    if (rec->router_id != static_cast<std::uint32_t>(f.ir) ||
                        inf.router_as != want_router || inf.conn_as != f.annotation ||
                        inf.ixp != f.origin.is_ixp() ||
                        inf.seen_non_echo != f.seen_non_echo ||
                        inf.seen_mid_path != f.seen_mid_path)
                      report(acc, "result.iface-consistency",
                             "result entry for " + f.addr.to_string() +
                                 " disagrees with the graph annotations");
                  }));
  if (r.iterations != static_cast<int>(r.iteration_stats.size()))
    report(out, "result.iteration-stats",
           std::to_string(r.iterations) + " iterations but " +
               std::to_string(r.iteration_stats.size()) + " stat entries");
  const auto links = r.as_links();
  append(out, parallel::parallel_collect<Violation>(
                  links.size(), threads,
                  [&](std::vector<Violation>& acc, std::size_t i) {
                    if (links[i].first > links[i].second)
                      report(acc, "result.as-links-canonical",
                             "AS link (" + std::to_string(links[i].first) + ", " +
                                 std::to_string(links[i].second) +
                                 ") is not normalized");
                    if (i > 0 && !(links[i - 1] < links[i]))
                      report(acc, "result.as-links-canonical",
                             "AS links out of order at index " + std::to_string(i));
                  }));
  return out;
}

std::vector<Violation> audit_snapshot(const serve::Snapshot& s, int threads) {
  std::vector<Violation> out;
  for (auto& issue : serve::validate_snapshot(s, threads))
    out.push_back(Violation{std::move(issue.check), std::move(issue.detail)});
  return out;
}

std::vector<Violation> audit_all(const core::Result& r, const bgp::Ip2AS& ip2as,
                                 const asrel::RelStore& rels,
                                 core::AnnotatorOptions opt) {
  std::vector<Violation> out = audit_graph(r.graph, opt.threads);
  append(out, audit_origins(r.graph, ip2as, opt.threads));
  append(out, audit_reallocated(r.graph, rels, opt.threads));
  append(out, audit_fixed_point(r.graph, rels, opt));
  append(out, audit_result(r, opt.threads));
  return out;
}

core::Result audited_run(const std::vector<tracedata::Traceroute>& corpus,
                         const tracedata::AliasSets& aliases,
                         const bgp::Ip2AS& ip2as, const asrel::RelStore& rels,
                         core::AnnotatorOptions opt,
                         std::vector<std::pair<Stage, Violation>>* out) {
  auto collect = [out](Stage stage, std::vector<Violation> vs) {
    if (!out) return;
    for (auto& v : vs) out->emplace_back(stage, std::move(v));
  };
  graph::Graph g = graph::Graph::build(corpus, aliases, ip2as, rels, opt.threads);
  collect(Stage::graph_built, audit_graph(g, opt.threads));
  collect(Stage::graph_built, audit_origins(g, ip2as, opt.threads));
  collect(Stage::graph_built, audit_reallocated(g, rels, opt.threads));
  core::Result r = core::Bdrmapit::annotate_and_package(std::move(g), rels, opt);
  collect(Stage::refined, audit_graph(r.graph, opt.threads));
  collect(Stage::refined, audit_fixed_point(r.graph, rels, opt));
  collect(Stage::refined, audit_result(r, opt.threads));
  return r;
}

}  // namespace audit
