#include "core/bdrmapit.hpp"

#include <algorithm>
#include <utility>

namespace core {

Result Bdrmapit::run(const std::vector<tracedata::Traceroute>& corpus,
                     const tracedata::AliasSets& aliases, const bgp::Ip2AS& ip2as,
                     const asrel::RelStore& rels, AnnotatorOptions opt) {
  return annotate_and_package(
      graph::Graph::build(corpus, aliases, ip2as, rels, opt.threads), rels, opt);
}

Result Bdrmapit::annotate_and_package(graph::Graph graph, const asrel::RelStore& rels,
                                      AnnotatorOptions opt) {
  Result r;
  r.graph = std::move(graph);
  Annotator ann(r.graph, rels, opt);
  ann.run();
  r.iterations = ann.iterations();
  r.iteration_stats = ann.iteration_stats();

  r.interfaces.reserve(r.graph.interfaces().size());
  for (const auto& f : r.graph.interfaces())
    r.interfaces.push_back(
        {f.addr, static_cast<std::uint32_t>(f.ir),
         {r.graph.irs()[static_cast<std::size_t>(f.ir)].annotation, f.annotation,
          f.origin.is_ixp(), f.seen_non_echo, f.seen_mid_path}});
  sort_by_addr(r.interfaces);
  return r;
}

void sort_by_addr(std::vector<IfaceRecord>& table) {
  std::ranges::sort(table, {}, &IfaceRecord::addr);
}

std::vector<std::pair<netbase::Asn, netbase::Asn>> Result::as_links() const {
  std::vector<std::pair<netbase::Asn, netbase::Asn>> out;
  for (const IfaceRecord& rec : interfaces) {
    if (!rec.inf.interdomain()) continue;
    auto p = std::minmax(rec.inf.router_as, rec.inf.conn_as);
    out.emplace_back(p.first, p.second);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace core
