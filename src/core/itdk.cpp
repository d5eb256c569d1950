#include "core/itdk.hpp"

#include <ostream>

namespace core {

std::vector<ItdkNode> itdk_nodes(const Result& result) {
  std::vector<ItdkNode> out;
  out.reserve(result.graph.irs().size());
  for (const auto& ir : result.graph.irs()) {
    ItdkNode node;
    node.node_id = ir.id + 1;
    node.asn = ir.annotation;
    node.method = ir.annotation == netbase::kNoAs ? "unknown"
                  : ir.last_hop                   ? "last-hop"
                                                  : "refinement";
    out.push_back(std::move(node));
  }
  // The address-sorted table hands every node its members in order.
  for (const IfaceRecord& rec : result.interfaces) out[rec.router_id].addrs.push_back(rec.addr);
  return out;
}

void write_itdk_nodes(std::ostream& out, const std::vector<ItdkNode>& nodes) {
  out << "# ITDK-style nodes file: node N<id>:  <addr> <addr> ...\n";
  for (const auto& n : nodes) {
    out << "node N" << n.node_id << ": ";
    for (const auto& a : n.addrs) out << ' ' << a.to_string();
    out << '\n';
  }
}

void write_itdk_nodes_as(std::ostream& out, const std::vector<ItdkNode>& nodes) {
  out << "# ITDK-style nodes.as file: node.AS N<id> <asn> <method>\n";
  for (const auto& n : nodes) {
    if (n.asn == netbase::kNoAs) continue;  // unmapped routers are omitted
    out << "node.AS N" << n.node_id << ' ' << n.asn << ' ' << n.method << '\n';
  }
}

}  // namespace core
