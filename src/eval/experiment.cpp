#include "eval/experiment.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "asrel/serial1.hpp"

namespace eval {
namespace {

Scenario finish_scenario(topo::Internet net, std::vector<topo::VantagePoint> vps,
                         std::uint64_t seed) {
  const bgp::Rib rib = net.rib();
  const auto delegations = net.delegations();
  const auto ixp_prefixes = net.ixp_prefixes();

  // Round-trip through the real serial-1 file format, exactly as the
  // paper's pipeline reads CAIDA's published relationship dataset.
  asrel::RelStore rels;
  std::stringstream file;
  asrel::write_serial1(file, net.relationships());
  asrel::load_serial1(file, rels);
  rels.finalize();

  topo::Tracer tracer(net);
  auto corpus = tracer.campaign(vps, seed);

  Visibility vis = observe(corpus);
  GroundTruth gt(net);

  return Scenario{std::move(net),
                  bgp::Ip2AS::build(rib, delegations, ixp_prefixes),
                  std::move(rels),
                  std::move(gt),
                  std::move(vps),
                  std::move(corpus),
                  std::move(vis)};
}

}  // namespace

Scenario make_scenario(const topo::SimParams& params, std::size_t n_vps,
                       bool exclude_validation, std::uint64_t seed) {
  topo::Internet net = topo::Internet::generate(params);
  std::vector<int> exclude;
  if (exclude_validation)
    exclude = {net.tier1_gt(), net.large_access_gt(), net.re1_gt(), net.re2_gt()};
  auto vps = topo::Tracer::make_vps(net, n_vps, exclude, seed);
  return finish_scenario(std::move(net), std::move(vps), seed);
}

Scenario make_single_vp_scenario(const topo::SimParams& params, int as_idx,
                                 std::uint64_t seed) {
  topo::Internet net = topo::Internet::generate(params);
  std::vector<topo::VantagePoint> vps{topo::Tracer::vp_in_as(net, as_idx)};
  return finish_scenario(std::move(net), std::move(vps), seed);
}

asrel::RelStore inferred_relationships(const topo::Internet& net) {
  asrel::Inferencer inferencer;
  for (const auto& path : net.rib().paths()) inferencer.add_path(path);
  return inferencer.infer();
}

std::vector<std::pair<std::string, netbase::Asn>> validation_networks(
    const topo::Internet& net) {
  auto asn = [&](int idx) {
    return net.ases()[static_cast<std::size_t>(idx)].asn;
  };
  return {{"Tier 1", asn(net.tier1_gt())},
          {"L Access", asn(net.large_access_gt())},
          {"R&E 1", asn(net.re1_gt())},
          {"R&E 2", asn(net.re2_gt())}};
}

std::vector<tracedata::Traceroute> filter_by_vps(
    const std::vector<tracedata::Traceroute>& corpus,
    const std::vector<topo::VantagePoint>& vps) {
  std::unordered_set<std::string> names;
  for (const auto& vp : vps) names.insert(vp.name);
  std::vector<tracedata::Traceroute> out;
  for (const auto& t : corpus)
    if (names.contains(t.vp)) out.push_back(t);
  return out;
}

tracedata::AliasSets midar_aliases(const Scenario& s, std::uint64_t seed) {
  topo::AliasSimulator sim(s.net, s.corpus);
  topo::AliasOptions opt;
  opt.seed = seed;
  return sim.midar_like(opt);
}

tracedata::AliasSets kapar_aliases(const Scenario& s, std::uint64_t seed) {
  topo::AliasSimulator sim(s.net, s.corpus);
  topo::AliasOptions opt;
  opt.seed = seed;
  return sim.kapar_like(opt);
}

std::unordered_set<netbase::IPAddr> multi_alias_addresses(const core::Result& r) {
  std::unordered_set<netbase::IPAddr> out;
  for (const auto& ir : r.graph.irs()) {
    if (ir.ifaces.size() < 2) continue;
    for (int fid : ir.ifaces)
      out.insert(r.graph.interfaces()[static_cast<std::size_t>(fid)].addr);
  }
  return out;
}

}  // namespace eval
