// eval/experiment.hpp — shared scaffolding for the §7 experiments.
//
// A Scenario bundles everything one evaluation run needs: the synthetic
// Internet, the exported BGP/RIR/IXP views combined into an Ip2AS map,
// the AS relationships the algorithm consumes (the simulator's own,
// round-tripped through CAIDA's serial-1 format, as the paper consumes
// the published dataset), the VPs, the traceroute corpus, per-address
// visibility, and the ground truth used only for scoring.

#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "asrel/infer.hpp"
#include "bgp/ip2as.hpp"
#include "core/bdrmapit.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "topo/alias_sim.hpp"
#include "topo/internet.hpp"
#include "topo/tracer.hpp"
#include "tracedata/alias.hpp"

namespace eval {

struct Scenario {
  topo::Internet net;
  bgp::Ip2AS ip2as;
  asrel::RelStore rels;  ///< relationships the algorithm consumes
  GroundTruth gt;
  std::vector<topo::VantagePoint> vps;
  std::vector<tracedata::Traceroute> corpus;
  Visibility vis;
};

/// Internet-wide scenario (§7.2 style): `n_vps` VPs, excluding the four
/// validation networks when `exclude_validation` (the paper removes VPs
/// inside validating networks).
Scenario make_scenario(const topo::SimParams& params, std::size_t n_vps,
                       bool exclude_validation, std::uint64_t seed);

/// Single-VP scenario (§7.1 style): one VP inside `as_idx`.
Scenario make_single_vp_scenario(const topo::SimParams& params, int as_idx,
                                 std::uint64_t seed);

/// asrel::Inferencer over the Internet's own RIB paths: the relationship-
/// quality ablation's alternative to a scenario's published store.
/// Collector-invisible peerings make it strictly noisier, as for any
/// path-limited inference.
asrel::RelStore inferred_relationships(const topo::Internet& net);

/// The four validation networks with paper-style labels.
std::vector<std::pair<std::string, netbase::Asn>> validation_networks(
    const topo::Internet& net);

/// Subset of a corpus restricted to the named VPs.
std::vector<tracedata::Traceroute> filter_by_vps(
    const std::vector<tracedata::Traceroute>& corpus,
    const std::vector<topo::VantagePoint>& vps);

/// MIDAR-like alias sets for a scenario (the default §7.2 input).
tracedata::AliasSets midar_aliases(const Scenario& s, std::uint64_t seed = 7);

/// kapar-like alias sets (the §7.4 comparison input).
tracedata::AliasSets kapar_aliases(const Scenario& s, std::uint64_t seed = 7);

/// Addresses on IRs with multiple aliases in a result graph (Fig. 20's
/// "multiple alias IRs" restriction).
std::unordered_set<netbase::IPAddr> multi_alias_addresses(const core::Result& r);

}  // namespace eval
