// tests/audit_corruptions.hpp — shared fixtures for the auditor tests.
//
// The small-but-complete Pipeline scenario, the report helpers, and a
// named matrix of graph/result/snapshot corruptions, each paired with
// the audit check it must trigger. audit_test proves each corruption is
// detected; audit_parallel_test proves the violation report for each is
// byte-identical at every thread count.

#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "audit/invariants.hpp"
#include "core/bdrmapit.hpp"
#include "graph/graph.hpp"
#include "serve/snapshot.hpp"
#include "test_util.hpp"

namespace audit_fixtures {

// A small but complete scenario: two origin ASes, a provider, an IXP
// hop, aliases, and enough destinations to populate every AS set.
struct Pipeline {
  bgp::Ip2AS ip2as = testutil::make_ip2as(
      {{"20.1.0.0/16", 1}, {"20.2.0.0/16", 2}, {"20.3.0.0/16", 3},
       {"20.4.0.0/16", 4}},
      {"20.9.0.0/24"});
  asrel::RelStore rels = testutil::make_rels({"1>2", "1>3", "2~3", "1>4"});
  std::vector<tracedata::Traceroute> corpus{
      testutil::tr("vp", "20.3.0.9",
                   {{1, "20.1.0.1", 'T'}, {2, "20.2.0.1", 'T'}, {3, "20.3.0.9", 'E'}}),
      testutil::tr("vp", "20.2.0.9",
                   {{1, "20.1.0.1", 'T'}, {2, "20.9.0.5", 'T'}, {3, "20.2.0.9", 'E'}}),
      testutil::tr("vp", "20.4.0.9",
                   {{1, "20.1.0.2", 'T'}, {2, "20.4.0.1", 'T'}, {4, "20.4.0.9", 'E'}}),
  };
  tracedata::AliasSets aliases;
  core::AnnotatorOptions opt;

  Pipeline() {
    aliases.add({netbase::IPAddr::must_parse("20.1.0.1"),
                 netbase::IPAddr::must_parse("20.1.0.2")});
  }

  core::Result run() const {
    return core::Bdrmapit::run(corpus, aliases, ip2as, rels, opt);
  }
};

inline bool has_check(const std::vector<audit::Violation>& vs,
                      const std::string& check) {
  return std::any_of(vs.begin(), vs.end(), [&](const audit::Violation& v) {
    return v.check == check;
  });
}

inline std::string checks_of(const std::vector<audit::Violation>& vs) {
  std::string out;
  for (const auto& v : vs) {
    out += v.check;
    out += " (";
    out += v.detail;
    out += "); ";
  }
  return out;
}

/// One deliberate corruption of a completed run, with the check that
/// must flag it. `apply` mutates a freshly-run Result in place.
struct Corruption {
  const char* name;
  const char* check;
  std::function<void(core::Result&)> apply;
};

inline std::vector<Corruption> corruption_matrix() {
  return {
      {"bad-link-label", "link.label-range",
       [](core::Result& r) {
         r.graph.links()[0].label = static_cast<graph::LinkLabel>(7);
       }},
      {"dup-link-origin", "link.origin-set-dedup",
       [](core::Result& r) {
         for (auto& l : r.graph.links())
           if (!l.origin_set.empty()) {
             l.origin_set.push_back(l.origin_set.front());
             return;
           }
       }},
      {"foreign-link-origin", "link.origin-set-member",
       [](core::Result& r) { r.graph.links()[0].origin_set.push_back(64999); }},
      {"partition-not-total", "ir.partition-total",
       [](core::Result& r) {
         r.graph.interfaces()[0].ir = static_cast<int>(r.graph.irs().size()) + 5;
       }},
      {"partition-not-disjoint", "ir.partition-disjoint",
       [](core::Result& r) {
         r.graph.irs()[1].ifaces.push_back(r.graph.irs()[0].ifaces.front());
       }},
      {"last-hop-flag", "ir.last-hop-flag",
       [](core::Result& r) {
         for (auto& ir : r.graph.irs())
           if (!ir.out_links.empty()) {
             ir.last_hop = true;
             return;
           }
       }},
      {"dup-iface-dests", "iface.dest-set-dedup",
       [](core::Result& r) {
         for (auto& f : r.graph.interfaces())
           if (!f.dest_asns.empty()) {
             f.dest_asns.push_back(f.dest_asns.front());
             return;
           }
       }},
      {"set-unsorted", "iface.dest-set-dedup",
       [](core::Result& r) {
         // Still duplicate-free, but out of order.
         for (auto& f : r.graph.interfaces())
           if (f.dest_asns.size() >= 2) {
             std::swap(f.dest_asns[0], f.dest_asns[1]);
             return;
           }
       }},
      {"broken-out-backref", "ir.out-links-backref",
       [](core::Result& r) {
         for (auto& ir : r.graph.irs())
           if (!ir.out_links.empty()) {
             ir.out_links.push_back(ir.out_links.front());
             return;
           }
       }},
      {"result-divergence", "result.iface-consistency",
       [](core::Result& r) { r.interfaces.front().inf.router_as = 64999; }},
      {"result-unsorted", "result.iface-sorted",
       [](core::Result& r) { std::swap(r.interfaces.front(), r.interfaces.back()); }},
      {"iteration-stats", "result.iteration-stats",
       [](core::Result& r) { r.iteration_stats.pop_back(); }},
  };
}

/// One deliberate corruption of a snapshot image (the kind the header
/// CRC cannot catch), with the check that must flag it.
struct SnapshotCorruption {
  const char* name;
  const char* check;
  std::function<void(serve::Snapshot&)> apply;
};

inline std::vector<SnapshotCorruption> snapshot_corruption_matrix() {
  return {
      {"unsorted-ifaces", "snapshot.iface-sorted",
       [](serve::Snapshot& s) {
         std::swap(s.interfaces.front(), s.interfaces.back());
       }},
      {"router-id-range", "snapshot.router-id-range",
       [](serve::Snapshot& s) {
         s.interfaces.front().router_id =
             static_cast<std::uint32_t>(s.router_count) + 1;
       }},
      {"router-count", "snapshot.router-count",
       [](serve::Snapshot& s) { s.router_count = s.interfaces.size() + 7; }},
      {"reversed-as-link", "snapshot.as-links-canonical",
       [](serve::Snapshot& s) {
         std::swap(s.as_links.front().first, s.as_links.front().second);
       }},
      {"dangling-as-link", "snapshot.as-link-member",
       [](serve::Snapshot& s) { s.as_links.push_back({4200000000u, 4200000001u}); }},
      {"iteration-stats", "snapshot.iteration-stats",
       [](serve::Snapshot& s) { s.iteration_stats.pop_back(); }},
  };
}

}  // namespace audit_fixtures
