// audit/invariants.hpp — structural invariant auditor for bdrmapIT.
//
// The paper's graph-construction and refinement phases (§4–§6) promise
// a set of structural invariants: the interface→IR assignment is a
// total, disjoint partition; link confidence labels are one of
// {Nexthop, Echo, Multihop}; the L(IRi,j) origin sets and every other
// AS set are duplicate-free; interface origin labels agree with the
// IP→AS map; the §4.4 reallocated-prefix correction has actually been
// applied; and refinement ends at an annotation fixed point (one more
// Jacobi sweep changes nothing). The auditor walks a built `Graph`
// (and, post-refinement, a `Result` or `Snapshot`) and reports every
// violation with a stable check name — `bdrmapit_cli --audit` prints
// them, Debug/sanitizer builds run them automatically after each
// pipeline stage, and audit_test proves each class is detectable.
//
// Checks are read-only except audit_fixed_point, which re-runs one
// refinement sweep on a private copy of the graph.
//
// Every scan is sharded across the process-wide thread pool
// (src/parallel/): per-shard violation buffers are merged in
// shard-then-index order, so the violation report is byte-identical
// for every `threads` value — `threads <= 0` means hardware
// concurrency, 1 runs inline with no synchronization. Cross-element
// tallies (partition membership, link back-reference counts) are
// per-shard count vectors merged by addition before the per-index
// check pass. Empty graphs, results, and snapshots audit cleanly.

#pragma once

#include <string>
#include <vector>

#include "bgp/ip2as.hpp"
#include "core/bdrmapit.hpp"
#include "graph/graph.hpp"
#include "serve/snapshot.hpp"

namespace audit {

/// One failed invariant. `check` is a stable dotted name (e.g.
/// "ir.partition-disjoint"); `detail` pinpoints the offending entity.
struct Violation {
  std::string check;
  std::string detail;
};

/// Pipeline stage an audit ran after, for stage-labeled reporting.
enum class Stage { graph_built, refined };

/// Structural invariants of a built graph (§4): id/index agreement,
/// the interface→IR partition (total and disjoint), link endpoint and
/// back-reference consistency, label range, sorted sets, last-hop flags.
std::vector<Violation> audit_graph(const graph::Graph& g, int threads = 1);

/// Interface origin labels against the IP→AS map (§4.1): every
/// interface's stored origin must equal a fresh `ip2as.lookup`.
std::vector<Violation> audit_origins(const graph::Graph& g, const bgp::Ip2AS& ip2as,
                                     int threads = 1);

/// §4.4 reallocated-prefix correction postcondition: no interface may
/// still carry the exact two-destination pattern the correction removes.
std::vector<Violation> audit_reallocated(const graph::Graph& g,
                                         const asrel::RelStore& rels,
                                         int threads = 1);

/// Refinement fixed point (§6.3): one more Jacobi sweep over a copy of
/// the annotated graph must change no IR or interface annotation.
/// Flags stale state — e.g. a sweep that read its own in-progress
/// iteration, or annotations mutated after the run. The re-sweep and
/// the comparison scans both use opt.threads.
std::vector<Violation> audit_fixed_point(const graph::Graph& g,
                                         const asrel::RelStore& rels,
                                         core::AnnotatorOptions opt);

/// Result-level consistency: the interface table is strictly sorted by
/// address and mirrors the graph's interfaces and annotations record
/// for record, iteration stats match the iteration count, and
/// as_links() is sorted, deduplicated, and normalized (a <= b).
std::vector<Violation> audit_result(const core::Result& r, int threads = 1);

/// Snapshot image invariants (serve::validate_snapshot rendered as
/// audit violations): interfaces sorted by address and unique, AS links
/// sorted/deduped/normalized with no dangling AS, router ids within
/// router_count, router_count within the interface count.
std::vector<Violation> audit_snapshot(const serve::Snapshot& s, int threads = 1);

/// Every post-refinement audit applicable to a completed run. All
/// scans shard across opt.threads executors.
std::vector<Violation> audit_all(const core::Result& r, const bgp::Ip2AS& ip2as,
                                 const asrel::RelStore& rels,
                                 core::AnnotatorOptions opt);

/// `core::Bdrmapit::run` with audits after each pipeline stage: the
/// structural and origin checks after Graph::build, the full set after
/// refinement. Violations are appended to `*out` tagged with the stage.
core::Result audited_run(const std::vector<tracedata::Traceroute>& corpus,
                         const tracedata::AliasSets& aliases,
                         const bgp::Ip2AS& ip2as, const asrel::RelStore& rels,
                         core::AnnotatorOptions opt,
                         std::vector<std::pair<Stage, Violation>>* out);

/// Human-readable stage label ("graph-built" / "refined").
const char* stage_name(Stage s) noexcept;

}  // namespace audit
