// serve/store.hpp — in-memory query engine over a loaded snapshot.
//
// AnnotationStore is a thin view over the Snapshot it owns. The
// snapshot's interface table is sorted by address and its AS links are
// sorted and deduplicated (validate_snapshot checks both), so lookups
// are binary searches over those arrays:
//
//   * find / find_batch: lower_bound over the interface table;
//   * find_under: the contiguous run of the table a CIDR covers;
//   * router_members: one array of table positions sorted by
//     (router_id, position), so a router's aliases are one run;
//   * links_of / iface_count_of: one AS table sorted by ASN whose rows
//     hold CSR offsets into one flat array of links grouped by AS.
//
// Results are pointers and spans into the store's own arrays; they stay
// valid for the store's lifetime, and no lookup allocates. On an image
// that violates the invariants (the raw constructor does not check)
// answers may be wrong, but every lookup stays in bounds.
//
// A store is immutable once built. Live serving wraps it in a
// StoreHandle (bottom of this header): an RCU-style publication point
// that lets a reload driver atomically swap in a freshly loaded and
// audited snapshot while in-flight queries finish on the generation
// they started with.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/thread_annotations.hpp"
#include "netbase/asn.hpp"
#include "netbase/ip_addr.hpp"
#include "netbase/prefix.hpp"
#include "serve/snapshot.hpp"

namespace serve {

/// Aggregate numbers for the STATS reply.
struct StoreStats {
  std::uint64_t interfaces = 0;
  std::uint64_t routers = 0;
  std::uint64_t border_interfaces = 0;  ///< interdomain() true
  std::uint64_t as_links = 0;
  std::uint64_t ases = 0;  ///< distinct operating ASes
  std::uint32_t iterations = 0;
};

class AnnotationStore {
 public:
  using AsLink = std::pair<netbase::Asn, netbase::Asn>;

  /// Takes ownership of the snapshot and builds the router and AS
  /// indexes. Performs no validation — callers that ingest untrusted
  /// snapshots should go through open().
  explicit AnnotationStore(Snapshot snap);

  /// Audited construction: runs serve::validate_snapshot over the image
  /// (sharded across `threads` executors, <= 0: auto) and refuses to
  /// build a store over a violating snapshot — returns nullptr with
  /// every violation appended to `*issues` (when non-null). A CRC check
  /// only proves the file is the one that was written; this gate proves
  /// it is one the pipeline could have written, which the lookups rely
  /// on for correct answers.
  static std::unique_ptr<AnnotationStore> open(Snapshot snap, int threads = 1,
                                               std::vector<SnapshotIssue>* issues = nullptr);

  AnnotationStore(const AnnotationStore&) = delete;
  AnnotationStore& operator=(const AnnotationStore&) = delete;

  /// Exact-interface lookup; nullptr if the address was never observed.
  const SnapshotIface* find(const netbase::IPAddr& addr) const noexcept;

  /// Batched exact lookup into a caller-provided array of `n` slots:
  /// out[i] answers addrs[i] (nullptr on miss). The BULK reply path and
  /// the text IFACE hot path answer through this with per-thread scratch.
  void find_batch(const netbase::IPAddr* addrs, std::size_t n,
                  const SnapshotIface** out) const noexcept;

  /// All interfaces inside `cidr`, in ascending address order.
  std::span<const SnapshotIface> find_under(const netbase::Prefix& cidr) const noexcept;

  /// Positions in snapshot().interfaces of every interface on router
  /// `router_id`, ascending (so in address order). Empty if none.
  std::span<const std::uint32_t> router_members(std::uint32_t router_id) const noexcept;

  /// Interdomain links involving `asn` (smaller ASN first in each pair),
  /// ascending. Empty if the AS appears in none.
  std::span<const AsLink> links_of(netbase::Asn asn) const noexcept;

  /// Number of observed interfaces operated by `asn` (router_as == asn).
  std::uint64_t iface_count_of(netbase::Asn asn) const noexcept;

  StoreStats stats() const noexcept { return stats_; }
  const Snapshot& snapshot() const noexcept { return snap_; }

 private:
  /// One AS: its interface count and its run [links_begin, links_end)
  /// of links_.
  struct AsRow {
    netbase::Asn asn = netbase::kNoAs;
    std::uint64_t ifaces = 0;
    std::size_t links_begin = 0;
    std::size_t links_end = 0;
  };

  Snapshot snap_;
  std::vector<std::uint32_t> by_router_;  ///< table positions by (router_id, position)
  std::vector<AsRow> as_rows_;            ///< sorted by ASN
  std::vector<AsLink> links_;             ///< each AS's links, grouped by as_rows_
  StoreStats stats_;
};

/// RCU-style publication point for hot snapshot reload.
///
/// A StoreHandle owns the *current generation* of the annotation map:
/// an immutable AnnotationStore behind a shared_ptr. Query paths call
/// acquire() once per request, pinning the generation they started on
/// — a shared_ptr copy is one atomic refcount increment, no heap
/// allocation, so the indirection preserves the zero-allocation reply
/// contract. publish() atomically swaps in a freshly built store and
/// bumps the generation counter; readers that acquired the old
/// generation keep it alive until their request finishes, after which
/// the last refcount drop frees it. Nothing ever blocks a reader on a
/// writer beyond the brief pointer-swap critical section.
///
/// The swap point is an annotated core::Mutex (not a lock-free
/// atomic<shared_ptr>) so the contract is enforced by the compile-time
/// capability analysis like every other piece of shared serve state.
class StoreHandle {
 public:
  using StoreRef = std::shared_ptr<const AnnotationStore>;

  /// Takes the initial generation (generation 1). `initial` must be
  /// non-null: a handle always has a servable store.
  explicit StoreHandle(StoreRef initial);

  StoreHandle(const StoreHandle&) = delete;
  StoreHandle& operator=(const StoreHandle&) = delete;

  /// Pins the current generation for one request. The returned ref
  /// stays valid (and its answers self-consistent) for as long as the
  /// caller holds it, regardless of concurrent publishes.
  StoreRef acquire() const BDRMAPIT_EXCLUDES(mu_);

  /// Atomically publishes `next` (non-null) as the new current
  /// generation; in-flight requests finish on the generation they
  /// acquired. Returns the new generation number.
  std::uint64_t publish(StoreRef next) BDRMAPIT_EXCLUDES(mu_);

  /// The current generation number (1-based, bumped by each publish).
  std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  mutable core::Mutex mu_;
  StoreRef current_ BDRMAPIT_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> generation_{1};
};

}  // namespace serve
