#include "serve/store.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <utility>

#include "core/failpoint.hpp"
#include "core/thread_annotations.hpp"

namespace serve {

namespace {

/// The row for `asn` in an ASN-sorted table, or nullptr if it has none.
template <class Row>
const Row* row_in(const std::vector<Row>& rows, netbase::Asn asn) noexcept {
  const auto it = std::ranges::lower_bound(rows, asn, {}, &Row::asn);
  return it != rows.end() && it->asn == asn ? &*it : nullptr;
}

}  // namespace

AnnotationStore::AnnotationStore(Snapshot snap) : snap_(std::move(snap)) {
  const std::vector<SnapshotIface>& table = snap_.interfaces;

  // Router index: sorting (router_id, position) keys makes each
  // router's positions one ascending run; only the position is kept.
  std::vector<std::uint64_t> keys(table.size());
  for (std::size_t i = 0; i < table.size(); ++i)
    keys[i] = std::uint64_t{table[i].router_id} << 32 | i;
  std::sort(keys.begin(), keys.end());
  by_router_.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    by_router_[i] = static_cast<std::uint32_t>(keys[i]);

  // AS table: sorting (asn, tag) keys groups each AS's interfaces
  // (tag 0) ahead of its links (tag 1 + the link's index, so in
  // as_links order); one pass then lays out the rows and, CSR-style,
  // each row's run of links_.
  const auto& links = snap_.as_links;
  std::vector<std::uint64_t> ends;
  ends.reserve(table.size() + 2 * links.size());
  for (const SnapshotIface& rec : table) {
    ends.push_back(std::uint64_t{rec.inf.router_as} << 32);
    if (rec.inf.interdomain()) ++stats_.border_interfaces;
  }
  for (std::size_t i = 0; i < links.size(); ++i) {
    const std::uint64_t tag = static_cast<std::uint32_t>(i + 1);
    ends.push_back(std::uint64_t{links[i].first} << 32 | tag);
    ends.push_back(std::uint64_t{links[i].second} << 32 | tag);
  }
  std::sort(ends.begin(), ends.end());
  links_.reserve(2 * links.size());
  for (const std::uint64_t end : ends) {
    const auto asn = static_cast<netbase::Asn>(end >> 32);
    if (as_rows_.empty() || as_rows_.back().asn != asn)
      as_rows_.push_back({asn, 0, links_.size(), links_.size()});
    AsRow& row = as_rows_.back();
    if (const auto tag = static_cast<std::uint32_t>(end); tag == 0) {
      ++row.ifaces;
    } else {
      links_.push_back(links[tag - 1]);
      row.links_end = links_.size();
    }
  }

  stats_.interfaces = table.size();
  stats_.routers = snap_.router_count;
  stats_.as_links = snap_.as_links.size();
  stats_.iterations = snap_.iterations;
  for (const AsRow& row : as_rows_)
    if (row.asn != netbase::kNoAs && row.ifaces > 0) ++stats_.ases;
}

std::unique_ptr<AnnotationStore> AnnotationStore::open(
    Snapshot snap, int threads, std::vector<SnapshotIssue>* issues) {
  std::vector<SnapshotIssue> found = validate_snapshot(snap, threads);
  // "serve.store.open" simulates an audit rejection: the injected issue
  // takes the same nullptr return as a genuinely corrupt snapshot, so
  // reload drivers see the real path.
  if (BDRMAPIT_FAILPOINT("serve.store.open"))
    found.push_back({"failpoint.store-open",
                     "injected audit violation (failpoint serve.store.open)"});
  if (found.empty()) return std::make_unique<AnnotationStore>(std::move(snap));
  if (issues)
    issues->insert(issues->end(), std::make_move_iterator(found.begin()),
                   std::make_move_iterator(found.end()));
  return nullptr;
}

const SnapshotIface* AnnotationStore::find(
    const netbase::IPAddr& addr) const noexcept {
  return core::find_iface(snap_.interfaces, addr);
}

void AnnotationStore::find_batch(const netbase::IPAddr* addrs, std::size_t n,
                                 const SnapshotIface** out) const noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = find(addrs[i]);
}

std::span<const SnapshotIface> AnnotationStore::find_under(
    const netbase::Prefix& cidr) const noexcept {
  // A prefix covers one contiguous run of the address-sorted table,
  // starting at the prefix's network address.
  const auto& table = snap_.interfaces;
  const auto lo = std::ranges::lower_bound(table, cidr.addr(), {}, &SnapshotIface::addr);
  const auto hi = std::partition_point(
      lo, table.end(), [&cidr](const SnapshotIface& rec) { return cidr.contains(rec.addr); });
  return {lo, hi};
}

std::span<const std::uint32_t> AnnotationStore::router_members(
    std::uint32_t router_id) const noexcept {
  const auto& table = snap_.interfaces;
  const auto run = std::ranges::equal_range(
      by_router_, router_id, {}, [&table](std::uint32_t pos) { return table[pos].router_id; });
  return {run.begin(), run.end()};
}

std::span<const AnnotationStore::AsLink> AnnotationStore::links_of(
    netbase::Asn asn) const noexcept {
  const AsRow* row = row_in(as_rows_, asn);
  if (!row) return {};
  return {links_.data() + row->links_begin, row->links_end - row->links_begin};
}

std::uint64_t AnnotationStore::iface_count_of(netbase::Asn asn) const noexcept {
  const AsRow* row = row_in(as_rows_, asn);
  return row ? row->ifaces : 0;
}

StoreHandle::StoreHandle(StoreRef initial) : current_(std::move(initial)) {
  if (!current_) std::abort();  // a handle always has a servable store
}

StoreHandle::StoreRef StoreHandle::acquire() const {
  const core::MutexLock lock(mu_);
  return current_;  // refcount bump only; no allocation
}

std::uint64_t StoreHandle::publish(StoreRef next) {
  if (!next) std::abort();  // publishing "nothing" would strand readers
  StoreRef retired;  // destroy the old generation outside the lock
  std::uint64_t gen = 0;
  {
    const core::MutexLock lock(mu_);
    retired = std::move(current_);
    current_ = std::move(next);
    gen = generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  return gen;
}

}  // namespace serve
