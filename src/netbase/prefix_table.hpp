// netbase/prefix_table.hpp — build-once longest-prefix match over a fixed
// set of IPv4/IPv6 prefixes.
//
// Construction flattens the (possibly nested) prefixes into sorted,
// disjoint address intervals, each labelled with the longest prefix
// covering it. A lookup is one binary search over the interval starts;
// the interval's prefix must also contain the address, so addresses in
// the gaps between prefixes, and addresses of a family that has no
// prefixes, miss without sentinel entries.
//
// This backs bgp::Ip2AS (paper §4.1) and the simulator's block-owner
// lookups, both of which build their prefix set once and then only
// query it.

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "netbase/ip_addr.hpp"
#include "netbase/prefix.hpp"

namespace netbase {

/// Immutable longest-prefix-match map Prefix -> V.
template <typename V>
class PrefixTable {
 public:
  /// A lookup hit: the longest matching prefix and its value.
  struct Match {
    Prefix prefix;
    V value;
  };

  PrefixTable() = default;

  /// Builds the table. A prefix listed more than once keeps its last
  /// value, as repeated map assignment would.
  explicit PrefixTable(std::vector<std::pair<Prefix, V>> entries) {
    // Sorted by (address, length), each prefix comes after every prefix
    // containing it, so the open prefixes always form one nested chain.
    // Stable, so a repeated prefix is emitted last at its start.
    std::stable_sort(entries.begin(), entries.end(),
                     [](const auto& x, const auto& y) { return x.first < y.first; });
    std::vector<const std::pair<Prefix, V>*> open;
    for (const auto& e : entries) {
      while (!open.empty() && !open.back()->first.contains(e.first)) close(open);
      open.push_back(&e);
      emit(key_of(e.first.addr()), e);
    }
    while (!open.empty()) close(open);
  }

  /// Longest-prefix match for `a`; nullptr if no prefix covers it.
  const Match* lookup(const IPAddr& a) const noexcept {
    const auto it = std::upper_bound(starts_.begin(), starts_.end(), key_of(a));
    if (it == starts_.begin()) return nullptr;
    const Match& m = matches_[static_cast<std::size_t>(it - starts_.begin() - 1)];
    return m.prefix.contains(a) ? &m : nullptr;
  }

 private:
  // An address as a sort key: family first (v4 before v6, as IPAddr
  // orders them), then its bits as one 128-bit number, so a comparison
  // is a few integer compares instead of a byte-array compare.
  struct Key {
    bool v6 = false;
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  static Key key_of(const IPAddr& a) noexcept {
    const auto& b = a.raw();
    Key k{a.is_v6()};
    for (std::size_t i = 0; i < 8; ++i) {
      k.hi = k.hi << 8 | b[i];
      k.lo = k.lo << 8 | b[i + 8];
    }
    return k;
  }

  // The key just past `p`; nullopt when `p` ends its family's space.
  static std::optional<Key> after(const Prefix& p) noexcept {
    if (p.length() == 0) return std::nullopt;
    Key k = key_of(p.addr());
    // Add one at bit length-1 of hi:lo. Host bits are zero, so a word
    // that carries out wraps to exactly 0; a v4 address fills the top
    // of hi, so both families carry out of hi at their end.
    const int bit = p.length() - 1;
    if (bit >= 64) {
      k.lo += std::uint64_t{1} << (127 - bit);
      if (k.lo != 0) return k;
      k.hi += 1;
    } else {
      k.hi += std::uint64_t{1} << (63 - bit);
    }
    if (k.hi == 0) return std::nullopt;
    return k;
  }

  // Pops the innermost open prefix and labels the addresses after it
  // with the prefix around it. Where that one ends at the same address,
  // the label is harmless: the next close emits a later label at the
  // same start, or lookups reject it by containment.
  void close(std::vector<const std::pair<Prefix, V>*>& open) {
    const Prefix done = open.back()->first;
    open.pop_back();
    if (const auto next = after(done); next && !open.empty()) emit(*next, *open.back());
  }

  void emit(const Key& start, const std::pair<Prefix, V>& e) {
    starts_.push_back(start);
    matches_.push_back(Match{e.first, e.second});
  }

  // Ascending; of equal starts, lookups see the last. matches_[i]
  // labels the interval from starts_[i] up to the next start.
  std::vector<Key> starts_;
  std::vector<Match> matches_;
};

}  // namespace netbase
