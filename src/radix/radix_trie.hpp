// radix/radix_trie.hpp — binary path-compressed trie for longest-prefix
// match over IPv4/IPv6 prefixes.
//
// This is the lookup structure behind bgp::Ip2AS: every interface address
// seen in a traceroute is resolved to its origin AS via the longest
// matching prefix among BGP announcements, RIR delegations, and IXP
// prefixes (paper §4.1). The trie keeps one compressed root per address
// family, supports insert / exact erase / exact find / longest match /
// all-matches, and visits entries in no particular order.
//
// Complexity: all operations walk at most `bits` nodes (32 for v4, 128
// for v6); path compression keeps the walk proportional to the number of
// branch points actually present.

#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "netbase/ip_addr.hpp"
#include "netbase/prefix.hpp"

namespace radix {

/// Path-compressed binary trie mapping Prefix -> V.
template <typename V>
class RadixTrie {
 public:
  RadixTrie() = default;

  RadixTrie(const RadixTrie&) = delete;
  RadixTrie& operator=(const RadixTrie&) = delete;
  RadixTrie(RadixTrie&&) noexcept = default;
  RadixTrie& operator=(RadixTrie&&) noexcept = default;

  /// Inserts or replaces the value for `p`. Returns a reference to the
  /// stored value.
  V& insert(const netbase::Prefix& p, V value) {
    Node* n = insert_node(p);
    if (!n->value) ++size_;
    n->value = std::move(value);
    return *n->value;
  }

  /// Inserts a default-constructed value if `p` is absent; returns the
  /// stored value either way (map-like operator[] semantics).
  V& operator[](const netbase::Prefix& p) {
    Node* n = insert_node(p);
    if (!n->value) {
      n->value.emplace();
      ++size_;
    }
    return *n->value;
  }

  /// Exact-match lookup.
  const V* find(const netbase::Prefix& p) const noexcept {
    const Node* n = root_for(p.family());
    while (n) {
      if (!p.addr().matches(n->prefix.addr(), n->prefix.length()) ||
          n->prefix.length() > p.length())
        return nullptr;
      if (n->prefix.length() == p.length() && n->prefix == p)
        return n->value ? &*n->value : nullptr;
      n = n->child[p.addr().bit(n->prefix.length())].get();
    }
    return nullptr;
  }

  /// Removes the exact prefix `p`. Returns true if it was present.
  /// (Structural nodes are left in place; lookups remain correct.)
  bool erase(const netbase::Prefix& p) noexcept {
    Node* n = root_ptr(p.family());
    while (n) {
      if (!p.addr().matches(n->prefix.addr(), n->prefix.length()) ||
          n->prefix.length() > p.length())
        return false;
      if (n->prefix == p) {
        if (!n->value) return false;
        n->value.reset();
        --size_;
        return true;
      }
      n = n->child[p.addr().bit(n->prefix.length())].get();
    }
    return false;
  }

  /// Longest-prefix match for `a`; nullopt if nothing covers it.
  std::optional<std::pair<netbase::Prefix, const V*>> lookup(
      const netbase::IPAddr& a) const noexcept {
    const Node* best = nullptr;
    const Node* n = root_for(a.family());
    while (n && n->prefix.contains(a)) {
      if (n->value) best = n;
      if (n->prefix.length() >= a.bits()) break;
      n = n->child[a.bit(n->prefix.length())].get();
    }
    if (!best) return std::nullopt;
    return std::pair<netbase::Prefix, const V*>{best->prefix, &*best->value};
  }

  /// Longest-prefix match returning just the value, or nullptr.
  const V* lookup_value(const netbase::IPAddr& a) const noexcept {
    const Node* best = nullptr;
    const Node* n = root_for(a.family());
    while (n && n->prefix.contains(a)) {
      if (n->value) best = n;
      if (n->prefix.length() >= a.bits()) break;
      n = n->child[a.bit(n->prefix.length())].get();
    }
    return best ? &*best->value : nullptr;
  }

  /// Invokes `fn(prefix, value)` for every prefix covering `a`, shortest
  /// first.
  template <typename Fn>
  void all_matches(const netbase::IPAddr& a, Fn&& fn) const {
    const Node* n = root_for(a.family());
    while (n && n->prefix.contains(a)) {
      if (n->value) fn(n->prefix, *n->value);
      if (n->prefix.length() >= a.bits()) break;
      n = n->child[a.bit(n->prefix.length())].get();
    }
  }

  /// Invokes `fn(prefix, value)` for every stored entry (pre-order).
  template <typename Fn>
  void visit(Fn&& fn) const {
    visit_node(v4_root_.get(), fn);
    visit_node(v6_root_.get(), fn);
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

 private:
  struct Node {
    explicit Node(const netbase::Prefix& p) : prefix(p) {}
    netbase::Prefix prefix;
    std::optional<V> value;
    std::unique_ptr<Node> child[2];
  };

  const Node* root_for(netbase::Family f) const noexcept {
    return f == netbase::Family::v4 ? v4_root_.get() : v6_root_.get();
  }
  Node* root_ptr(netbase::Family f) noexcept {
    return f == netbase::Family::v4 ? v4_root_.get() : v6_root_.get();
  }
  std::unique_ptr<Node>& root_slot(netbase::Family f) noexcept {
    return f == netbase::Family::v4 ? v4_root_ : v6_root_;
  }

  // Length of the longest common prefix of two same-family prefixes,
  // capped at min of their lengths.
  static int common_len(const netbase::Prefix& a, const netbase::Prefix& b) noexcept {
    const int cap = a.length() < b.length() ? a.length() : b.length();
    int i = 0;
    while (i < cap && a.addr().bit(i) == b.addr().bit(i)) ++i;
    return i;
  }

  Node* insert_node(const netbase::Prefix& p) {
    auto& root = root_slot(p.family());
    if (!root) {
      // Root always covers the whole family so descent never restarts.
      root = std::make_unique<Node>(netbase::Prefix(p.addr().masked(0), 0));
    }
    Node* n = root.get();
    for (;;) {
      assert(n->prefix.contains(p));
      if (n->prefix == p) return n;
      const unsigned b = p.addr().bit(n->prefix.length());
      std::unique_ptr<Node>& slot = n->child[b];
      if (!slot) {
        slot = std::make_unique<Node>(p);
        return slot.get();
      }
      Node* c = slot.get();
      if (c->prefix.contains(p)) {
        n = c;
        continue;
      }
      if (p.contains(c->prefix)) {
        // Splice p between n and c.
        auto mid = std::make_unique<Node>(p);
        mid->child[c->prefix.addr().bit(p.length())] = std::move(slot);
        slot = std::move(mid);
        return slot.get();
      }
      // Diverge: create a structural node at the fork point.
      const int fork = common_len(p, c->prefix);
      auto join = std::make_unique<Node>(netbase::Prefix(p.addr(), fork));
      join->child[c->prefix.addr().bit(fork)] = std::move(slot);
      slot = std::move(join);
      n = slot.get();
      // p diverges from c at `fork`, so p's slot under join is free.
    }
  }

  template <typename Fn>
  static void visit_node(const Node* n, Fn& fn) {
    if (!n) return;
    if (n->value) fn(n->prefix, *n->value);
    visit_node(n->child[0].get(), fn);
    visit_node(n->child[1].get(), fn);
  }

  std::unique_ptr<Node> v4_root_;
  std::unique_ptr<Node> v6_root_;
  std::size_t size_ = 0;
};

}  // namespace radix
