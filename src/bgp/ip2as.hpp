// bgp/ip2as.hpp — combined IP-to-AS mapping with the paper's precedence.
//
// Paper §4.1: interface origin ASes come from BGP announcements (longest
// matching prefix, origin = last AS on the path); RIR delegations fill in
// prefixes "not already covered by a BGP prefix"; IXP prefixes (from
// PeeringDB / PCH / EuroIX) are special-cased — addresses inside them are
// treated as IXP public peering addresses and their BGP origin (if any)
// is ignored when building origin AS sets.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "bgp/delegations.hpp"
#include "bgp/rib.hpp"
#include "netbase/asn.hpp"
#include "netbase/ip_addr.hpp"
#include "netbase/prefix.hpp"
#include "netbase/prefix_table.hpp"

namespace bgp {

/// Provenance of an origin-AS mapping.
enum class OriginKind : std::uint8_t {
  none,         ///< unannounced: no covering BGP/RIR/IXP prefix
  bgp,          ///< longest matching BGP announcement
  rir,          ///< RIR delegation (not covered by BGP)
  ixp,          ///< IXP public peering prefix — origin AS intentionally absent
  private_addr  ///< RFC1918 / link-local / loopback
};

/// Result of an address lookup.
struct Origin {
  netbase::Asn asn = netbase::kNoAs;   ///< kNoAs for none/ixp/private
  OriginKind kind = OriginKind::none;
  netbase::Prefix prefix;              ///< matching prefix (default if none)

  bool announced() const noexcept {
    return kind == OriginKind::bgp || kind == OriginKind::rir;
  }
  bool is_ixp() const noexcept { return kind == OriginKind::ixp; }
};

/// Immutable-after-build IP→AS map.
class Ip2AS {
 public:
  /// Reads one-prefix-per-line IXP prefix lists ('#' comments allowed).
  static std::vector<netbase::Prefix> read_ixp_prefixes(std::istream& in);

  /// Builds the map. MOAS prefixes resolve to the numerically smallest
  /// origin for determinism; delegations covered by any BGP prefix are
  /// dropped per the paper's staleness rule.
  static Ip2AS build(const Rib& rib, const std::vector<Delegation>& delegations,
                     const std::vector<netbase::Prefix>& ixp_prefixes);

  /// Longest-prefix lookup with IXP > BGP > RIR precedence; private
  /// addresses short-circuit to OriginKind::private_addr.
  Origin lookup(const netbase::IPAddr& a) const noexcept;

  /// Convenience: origin ASN only (kNoAs when unannounced/IXP/private).
  netbase::Asn asn(const netbase::IPAddr& a) const noexcept { return lookup(a).asn; }

  std::size_t bgp_entries() const noexcept { return bgp_count_; }
  std::size_t rir_entries() const noexcept { return rir_count_; }
  std::size_t ixp_entries() const noexcept { return ixp_count_; }

 private:
  struct Entry {
    netbase::Asn asn = netbase::kNoAs;
    OriginKind kind = OriginKind::none;
  };

  netbase::PrefixTable<Entry> ixp_;      ///< IXP prefixes, consulted first
  netbase::PrefixTable<Entry> origins_;  ///< BGP and surviving RIR prefixes
  std::size_t bgp_count_ = 0;
  std::size_t rir_count_ = 0;
  std::size_t ixp_count_ = 0;
};

}  // namespace bgp
