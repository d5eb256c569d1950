// eval/error_analysis.hpp — categorized accuracy breakdown.
//
// The §7 metrics answer "how accurate"; this module answers "where do
// the errors live". Every observed interface with ground truth is
// classified along two axes:
//
//   outcome — correct, wrong_owner (router AS wrong), wrong_far
//             (router right, far side wrong), claimed_internal
//             (true interdomain link inferred as internal), or
//             spurious_border (true internal interface claimed as a
//             border);
//   category — the kind of link the interface sits on: internal,
//             transit (p2c, provider-addressed), transit numbered from
//             the customer's space, peering, IXP member, or loopback /
//             stray interfaces on no link.
//
// The cross-tabulation pinpoints which simulator artifact (and thus
// which paper heuristic) each residual error class traces back to.

#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <vector>

#include "core/bdrmapit.hpp"
#include "eval/ground_truth.hpp"
#include "topo/internet.hpp"

namespace eval {

enum class Outcome : std::uint8_t {
  correct,
  wrong_owner,
  wrong_far,
  claimed_internal,
  spurious_border,
  kCount
};

enum class LinkCategory : std::uint8_t {
  internal,
  transit_provider_addressed,
  transit_customer_addressed,
  peering,
  ixp,
  stray,  ///< loopbacks and other linkless interfaces
  kCount
};

const char* to_string(Outcome o) noexcept;
const char* to_string(LinkCategory c) noexcept;

struct ErrorBreakdown {
  /// counts[category][outcome]
  std::array<std::array<std::size_t, static_cast<std::size_t>(Outcome::kCount)>,
             static_cast<std::size_t>(LinkCategory::kCount)>
      counts{};

  std::size_t total(LinkCategory c) const noexcept;
  std::size_t correct(LinkCategory c) const noexcept;
  double accuracy(LinkCategory c) const noexcept;

  /// Formats the cross-tabulation as an aligned table.
  void print(std::ostream& out) const;
};

/// Classifies every observed, non-echo-only interface.
ErrorBreakdown analyze_errors(
    const topo::Internet& net, const GroundTruth& gt, const Visibility& vis,
    const std::vector<core::IfaceRecord>& inf);

}  // namespace eval
