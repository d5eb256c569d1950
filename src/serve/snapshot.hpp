// serve/snapshot.hpp — durable snapshot of a bdrmapIT run.
//
// A snapshot freezes everything downstream consumers query out of a
// `core::Result` — per-interface inferences, router membership,
// refinement statistics, and the deduplicated AS-level adjacencies —
// into a versioned, checksummed binary file. `bdrmapit_cli
// --snapshot-out` writes one at the end of a run; `bdrmapit_serve`
// (via serve::AnnotationStore) loads it and answers queries without
// re-running the pipeline.
//
// The on-disk layout is documented in docs/FORMATS.md ("Snapshot
// format"). In short: a fixed 20-byte header (magic "BMIS", format
// version, payload size, CRC-32 of the payload) followed by a
// little-endian payload. The loader validates all four header fields
// before touching the payload and returns a diagnostic instead of
// crashing on truncated, corrupt, or wrong-version files.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/bdrmapit.hpp"
#include "netbase/asn.hpp"
#include "netbase/ip_addr.hpp"

namespace serve {

/// Current on-disk format version. Bump on any layout change.
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// One interface record is the result's record, stored as it is.
using SnapshotIface = core::IfaceRecord;

/// In-memory image of a snapshot file.
struct Snapshot {
  std::uint32_t iterations = 0;
  std::vector<core::Annotator::IterationStats> iteration_stats;
  std::uint64_t router_count = 0;
  std::vector<SnapshotIface> interfaces;  ///< sorted by address
  std::vector<std::pair<netbase::Asn, netbase::Asn>> as_links;  ///< sorted, deduped
};

/// Builds a snapshot image from a completed run: the result's
/// address-sorted interface table, copied, and its AS links sorted
/// ascending, so two identical runs produce byte-identical snapshots.
Snapshot snapshot_from_result(const core::Result& result);

/// Serializes `snap` to `out` (open the stream in binary mode).
void write_snapshot(std::ostream& out, const Snapshot& snap);

/// Convenience: write straight to a file. Returns false (with `*error`
/// set) if the file cannot be created.
bool write_snapshot_file(const std::string& path, const Snapshot& snap,
                         std::string* error);

/// Deserializes a snapshot. On success returns true and fills `*out`;
/// on any validation failure (short file, bad magic, unsupported
/// version, size mismatch, CRC mismatch, malformed payload) returns
/// false and describes the problem in `*error`.
bool load_snapshot(std::istream& in, Snapshot* out, std::string* error);

/// Convenience: load from a file path.
bool load_snapshot_file(const std::string& path, Snapshot* out,
                        std::string* error);

/// One failed snapshot-image invariant. `check` is a stable dotted name
/// (the same names the audit layer reports, e.g. "snapshot.iface-sorted");
/// `detail` pinpoints the offending record.
struct SnapshotIssue {
  std::string check;
  std::string detail;
};

/// Structural invariants of a snapshot image, beyond what the CRC can
/// promise: interface records strictly ascending by address (sorted and
/// duplicate-free), router ids within router_count, router_count itself
/// bounded by the interface count, AS links normalized (a < b) and
/// strictly ascending, every linked AS actually operating or adjacent
/// to at least one interface, and iteration stats matching the
/// iteration count. A CRC-valid file can still fail these — a stale,
/// hand-edited, or foreign snapshot — which is what the serve-time
/// audit gate rejects.
///
/// Scans are sharded across up to `threads` executors (<= 0 means
/// hardware concurrency) and per-shard results merged in shard-then-
/// index order, so the report is byte-identical for every thread count.
/// Empty images (zero interfaces, zero links, zero stats) validate
/// cleanly rather than erroring.
std::vector<SnapshotIssue> validate_snapshot(const Snapshot& snap,
                                             int threads = 1);

/// CRC-32 (IEEE 802.3, reflected) of a byte buffer. Exposed for tests.
std::uint32_t crc32(const void* data, std::size_t len,
                    std::uint32_t seed = 0) noexcept;

}  // namespace serve
