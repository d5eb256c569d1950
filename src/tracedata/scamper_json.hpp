// tracedata/scamper_json.hpp — scamper-style JSON traceroute ingestion.
//
// Real bdrmapIT deployments consume scamper's JSON warts dumps (one
// JSON object per line). This reader accepts the subset of that schema
// the algorithm needs:
//
//   {"type":"trace", "src":"...", "dst":"203.0.113.9",
//    "hops":[{"addr":"198.51.100.1","probe_ttl":1,"icmp_type":11},
//            {"addr":"203.0.113.9","probe_ttl":4,"icmp_type":0}]}
//
// icmp_type: 11 = Time Exceeded, 3 = Destination Unreachable,
// 0 = Echo Reply (ICMPv6 equivalents 3/1/129 are accepted too).
// Lines whose "type" is present and not "trace" (e.g. "cycle-start")
// are skipped silently, as are comments and blank lines. Unknown keys
// are ignored. Hops are sorted by probe_ttl; duplicate TTLs keep the
// first reply (scamper reports one reply per probe in this schema).
//
// The parser makes one forward pass over each line and builds no
// document tree. It validates the whole line as JSON (nesting up to 64
// levels, escapes, numbers), so a syntax error anywhere makes the line
// malformed, even in a record that would be skipped. It keeps only the
// first "type", "dst", "src", "monitor" and "hops" of the root object
// and the first "addr", "probe_ttl" and "icmp_type" of each hop: when
// a key repeats, the first one wins, compared after escape decoding.
// Every other value is checked and skipped.

#pragma once

#include <iosfwd>
#include <optional>
#include <string_view>
#include <vector>

#include "tracedata/traceroute.hpp"

namespace tracedata {

// Like the text readers in traceroute.hpp, these entry points are
// noexcept API boundaries: allocation failure surfaces as a parse
// error / empty result, never as an exception.

/// Parses one JSON line. Returns nullopt for blank/comment lines,
/// non-trace records, and malformed input (sets `error` for the latter
/// when non-null, including "out of memory" on allocation failure).
std::optional<Traceroute> trace_from_json(std::string_view line,
                                          std::string* error = nullptr) noexcept;

/// Reads a whole jsonl stream; malformed lines are counted, non-trace
/// records skipped silently. Returns an empty vector on allocation
/// failure.
std::vector<Traceroute> read_json_traceroutes(
    std::istream& in, std::size_t* malformed = nullptr) noexcept;

/// Threaded variant: lines are parsed in contiguous shards by up to
/// `threads` executors (<= 0 means hardware concurrency) and merged in
/// input order, so the result is identical to the serial reader for
/// any thread count.
std::vector<Traceroute> read_json_traceroutes(std::istream& in,
                                              std::size_t* malformed,
                                              int threads) noexcept;

/// Writes a corpus in the same JSON schema (one object per line).
void write_json_traceroutes(std::ostream& out, const std::vector<Traceroute>& traces);

/// True when a corpus is scamper JSON rather than the native format:
/// its first line that is neither blank nor a comment, after trimming
/// space, tab and CR, starts with '{'. Reads from the seekable `in`,
/// then clears its state and seeks it back to where it started.
bool is_json_corpus(std::istream& in);

}  // namespace tracedata
