// serve/protocol.hpp — the query protocol, independent of transport.
//
// Protocol owns request framing, command dispatch, and response
// rendering for the bdrmapit_serve query language (IFACE, PREFIX,
// LINKS, ROUTER, COUNT, STATS, NETSTATS, RELOAD, QUIT — grammar in
// docs/SERVING.md) plus the binary BULK lookup protocol (serve/bulk.hpp).
// Both front-ends drive it: the stdin REPL in apps/bdrmapit_serve.cpp
// and the TCP path in src/net/ execute this exact code, so the two
// transports answer any request stream with byte-identical replies.
//
// The protocol answers from a StoreHandle, not a raw store: every
// handle_line/handle_bulk call acquires the current generation once
// and answers the whole request from it, so a concurrent hot reload
// (StoreHandle::publish) never mixes generations inside one reply.
//
// handle_line and handle_bulk are const and touch only read-only
// AnnotationStore indexes, so one Protocol instance may be shared by
// any number of threads (the net::Server worker loops all call into
// one). Reply rendering is allocation-free in steady state: fields are
// formatted through serve/render.hpp into the caller's reusable output
// buffer, and per-request parse state lives in per-thread (text) or
// caller-owned (bulk) scratch.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/store.hpp"

namespace serve {

/// Appends the TSV row for one interface record: addr, router_as,
/// conn_as and flags (`B` border, `X` IXP, `E` echo-only, `-` when none
/// apply), tab-separated, newline-terminated. The IFACE,
/// PREFIX and ROUTER replies and bdrmapit_cli's --output all render
/// through this, so they agree byte for byte. Allocation-free when
/// `out` has spare capacity.
void append_iface(std::string& out, const SnapshotIface& rec);

class Protocol {
 public:
  /// What the transport should do after a request line is handled.
  enum class Action {
    kContinue,  ///< keep reading requests
    kQuit,      ///< client asked to end the session (QUIT)
  };

  /// NETSTATS rows, in reply order. The TCP server wires its live
  /// counters in through this; the stdin REPL leaves it unset and
  /// NETSTATS answers `ERR not-listening`.
  using NetStats = std::vector<std::pair<std::string, std::uint64_t>>;
  using NetStatsFn = std::function<NetStats()>;

  /// Admin hook behind the RELOAD verb. Receives the requested
  /// snapshot path; returns true when the reload was performed (stdin
  /// transport, synchronous) or accepted for execution off the event
  /// loops (TCP transport). On false, `detail` names the reason
  /// ("no-such-file", "audit-violation", ...) for the ERR reply.
  /// Unset: RELOAD answers `ERR not-admin` (fuzz harnesses, tests,
  /// --no-reload deployments).
  using ReloadFn = std::function<bool(std::string_view path, std::string& detail)>;

  explicit Protocol(const StoreHandle& store, NetStatsFn netstats = {},
                    ReloadFn reload = {})
      : store_(store),
        netstats_(std::move(netstats)),
        reload_(std::move(reload)) {}

  /// Handles one request line (without its trailing newline; one
  /// trailing CR is tolerated for CRLF clients) and appends zero or
  /// more complete reply lines to `out`. Empty lines and `#` comments
  /// produce no reply. Never throws on malformed input — bad requests
  /// render an `ERR` reply and the session continues.
  Action handle_line(std::string_view line, std::string& out) const;

  /// Reusable parse/lookup scratch for handle_bulk. The transport owns
  /// one per thread (the TCP loops) or per driver; its vectors warm up
  /// to the largest batch seen and are then reused, so steady-state
  /// bulk serving performs no per-request heap allocation.
  struct BulkScratch {
    std::vector<netbase::IPAddr> addrs;
    std::vector<const SnapshotIface*> recs;
  };

  /// Outcome of one BULK request frame.
  struct BulkOutcome {
    bool ok = false;          ///< false: error frame appended; close after it
    std::uint32_t addrs = 0;  ///< addresses answered (0 on error)
  };

  /// Handles one complete BULK request frame (as delimited by
  /// bulk::scan_request) and appends exactly one frame to `out`: the
  /// response frame, or an 8-byte error frame on any malformation.
  /// Never throws; safe on arbitrary bytes (the fuzz harness calls it
  /// directly).
  BulkOutcome handle_bulk(std::string_view frame, std::string& out,
                          BulkScratch& scratch) const;

  const StoreHandle& store() const noexcept { return store_; }

 private:
  const StoreHandle& store_;
  NetStatsFn netstats_;
  ReloadFn reload_;
};

}  // namespace serve
