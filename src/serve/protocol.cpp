#include "serve/protocol.hpp"

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "netbase/asn.hpp"
#include "netbase/ip_addr.hpp"
#include "netbase/prefix.hpp"
#include "serve/bulk.hpp"
#include "serve/render.hpp"

namespace serve {

namespace {

// The whitespace istream's `>>` skips in the classic locale, minus
// '\n' (lines never contain one). Keeping the set identical preserves
// byte-for-byte reply compatibility with the pre-rewrite tokenizer.
constexpr const char* kSpaces = " \t\v\f\r";

/// Splits the next whitespace-delimited token off `rest`. Returns an
/// empty view once exhausted (tokens themselves are never empty).
std::string_view next_token(std::string_view& rest) {
  const std::size_t begin = rest.find_first_not_of(kSpaces);
  if (begin == std::string_view::npos) {
    rest = {};
    return {};
  }
  std::size_t end = rest.find_first_of(kSpaces, begin);
  if (end == std::string_view::npos) end = rest.size();
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

void append_err(std::string& out, std::string_view reason,
                std::string_view detail) {
  out += "ERR\t";
  out += reason;
  if (!detail.empty()) {
    out += '\t';
    out += detail;
  }
  out += '\n';
}

void append_end(std::string& out, std::size_t count) {
  out += "END\t";
  render::append_u64(out, count);
  out += '\n';
}

/// Per-thread parse/lookup scratch for multi-address IFACE requests.
/// handle_line is shared by every server loop; thread-locality keeps
/// it lock-free while the vectors' capacity persists across requests.
struct IfaceScratch {
  std::vector<netbase::IPAddr> addrs;
  std::vector<std::string_view> raw;
  std::vector<const SnapshotIface*> recs;
};

IfaceScratch& iface_scratch() {
  thread_local IfaceScratch scratch;
  return scratch;
}

}  // namespace

void append_iface(std::string& out, const SnapshotIface& rec) {
  rec.addr.append_to(out);
  out += '\t';
  render::append_u64(out, rec.inf.router_as);
  out += '\t';
  render::append_u64(out, rec.inf.conn_as);
  out += '\t';
  char flags[4];  // B border, X IXP, E echo-only, - when none apply; newline
  std::size_t n = 0;
  if (rec.inf.interdomain()) flags[n++] = 'B';
  if (rec.inf.ixp) flags[n++] = 'X';
  if (!rec.inf.seen_non_echo) flags[n++] = 'E';
  if (n == 0) flags[n++] = '-';
  flags[n++] = '\n';
  out.append(flags, n);
}

Protocol::Action Protocol::handle_line(std::string_view line,
                                       std::string& out) const {
  // Tolerate CRLF framing from interactive TCP clients (telnet, nc -C):
  // one trailing CR is part of the line terminator, not the request.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

  std::string_view rest = line;
  const std::string_view cmd = next_token(rest);
  if (cmd.empty() || cmd[0] == '#') return Action::kContinue;

  if (cmd == "QUIT") return Action::kQuit;

  // Pin the current generation for this whole request: a concurrent
  // hot reload must never mix generations inside one reply. The
  // acquire is a refcount bump, not an allocation.
  const StoreHandle::StoreRef pinned = store_.acquire();
  const AnnotationStore& store = *pinned;

  if (cmd == "IFACE") {
    IfaceScratch& scratch = iface_scratch();
    scratch.addrs.clear();
    scratch.raw.clear();
    for (std::string_view tok = next_token(rest); !tok.empty();
         tok = next_token(rest)) {
      const auto a = netbase::IPAddr::parse(tok);
      if (!a) {
        append_err(out, "bad-address", tok);
        return Action::kContinue;
      }
      scratch.addrs.push_back(*a);
      scratch.raw.push_back(tok);
    }
    if (scratch.addrs.empty()) {
      append_err(out, "missing-argument", "IFACE");
      return Action::kContinue;
    }
    scratch.recs.resize(scratch.addrs.size());
    store.find_batch(scratch.addrs.data(), scratch.addrs.size(),
                     scratch.recs.data());
    for (std::size_t i = 0; i < scratch.recs.size(); ++i) {
      if (scratch.recs[i])
        append_iface(out, *scratch.recs[i]);
      else
        append_err(out, "not-found", scratch.raw[i]);
    }
  } else if (cmd == "PREFIX") {
    const std::string_view tok = next_token(rest);
    if (tok.empty()) {
      append_err(out, "missing-argument", "PREFIX");
      return Action::kContinue;
    }
    const auto p = netbase::Prefix::parse(tok);
    if (!p) {
      append_err(out, "bad-prefix", tok);
      return Action::kContinue;
    }
    const auto recs = store.find_under(*p);
    for (const auto& rec : recs) append_iface(out, rec);
    append_end(out, recs.size());
  } else if (cmd == "LINKS") {
    const std::string_view tok = next_token(rest);
    if (tok.empty()) {
      append_err(out, "missing-argument", "LINKS");
      return Action::kContinue;
    }
    const auto asn = netbase::parse_asn(tok);
    if (!asn) {
      append_err(out, "bad-asn", tok);
      return Action::kContinue;
    }
    const auto links = store.links_of(*asn);
    for (const auto& [a, b] : links) {
      render::append_u64(out, a);
      out += '\t';
      render::append_u64(out, b);
      out += '\n';
    }
    append_end(out, links.size());
  } else if (cmd == "ROUTER") {
    const std::string_view tok = next_token(rest);
    if (tok.empty()) {
      append_err(out, "missing-argument", "ROUTER");
      return Action::kContinue;
    }
    const auto a = netbase::IPAddr::parse(tok);
    if (!a) {
      append_err(out, "bad-address", tok);
      return Action::kContinue;
    }
    const auto* rec = store.find(*a);
    if (!rec) {
      append_err(out, "not-found", tok);
      return Action::kContinue;
    }
    const auto& table = store.snapshot().interfaces;
    const auto members = store.router_members(rec->router_id);
    for (const std::uint32_t pos : members) append_iface(out, table[pos]);
    append_end(out, members.size());
  } else if (cmd == "COUNT") {
    const std::string_view tok = next_token(rest);
    if (tok.empty()) {
      append_err(out, "missing-argument", "COUNT");
      return Action::kContinue;
    }
    const auto asn = netbase::parse_asn(tok);
    if (!asn) {
      append_err(out, "bad-asn", tok);
      return Action::kContinue;
    }
    render::append_u64(out, *asn);
    out += '\t';
    render::append_u64(out, store.iface_count_of(*asn));
    out += '\n';
  } else if (cmd == "STATS") {
    const StoreStats st = store.stats();
    const std::pair<const char*, std::uint64_t> rows[] = {
        {"interfaces", st.interfaces},
        {"routers", st.routers},
        {"border_interfaces", st.border_interfaces},
        {"as_links", st.as_links},
        {"ases", st.ases},
        {"iterations", st.iterations},
    };
    for (const auto& [key, value] : rows) {
      out += key;
      out += '\t';
      render::append_u64(out, value);
      out += '\n';
    }
    append_end(out, std::size(rows));
  } else if (cmd == "NETSTATS") {
    if (!netstats_) {
      append_err(out, "not-listening", "NETSTATS");
      return Action::kContinue;
    }
    const NetStats rows = netstats_();
    for (const auto& [key, value] : rows) {
      out += key;
      out += '\t';
      render::append_u64(out, value);
      out += '\n';
    }
    append_end(out, rows.size());
  } else if (cmd == "RELOAD") {
    const std::string_view tok = next_token(rest);
    if (tok.empty()) {
      append_err(out, "missing-argument", "RELOAD");
      return Action::kContinue;
    }
    if (!reload_) {
      // No reload driver wired on this transport (--no-reload, or a
      // harness driving the protocol directly).
      append_err(out, "not-admin", "RELOAD");
      return Action::kContinue;
    }
    // RELOAD is an admin verb, not a hot path: the detail string may
    // allocate.
    std::string detail;
    if (reload_(tok, detail)) {
      out += "OK\treload\t";
      out += tok;
      out += '\n';
    } else {
      append_err(out, "reload-failed", detail.empty() ? tok : detail);
    }
  } else {
    append_err(out, "unknown-command", cmd);
  }
  return Action::kContinue;
}

Protocol::BulkOutcome Protocol::handle_bulk(std::string_view frame,
                                            std::string& out,
                                            BulkScratch& scratch) const {
  // Re-validate the frame head defensively: the TCP path hands over
  // frames delimited by bulk::scan_request, but direct callers (fuzz,
  // tests) may not.
  std::size_t frame_len = 0;
  if (frame.empty() || static_cast<std::uint8_t>(frame[0]) != bulk::kMagic) {
    bulk::append_error(out, bulk::ErrCode::kBadOpcode,
                       frame.empty() ? 0 : static_cast<std::uint8_t>(frame[0]));
    return {};
  }
  switch (bulk::scan_request(frame, &frame_len, out)) {
    case bulk::Scan::kError:
      return {};
    case bulk::Scan::kNeedMore:
      // A truncated frame handed in as if complete: the count promises
      // more records than the buffer holds.
      bulk::append_error(out, bulk::ErrCode::kBadCount,
                         static_cast<std::uint32_t>(frame.size()));
      return {};
    case bulk::Scan::kFrame:
      break;
  }

  const std::uint32_t count = render::load_u32le(frame.data() + 4);
  scratch.addrs.resize(count);
  const char* p = frame.data() + bulk::kHeaderBytes;
  for (std::uint32_t i = 0; i < count; ++i, p += bulk::kAddrRecBytes) {
    const auto family = static_cast<std::uint8_t>(p[0]);
    if (family == 4) {
      scratch.addrs[i] = netbase::IPAddr::v4(
          (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 24) |
          (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
          (static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 8) |
          static_cast<std::uint32_t>(static_cast<unsigned char>(p[4])));
    } else if (family == 6) {
      std::array<std::uint8_t, 16> bytes;
      std::memcpy(bytes.data(), p + 1, bytes.size());
      scratch.addrs[i] = netbase::IPAddr::v6(bytes);
    } else {
      bulk::append_error(out, bulk::ErrCode::kBadFamily, i);
      return {};
    }
  }

  // One generation answers the whole frame: the batched lookup and the
  // record rendering below both read from the pinned store, so a
  // concurrent publish cannot mix generations inside one response.
  const StoreHandle::StoreRef pinned = store_.acquire();
  scratch.recs.resize(count);
  pinned->find_batch(scratch.addrs.data(), count, scratch.recs.data());

  out.reserve(out.size() + bulk::kHeaderBytes +
              std::size_t{count} * bulk::kResultRecBytes);
  const char header[4] = {static_cast<char>(bulk::kMagic),
                          static_cast<char>(bulk::kOpResponse),
                          static_cast<char>(bulk::kVersion), 0};
  out.append(header, sizeof header);
  render::append_u32le(out, count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const SnapshotIface* rec = scratch.recs[i];
    if (rec == nullptr) {
      static constexpr char kMiss[bulk::kResultRecBytes] = {};
      out.append(kMiss, sizeof kMiss);
      continue;
    }
    render::append_u32le(out, rec->inf.router_as);
    render::append_u32le(out, rec->inf.conn_as);
    render::append_u32le(out, rec->router_id);
    std::uint8_t flags = bulk::kFlagFound;
    if (rec->inf.interdomain()) flags |= bulk::kFlagBorder;
    if (rec->inf.ixp) flags |= bulk::kFlagIxp;
    if (!rec->inf.seen_non_echo) flags |= bulk::kFlagEchoOnly;
    const char tail[4] = {static_cast<char>(flags), 0, 0, 0};
    out.append(tail, sizeof tail);
  }
  return {true, count};
}

}  // namespace serve
