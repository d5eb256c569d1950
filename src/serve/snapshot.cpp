#include "serve/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "core/errno_util.hpp"
#include "core/failpoint.hpp"
#include "parallel/thread_pool.hpp"

namespace serve {

namespace {

// ---- CRC-32 -----------------------------------------------------------

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

// ---- little-endian encoding ------------------------------------------

void put_u8(std::string& buf, std::uint8_t v) {
  buf.push_back(static_cast<char>(v));
}

void put_u32(std::string& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_addr(std::string& buf, const netbase::IPAddr& a) {
  put_u8(buf, a.is_v4() ? 4 : 6);
  buf.append(reinterpret_cast<const char*>(a.raw().data()),
             static_cast<std::size_t>(a.bits() / 8));
}

// Bounds-checked little-endian decoding over a byte buffer. Every
// getter reports failure instead of reading past the end, so a
// maliciously short payload can never crash the loader.
struct Reader {
  const unsigned char* p;
  std::size_t len;
  std::size_t pos = 0;

  bool get_u8(std::uint8_t* v) {
    if (pos + 1 > len) return false;
    *v = p[pos++];
    return true;
  }
  bool get_u32(std::uint32_t* v) {
    if (pos + 4 > len) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<std::uint32_t>(p[pos++]) << (8 * i);
    return true;
  }
  bool get_u64(std::uint64_t* v) {
    if (pos + 8 > len) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<std::uint64_t>(p[pos++]) << (8 * i);
    return true;
  }
  bool get_addr(netbase::IPAddr* a) {
    std::uint8_t tag = 0;
    if (!get_u8(&tag)) return false;
    if (tag == 4) {
      if (pos + 4 > len) return false;
      std::uint32_t v = 0;
      for (int i = 0; i < 4; ++i) v = (v << 8) | p[pos++];
      *a = netbase::IPAddr::v4(v);
      return true;
    }
    if (tag == 6) {
      if (pos + 16 > len) return false;
      std::array<std::uint8_t, 16> bytes;
      std::memcpy(bytes.data(), p + pos, 16);
      pos += 16;
      *a = netbase::IPAddr::v6(bytes);
      return true;
    }
    return false;
  }
};

constexpr char kMagic[4] = {'B', 'M', 'I', 'S'};
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4;  // magic, version, size, crc

constexpr std::uint8_t kFlagIxp = 1;
constexpr std::uint8_t kFlagSeenNonEcho = 2;
constexpr std::uint8_t kFlagSeenMidPath = 4;

bool fail(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

Snapshot snapshot_from_result(const core::Result& result) {
  Snapshot snap;
  snap.iterations = static_cast<std::uint32_t>(result.iterations);
  snap.iteration_stats = result.iteration_stats;
  snap.router_count = result.graph.irs().size();

  snap.interfaces = result.interfaces;
  snap.as_links = result.as_links();  // already sorted + deduped
  return snap;
}

void write_snapshot(std::ostream& out, const Snapshot& snap) {
  std::string payload;
  put_u32(payload, snap.iterations);
  put_u64(payload, snap.iteration_stats.size());
  for (const auto& s : snap.iteration_stats) {
    put_u64(payload, s.changed_irs);
    put_u64(payload, s.changed_ifaces);
  }
  put_u64(payload, snap.router_count);
  put_u64(payload, snap.interfaces.size());
  for (const auto& rec : snap.interfaces) {
    put_addr(payload, rec.addr);
    put_u32(payload, rec.router_id);
    put_u32(payload, rec.inf.router_as);
    put_u32(payload, rec.inf.conn_as);
    std::uint8_t flags = 0;
    if (rec.inf.ixp) flags |= kFlagIxp;
    if (rec.inf.seen_non_echo) flags |= kFlagSeenNonEcho;
    if (rec.inf.seen_mid_path) flags |= kFlagSeenMidPath;
    put_u8(payload, flags);
  }
  put_u64(payload, snap.as_links.size());
  for (const auto& [a, b] : snap.as_links) {
    put_u32(payload, a);
    put_u32(payload, b);
  }

  std::string header;
  header.append(kMagic, 4);
  put_u32(header, kSnapshotVersion);
  put_u64(header, payload.size());
  put_u32(header, crc32(payload.data(), payload.size()));
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

bool write_snapshot_file(const std::string& path, const Snapshot& snap,
                         std::string* error) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return fail(error, "cannot create " + path);
  write_snapshot(out, snap);
  out.flush();
  if (!out) return fail(error, "write failed for " + path);
  return true;
}

bool load_snapshot(std::istream& in, Snapshot* out, std::string* error) {
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // "serve.snapshot.read" injects the I/O failures a real disk produces
  // mid-read: `short` drops the final byte (a torn write / truncated
  // copy), `err` simulates read(2) failing with the armed errno. Either
  // way the caller gets `false` plus a precise diagnostic and the
  // currently-published generation keeps serving.
  if (const auto fp = BDRMAPIT_FAILPOINT("serve.snapshot.read")) {
    if (fp.action == core::failpoint::Action::kShort) {
      if (!data.empty()) data.pop_back();
    } else {
      return fail(error, "read error: " +
                             core::errno_string(fp.err != 0 ? fp.err : EIO));
    }
  }
  if (data.size() < kHeaderSize)
    return fail(error, "file too small for snapshot header");

  Reader hdr{reinterpret_cast<const unsigned char*>(data.data()), kHeaderSize};
  if (std::memcmp(data.data(), kMagic, 4) != 0)
    return fail(error, "bad magic (not a bdrmapIT snapshot)");
  hdr.pos = 4;
  std::uint32_t version = 0, want_crc = 0;
  std::uint64_t payload_size = 0;
  hdr.get_u32(&version);
  hdr.get_u64(&payload_size);
  hdr.get_u32(&want_crc);
  if (version != kSnapshotVersion)
    return fail(error, "unsupported snapshot version " + std::to_string(version) +
                           " (expected " + std::to_string(kSnapshotVersion) + ")");
  if (data.size() - kHeaderSize != payload_size)
    return fail(error, "payload size mismatch: header says " +
                           std::to_string(payload_size) + " bytes, file has " +
                           std::to_string(data.size() - kHeaderSize));
  const std::uint32_t got_crc = crc32(data.data() + kHeaderSize, payload_size);
  if (got_crc != want_crc)
    return fail(error, "CRC mismatch (file corrupt)");

  Reader r{reinterpret_cast<const unsigned char*>(data.data()) + kHeaderSize,
           static_cast<std::size_t>(payload_size)};
  Snapshot snap;
  std::uint64_t n = 0;
  if (!r.get_u32(&snap.iterations) || !r.get_u64(&n))
    return fail(error, "truncated payload (iteration stats)");
  // Counts are bounded by the payload size before any allocation, so a
  // corrupt length can't trigger a giant reserve.
  if (n > payload_size / 16)
    return fail(error, "implausible iteration-stat count");
  snap.iteration_stats.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    core::Annotator::IterationStats s;
    std::uint64_t irs = 0, ifaces = 0;
    if (!r.get_u64(&irs) || !r.get_u64(&ifaces))
      return fail(error, "truncated payload (iteration stats)");
    s.changed_irs = irs;
    s.changed_ifaces = ifaces;
    snap.iteration_stats.push_back(s);
  }
  if (!r.get_u64(&snap.router_count) || !r.get_u64(&n))
    return fail(error, "truncated payload (interface table)");
  if (n > payload_size / 18)  // v4 record: 5 addr + 12 ints + 1 flags
    return fail(error, "implausible interface count");
  snap.interfaces.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    SnapshotIface rec;
    std::uint8_t flags = 0;
    if (!r.get_addr(&rec.addr) || !r.get_u32(&rec.router_id) ||
        !r.get_u32(&rec.inf.router_as) || !r.get_u32(&rec.inf.conn_as) ||
        !r.get_u8(&flags))
      return fail(error, "truncated payload (interface table)");
    rec.inf.ixp = flags & kFlagIxp;
    rec.inf.seen_non_echo = flags & kFlagSeenNonEcho;
    rec.inf.seen_mid_path = flags & kFlagSeenMidPath;
    snap.interfaces.push_back(rec);
  }
  if (!r.get_u64(&n)) return fail(error, "truncated payload (AS links)");
  if (n > payload_size / 8)
    return fail(error, "implausible AS-link count");
  snap.as_links.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint32_t a = 0, b = 0;
    if (!r.get_u32(&a) || !r.get_u32(&b))
      return fail(error, "truncated payload (AS links)");
    snap.as_links.emplace_back(a, b);
  }
  if (r.pos != r.len)
    return fail(error, "trailing bytes after payload");
  *out = std::move(snap);
  return true;
}

bool load_snapshot_file(const std::string& path, Snapshot* out,
                        std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(error, "cannot open " + path);
  return load_snapshot(in, out, error);
}

std::vector<SnapshotIssue> validate_snapshot(const Snapshot& snap, int threads) {
  std::vector<SnapshotIssue> out;
  auto append = [&out](std::vector<SnapshotIssue> more) {
    out.insert(out.end(), std::make_move_iterator(more.begin()),
               std::make_move_iterator(more.end()));
  };

  // ---- interface table: strict address order, router-id range ---------
  // Element i compares against its predecessor, so a shard's first
  // element still sees across the shard boundary.
  append(parallel::parallel_collect<SnapshotIssue>(
      snap.interfaces.size(), threads,
      [&snap](std::vector<SnapshotIssue>& acc, std::size_t i) {
        const SnapshotIface& rec = snap.interfaces[i];
        if (i > 0 && !(snap.interfaces[i - 1].addr < rec.addr))
          acc.push_back({"snapshot.iface-sorted",
                         "interface records out of order at index " +
                             std::to_string(i) + " (" + rec.addr.to_string() +
                             ")"});
        if (rec.router_id >= snap.router_count)
          acc.push_back({"snapshot.router-id-range",
                         "interface " + rec.addr.to_string() + " has router id " +
                             std::to_string(rec.router_id) + " >= router count " +
                             std::to_string(snap.router_count)});
      }));

  // Every router owns at least one interface, so the advertised router
  // count can never exceed the interface count.
  if (snap.router_count > snap.interfaces.size())
    out.push_back({"snapshot.router-count",
                   "router count " + std::to_string(snap.router_count) +
                       " exceeds interface count " +
                       std::to_string(snap.interfaces.size())});

  // ---- AS links: normalized, strictly ascending, no dangling AS ------
  // The membership set is order-insensitive, so a plain merge of
  // per-shard sets stays deterministic.
  const auto known_as = parallel::parallel_reduce<std::unordered_set<netbase::Asn>>(
      snap.interfaces.size(), threads, {},
      [&snap](std::unordered_set<netbase::Asn>& acc, std::size_t i) {
        if (snap.interfaces[i].inf.router_as != netbase::kNoAs)
          acc.insert(snap.interfaces[i].inf.router_as);
        if (snap.interfaces[i].inf.conn_as != netbase::kNoAs)
          acc.insert(snap.interfaces[i].inf.conn_as);
      },
      [](std::unordered_set<netbase::Asn>& total,
         std::unordered_set<netbase::Asn>& s) {
        total.insert(s.begin(), s.end());
      });
  append(parallel::parallel_collect<SnapshotIssue>(
      snap.as_links.size(), threads,
      [&snap, &known_as](std::vector<SnapshotIssue>& acc, std::size_t i) {
        const auto& [a, b] = snap.as_links[i];
        if (a >= b)
          acc.push_back({"snapshot.as-links-canonical",
                         "AS link (" + std::to_string(a) + ", " +
                             std::to_string(b) + ") is not normalized"});
        if (i > 0 && !(snap.as_links[i - 1] < snap.as_links[i]))
          acc.push_back({"snapshot.as-links-canonical",
                         "AS links out of order at index " + std::to_string(i)});
        for (const netbase::Asn asn : {a, b})
          if (!known_as.contains(asn))
            acc.push_back({"snapshot.as-link-member",
                           "AS link (" + std::to_string(a) + ", " +
                               std::to_string(b) + ") names AS " +
                               std::to_string(asn) +
                               " that no interface record mentions"});
      }));

  // ---- refinement stats ----------------------------------------------
  if (snap.iterations != snap.iteration_stats.size())
    out.push_back({"snapshot.iteration-stats",
                   std::to_string(snap.iterations) + " iterations but " +
                       std::to_string(snap.iteration_stats.size()) +
                       " stat entries"});
  return out;
}

}  // namespace serve
