// Fuzz target: the CRC-checked binary snapshot loader, and the store
// built over whatever it accepts.
//
// The loader promises to reject (never crash on) arbitrary bytes:
// truncated headers, corrupt lengths, implausible section counts, bad
// address tags, trailing garbage. When a buffer is accepted, writing
// the decoded snapshot back out and re-loading it must produce the
// same sections — the round-trip invariant the serve layer relies on.
//
// Every accepted image then goes through the raw AnnotationStore
// constructor, with no audit, and each lookup kind runs on it. On an
// image that breaks the snapshot invariants the answers may be wrong,
// but no lookup may read out of bounds (ASan/UBSan watch). When
// validate_snapshot finds no issue, every answer must equal a linear
// scan of the image.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "serve/snapshot.hpp"
#include "serve/store.hpp"

namespace {

// Traps when a clean image answers differently from the linear scan.
void check(bool clean, bool same) {
  if (clean && !same) __builtin_trap();
}

void probe_store(serve::Snapshot snap) {
  const bool clean = serve::validate_snapshot(snap).empty();
  const serve::AnnotationStore store(std::move(snap));
  const auto& table = store.snapshot().interfaces;
  const auto& links = store.snapshot().as_links;

  std::vector<netbase::IPAddr> probes;
  for (const auto& rec : table) probes.push_back(rec.addr);
  probes.push_back(netbase::IPAddr::must_parse("203.0.113.255"));
  for (const auto& addr : probes) {
    const serve::SnapshotIface* expect = nullptr;
    for (const auto& rec : table)
      if (rec.addr == addr && !expect) expect = &rec;
    check(clean, store.find(addr) == expect);
  }

  std::vector<netbase::Prefix> cidrs = {netbase::Prefix::must_parse("0.0.0.0/0"),
                                        netbase::Prefix::must_parse("::/0")};
  if (!table.empty()) cidrs.emplace_back(table.front().addr, 24);
  for (const auto& cidr : cidrs) {
    std::vector<const serve::SnapshotIface*> got, expect;
    for (const auto& rec : store.find_under(cidr)) got.push_back(&rec);
    for (const auto& rec : table)
      if (cidr.contains(rec.addr)) expect.push_back(&rec);
    check(clean, got == expect);
  }

  if (!table.empty()) {
    const std::uint32_t router = table.front().router_id;
    const auto members = store.router_members(router);
    std::vector<std::uint32_t> expect;
    for (std::uint32_t i = 0; i < table.size(); ++i)
      if (table[i].router_id == router) expect.push_back(i);
    for (const std::uint32_t pos : members)
      if (table[pos].router_id != router) __builtin_trap();
    check(clean, std::ranges::equal(members, expect));
  }

  if (!links.empty()) {
    for (const netbase::Asn asn : {links.front().first, links.front().second}) {
      std::vector<serve::AnnotationStore::AsLink> expect;
      for (const auto& link : links)
        if (link.first == asn || link.second == asn) expect.push_back(link);
      check(clean, std::ranges::equal(store.links_of(asn), expect));
      std::uint64_t ifaces = 0;
      for (const auto& rec : table) ifaces += rec.inf.router_as == asn;
      check(clean, store.iface_count_of(asn) == ifaces);
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  std::istringstream in(bytes, std::ios::binary);
  serve::Snapshot snap;
  std::string error;
  if (!serve::load_snapshot(in, &snap, &error)) {
    if (error.empty()) __builtin_trap();  // rejections must be diagnosed
    return 0;
  }

  std::ostringstream out(std::ios::binary);
  serve::write_snapshot(out, snap);
  std::istringstream in2(out.str(), std::ios::binary);
  serve::Snapshot snap2;
  if (!serve::load_snapshot(in2, &snap2, &error)) __builtin_trap();
  if (snap2.iterations != snap.iterations ||
      snap2.router_count != snap.router_count ||
      snap2.interfaces.size() != snap.interfaces.size() ||
      snap2.as_links != snap.as_links ||
      snap2.iteration_stats.size() != snap.iteration_stats.size())
    __builtin_trap();
  probe_store(std::move(snap));
  return 0;
}
