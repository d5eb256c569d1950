// Allocation accounting for the serving hot paths: once a connection's
// scratch buffers are warm, answering a request — any text read verb
// (IFACE, PREFIX, LINKS, ROUTER, COUNT, STATS), an error reply, or a
// binary BULK frame — must not touch the heap. The global operator
// new/delete are replaced with counting wrappers; each test warms the
// path once (scratch vectors and the reply string grow to capacity),
// zeroes the counter, and asserts the steady-state iterations allocate
// nothing.
//
// This is the same code the TCP server runs: serve::Protocol's
// handle_line/handle_bulk render into a caller-provided reusable
// string exactly as net::Connection's out_ buffer does.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "netbase/ip_addr.hpp"
#include "serve/bulk.hpp"
#include "serve/protocol.hpp"
#include "serve/store.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

}  // namespace

// Counting wrappers. Only the allocation side is counted: frees of
// memory acquired before counting started are legal in steady state.
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Out of line, and the only one that calls free(): GCC then does not
// pair an inlined free() with operator new and warn
// (-Wmismatched-new-delete) about memory this operator new took from
// malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

class AllocGuard {
 public:
  AllocGuard() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocGuard() { g_counting.store(false, std::memory_order_relaxed); }

  std::uint64_t count() const {
    return g_allocs.load(std::memory_order_relaxed);
  }
};

serve::Snapshot tiny_snapshot() {
  serve::Snapshot snap;
  snap.iterations = 1;
  snap.iteration_stats.resize(1);
  snap.router_count = 2;
  auto iface = [](const char* addr, std::uint32_t router_id,
                  netbase::Asn router_as, netbase::Asn conn_as) {
    serve::SnapshotIface rec;
    rec.addr = netbase::IPAddr::must_parse(addr);
    rec.router_id = router_id;
    rec.inf.router_as = router_as;
    rec.inf.conn_as = conn_as;
    rec.inf.seen_non_echo = true;
    return rec;
  };
  snap.interfaces.push_back(iface("10.0.0.1", 0, 65001, 65002));
  snap.interfaces.push_back(iface("10.0.1.1", 1, 65002, 65001));
  snap.interfaces.push_back(iface("2001:db8:1::1", 1, 65002, 65002));
  snap.as_links.emplace_back(65001, 65002);
  return snap;
}

class ServeAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto store = serve::AnnotationStore::open(tiny_snapshot());
    ASSERT_NE(store, nullptr);
    // Serve through the hot-reload handle, exactly as the app does:
    // the per-request acquire() must not cost an allocation either.
    handle_ = std::make_unique<serve::StoreHandle>(std::move(store));
    protocol_ = std::make_unique<serve::Protocol>(*handle_);
  }

  /// Answers `line` a few times so the reply string and the per-thread
  /// parse scratch grow to their steady-state capacity, then returns the
  /// allocations made by 1000 more answers. `reply` gets the last one.
  std::uint64_t warm_allocs(std::string_view line, std::string* reply = nullptr) {
    std::string out;
    for (int i = 0; i < 4; ++i) {
      out.clear();
      protocol_->handle_line(line, out);
    }
    std::uint64_t allocs = 0;
    {
      AllocGuard guard;
      for (int i = 0; i < 1000; ++i) {
        out.clear();  // capacity is retained, exactly like Connection::out_
        protocol_->handle_line(line, out);
      }
      allocs = guard.count();
    }
    if (reply) *reply = out;
    return allocs;
  }

  std::unique_ptr<serve::StoreHandle> handle_;
  std::unique_ptr<serve::Protocol> protocol_;
};

TEST_F(ServeAllocTest, TextIfacePathIsAllocationFreeWhenWarm) {
  // Hits, a miss and a multi-address line.
  EXPECT_EQ(warm_allocs("IFACE 10.0.0.1 10.0.1.1 203.0.113.7"), 0u);
}

TEST_F(ServeAllocTest, PrefixPathIsAllocationFreeWhenWarm) {
  std::string reply;
  EXPECT_EQ(warm_allocs("PREFIX 10.0.0.0/16", &reply), 0u);
  EXPECT_EQ(reply.substr(reply.rfind("END")), "END\t2\n");
  EXPECT_EQ(warm_allocs("PREFIX 2001:db8::/32", &reply), 0u);
  EXPECT_EQ(reply.substr(reply.rfind("END")), "END\t1\n");
}

TEST_F(ServeAllocTest, LinksPathIsAllocationFreeWhenWarm) {
  std::string reply;
  EXPECT_EQ(warm_allocs("LINKS 65001", &reply), 0u);
  EXPECT_EQ(reply, "65001\t65002\nEND\t1\n");
}

TEST_F(ServeAllocTest, RouterPathIsAllocationFreeWhenWarm) {
  std::string reply;
  EXPECT_EQ(warm_allocs("ROUTER 10.0.1.1", &reply), 0u);
  EXPECT_EQ(reply.substr(reply.rfind("END")), "END\t2\n");
}

TEST_F(ServeAllocTest, CountAndStatsPathsAreAllocationFreeWhenWarm) {
  std::string reply;
  EXPECT_EQ(warm_allocs("COUNT 65002", &reply), 0u);
  EXPECT_EQ(reply, "65002\t2\n");
  EXPECT_EQ(warm_allocs("STATS", &reply), 0u);
  EXPECT_EQ(reply.substr(reply.rfind("END")), "END\t6\n");
}

TEST_F(ServeAllocTest, BulkPathIsAllocationFreeWhenWarm) {
  std::vector<netbase::IPAddr> addrs;
  for (int i = 0; i < 256; ++i)
    addrs.push_back(netbase::IPAddr::must_parse(i % 2 == 0 ? "10.0.0.1"
                                                           : "10.0.1.1"));
  addrs.push_back(netbase::IPAddr::must_parse("2001:db8::1"));  // miss
  std::string frame;
  serve::bulk::append_request(frame, addrs);

  std::string out;
  serve::Protocol::BulkScratch scratch;
  for (int i = 0; i < 4; ++i) {  // warm the scratch vectors and reply
    out.clear();
    ASSERT_TRUE(protocol_->handle_bulk(frame, out, scratch).ok);
  }

  AllocGuard guard;
  for (int i = 0; i < 1000; ++i) {
    out.clear();
    const auto r = protocol_->handle_bulk(frame, out, scratch);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.addrs, addrs.size());
  }
  EXPECT_EQ(guard.count(), 0u)
      << "bulk steady state allocated " << guard.count() << " times";
}

TEST_F(ServeAllocTest, StoreHandleAcquireIsAllocationFree) {
  // The generation pin is a shared_ptr copy out of the handle — one
  // atomic refcount bump, never a heap allocation. This is what keeps
  // the reload indirection compatible with the zero-allocation reply
  // contract the other tests enforce end to end.
  AllocGuard guard;
  for (int i = 0; i < 1000; ++i) {
    const serve::StoreHandle::StoreRef pinned = handle_->acquire();
    ASSERT_NE(pinned, nullptr);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "acquire() allocated " << guard.count() << " times";
}

TEST_F(ServeAllocTest, ErrorRepliesAreAllocationFreeWhenWarm) {
  EXPECT_EQ(warm_allocs("IFACE notanaddress"), 0u);
  EXPECT_EQ(warm_allocs("NOSUCH"), 0u);
  EXPECT_EQ(warm_allocs("ROUTER 203.0.113.7"), 0u);
}

}  // namespace
