// Hot snapshot reload torture suite (ISSUE 9 acceptance gate).
//
// The contract under test: serve::StoreHandle lets a reload driver
// publish a freshly built AnnotationStore while the TCP server is
// answering live traffic, and
//
//   * no query is ever dropped, errored, or answered partially because
//     a swap happened mid-request;
//   * every reply — multi-address text IFACE line or multi-record BULK
//     frame — is consistent with exactly ONE generation: a request
//     pins the store it starts on, so a concurrent publish can never
//     mix old and new annotations inside one response;
//   * a failed reload (audit-violating candidate) publishes nothing:
//     the old generation keeps serving and its refcount discipline
//     keeps it alive for exactly as long as someone reads from it.
//
// The two generations carry the same four interface addresses with
// router/conn AS numbers offset by +100, so every reply row names the
// generation that produced it and a mixed reply is detectable from the
// client side. The torture legs run the same clients-vs-publisher race
// at 1, 2, and 8 event loops; the suite is in CI's TSan job, where a
// misfenced swap path would show up as a data race.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "serve/bulk.hpp"
#include "serve/bulk_transport.hpp"
#include "serve/protocol.hpp"
#include "serve/store.hpp"

namespace {

// Generation A annotates with ASes 65001..65003; generation B with
// 65101..65103. Same addresses, same shape — only the annotations
// move, exactly like a refreshed production snapshot.
constexpr netbase::Asn kGenBOffset = 100;

serve::Snapshot make_snapshot(netbase::Asn offset) {
  serve::Snapshot snap;
  snap.iterations = 2;
  snap.iteration_stats.resize(2);
  snap.router_count = 3;
  auto iface = [offset](const char* addr, std::uint32_t router_id,
                        netbase::Asn router_as, netbase::Asn conn_as) {
    serve::SnapshotIface rec;
    rec.addr = netbase::IPAddr::must_parse(addr);
    rec.router_id = router_id;
    rec.inf.router_as = router_as + offset;
    rec.inf.conn_as = conn_as == netbase::kNoAs ? conn_as : conn_as + offset;
    rec.inf.seen_non_echo = true;
    return rec;
  };
  // Strictly ascending by address (the audited snapshot invariant).
  snap.interfaces.push_back(iface("10.0.0.1", 0, 65001, 65002));
  snap.interfaces.push_back(iface("10.0.0.2", 0, 65001, netbase::kNoAs));
  snap.interfaces.push_back(iface("10.0.1.1", 1, 65002, 65001));
  snap.interfaces.push_back(iface("192.0.2.9", 2, 65003, netbase::kNoAs));
  snap.as_links.emplace_back(65001 + offset, 65002 + offset);
  return snap;
}

std::shared_ptr<const serve::AnnotationStore> open_generation(
    netbase::Asn offset) {
  auto store = serve::AnnotationStore::open(make_snapshot(offset));
  if (store == nullptr) ADD_FAILURE() << "seed snapshot failed its audit";
  return store;
}

/// Which generation annotated a reply row: 1 for A, 2 for B, 0 for an
/// AS number neither generation could have produced.
int generation_of_as(std::uint64_t router_as) {
  if (router_as >= 65001 && router_as <= 65003) return 1;
  if (router_as >= 65001 + kGenBOffset && router_as <= 65003 + kGenBOffset)
    return 2;
  return 0;
}

// Minimal blocking loopback client with a receive deadline (a server
// bug fails the test rather than hanging it).
struct Client {
  int fd = -1;

  explicit Client(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd);
      fd = -1;
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
  ~Client() {
    if (fd >= 0) ::close(fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd >= 0; }

  bool send_str(std::string_view bytes) const {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::string recv_lines(std::size_t lines) const {
    std::string out;
    std::size_t seen = 0;
    char buf[4096];
    while (seen < lines) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;  // timeout, error, or EOF
      for (ssize_t i = 0; i < n; ++i)
        if (buf[i] == '\n') ++seen;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

  std::string recv_bytes(std::size_t want) const {
    std::string out;
    char buf[4096];
    while (out.size() < want) {
      const std::size_t chunk = std::min(sizeof buf, want - out.size());
      const ssize_t n = ::recv(fd, buf, chunk, 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }
};

// ---- StoreHandle unit behaviour ----------------------------------------

TEST(StoreHandle, PublishBumpsGenerationAndSwapsAnswers) {
  serve::StoreHandle handle(open_generation(0));
  EXPECT_EQ(handle.generation(), 1u);
  const auto addr = netbase::IPAddr::must_parse("10.0.0.1");
  EXPECT_EQ(handle.acquire()->find(addr)->inf.router_as, 65001u);

  EXPECT_EQ(handle.publish(open_generation(kGenBOffset)), 2u);
  EXPECT_EQ(handle.generation(), 2u);
  EXPECT_EQ(handle.acquire()->find(addr)->inf.router_as,
            65001u + kGenBOffset);
}

TEST(StoreHandle, HeldRefSurvivesPublish) {
  serve::StoreHandle handle(open_generation(0));
  const serve::StoreHandle::StoreRef pinned = handle.acquire();
  handle.publish(open_generation(kGenBOffset));
  handle.publish(open_generation(0));  // retire generation 2 as well
  // The pin keeps generation 1 alive and self-consistent even though
  // the handle has moved on twice since.
  const auto addr = netbase::IPAddr::must_parse("10.0.1.1");
  EXPECT_EQ(pinned->find(addr)->inf.router_as, 65002u);
  EXPECT_EQ(pinned->stats().interfaces, 4u);
  EXPECT_EQ(handle.generation(), 3u);
}

// ---- live-swap torture over real sockets -------------------------------

class NetReloadTest : public ::testing::Test {
 protected:
  void StartServer(int threads) {
    handle_ = std::make_unique<serve::StoreHandle>(open_generation(0));
    ASSERT_NE(handle_->acquire(), nullptr);
    protocol_ = std::make_unique<serve::Protocol>(*handle_);
    net::ServerConfig config;
    config.host = "127.0.0.1";
    config.port = 0;  // ephemeral
    config.threads = threads;
    config.binary_magic = serve::bulk::kMagic;
    server_ = std::make_unique<net::Server>(
        std::move(config),
        [this](std::string_view line, std::string& out) {
          return protocol_->handle_line(line, out) ==
                         serve::Protocol::Action::kQuit
                     ? net::HandlerAction::kClose
                     : net::HandlerAction::kContinue;
        },
        serve::bulk::make_frame_handler(*protocol_));
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
    port_ = server_->port();
    ASSERT_NE(port_, 0);
  }

  void TearDown() override {
    if (server_) server_->shutdown();
  }

  /// 8 clients hammer interleaved text + BULK requests while a
  /// publisher swaps generations kSwaps times; every reply must be
  /// whole, correct, and single-generation.
  void RunTorture(int threads) {
    StartServer(threads);
    constexpr int kClients = 8;
    constexpr int kSwaps = 24;  // >= 20 live swaps per the acceptance bar

    std::string bulk_frame;
    serve::bulk::append_request(bulk_frame,
                                {netbase::IPAddr::must_parse("10.0.0.1"),
                                 netbase::IPAddr::must_parse("10.0.0.2"),
                                 netbase::IPAddr::must_parse("10.0.1.1"),
                                 netbase::IPAddr::must_parse("192.0.2.9")});
    const std::size_t bulk_reply_bytes =
        serve::bulk::kHeaderBytes + 4 * serve::bulk::kResultRecBytes;

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> seen_gen_a{0};
    std::atomic<std::uint64_t> seen_gen_b{0};
    std::vector<std::string> failures(kClients);
    std::vector<std::uint64_t> completed(kClients, 0);

    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        Client client(port_);
        if (!client.connected()) {
          failures[c] = "connect failed";
          return;
        }
        auto fail = [&](std::string what) { failures[c] = std::move(what); };
        while (!stop.load(std::memory_order_relaxed)) {
          // Text leg: one two-address IFACE request, two reply rows.
          if (!client.send_str("IFACE 10.0.0.1 10.0.1.1\n"))
            return fail("text send failed");
          const std::string text = client.recv_lines(2);
          int text_gen = 0;
          std::size_t rows = 0;
          for (std::size_t start = 0; start < text.size(); ++rows) {
            std::size_t nl = text.find('\n', start);
            if (nl == std::string::npos) break;
            // addr \t router_as \t conn_as \t flags
            const std::size_t t1 = text.find('\t', start);
            if (t1 == std::string::npos || t1 > nl)
              return fail("unparseable reply row: " + text);
            const int gen = generation_of_as(
                std::strtoull(text.c_str() + t1 + 1, nullptr, 10));
            if (gen == 0) return fail("row from no known generation: " + text);
            if (text_gen == 0) text_gen = gen;
            if (gen != text_gen)
              return fail("mixed generations in one text reply: " + text);
            start = nl + 1;
          }
          if (rows != 2) return fail("dropped text reply rows: " + text);
          (text_gen == 1 ? seen_gen_a : seen_gen_b)
              .fetch_add(1, std::memory_order_relaxed);

          // BULK leg: one four-record frame.
          if (!client.send_str(bulk_frame)) return fail("bulk send failed");
          const std::string reply = client.recv_bytes(bulk_reply_bytes);
          if (reply.size() != bulk_reply_bytes)
            return fail("short bulk reply: " + std::to_string(reply.size()));
          std::vector<serve::bulk::ResultRec> recs;
          if (!serve::bulk::parse_response(reply, &recs) || recs.size() != 4)
            return fail("unparseable bulk reply");
          int bulk_gen = 0;
          for (const auto& rec : recs) {
            if (!rec.found()) return fail("bulk record lost its annotation");
            const int gen = generation_of_as(rec.router_as);
            if (gen == 0) return fail("bulk record from no known generation");
            if (bulk_gen == 0) bulk_gen = gen;
            if (gen != bulk_gen)
              return fail("mixed generations in one bulk frame");
          }
          (bulk_gen == 1 ? seen_gen_a : seen_gen_b)
              .fetch_add(1, std::memory_order_relaxed);
          ++completed[c];
        }
      });

    // Publisher: alternate generations under the live clients, with
    // the same post-publish loop broadcast the app's reload driver
    // issues. Building the candidate store is part of each iteration,
    // as a real reload would load + audit + index off the event loops.
    for (int swap = 1; swap <= kSwaps; ++swap) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      auto next = open_generation(swap % 2 == 1 ? kGenBOffset : 0);
      ASSERT_NE(next, nullptr);
      EXPECT_EQ(handle_->publish(std::move(next)),
                static_cast<std::uint64_t>(swap) + 1);
      server_->broadcast([] {});
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : clients) t.join();

    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(failures[c], "") << "client " << c;
      EXPECT_GT(completed[c], 0u) << "client " << c << " never completed";
    }
    // Both generations must actually have answered traffic — otherwise
    // the swaps silently never took effect.
    EXPECT_GT(seen_gen_a.load(), 0u);
    EXPECT_GT(seen_gen_b.load(), 0u);
    EXPECT_EQ(handle_->generation(), static_cast<std::uint64_t>(kSwaps) + 1);
  }

  std::unique_ptr<serve::StoreHandle> handle_;
  std::unique_ptr<serve::Protocol> protocol_;
  std::unique_ptr<net::Server> server_;
  std::uint16_t port_ = 0;
};

TEST_F(NetReloadTest, TortureSingleLoop) { RunTorture(1); }
TEST_F(NetReloadTest, TortureTwoLoops) { RunTorture(2); }
TEST_F(NetReloadTest, TortureEightLoops) { RunTorture(8); }

// A CRC-valid but audit-violating candidate must never become visible:
// open() refuses it, nothing publishes, and the serving generation
// keeps answering — the exact sequence the app's reload driver runs on
// a failed RELOAD.
TEST_F(NetReloadTest, FailedReloadKeepsOldGenerationServing) {
  StartServer(2);
  Client before(port_);
  ASSERT_TRUE(before.connected());
  ASSERT_TRUE(before.send_str("IFACE 10.0.0.1\n"));
  EXPECT_EQ(before.recv_lines(1), "10.0.0.1\t65001\t65002\tB\n");

  serve::Snapshot bad = make_snapshot(kGenBOffset);
  std::swap(bad.interfaces[0], bad.interfaces[1]);  // break the sort order
  std::vector<serve::SnapshotIssue> issues;
  const auto rejected = serve::AnnotationStore::open(std::move(bad), 1,
                                                    &issues);
  EXPECT_EQ(rejected, nullptr);
  EXPECT_FALSE(issues.empty());
  // The driver publishes only on success; the gate returning null is
  // what guarantees no client ever sees the bad image.
  EXPECT_EQ(handle_->generation(), 1u);

  Client after(port_);
  ASSERT_TRUE(after.connected());
  ASSERT_TRUE(after.send_str("IFACE 10.0.0.1\n"));
  EXPECT_EQ(after.recv_lines(1), "10.0.0.1\t65001\t65002\tB\n");
}

// In-flight pins outlive a publish even when the server drains while
// they are held: the refcount, not the handle, owns each generation.
TEST_F(NetReloadTest, PinnedGenerationSurvivesServerShutdown) {
  StartServer(1);
  const serve::StoreHandle::StoreRef pinned = handle_->acquire();
  handle_->publish(open_generation(kGenBOffset));
  server_->shutdown();
  server_.reset();
  EXPECT_EQ(pinned->find(netbase::IPAddr::must_parse("10.0.0.1"))
                ->inf.router_as,
            65001u);
}

}  // namespace
