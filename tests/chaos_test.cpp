// Chaos suite: seeded fault-injection schedules over the whole serving
// stack (ISSUE 10 acceptance gate). Compiled and registered only when
// BDRMAPIT_FAILPOINTS is on — the default everywhere except Release.
//
// Three layers of coverage:
//
//   1. Unit behaviour of the failpoint registry itself — spec grammar,
//      errno names, probability determinism under a fixed seed,
//      times=K auto-disarm, 1in=N pacing.
//
//   2. Scenario A, the *concurrent hammer*: real loopback clients
//      pipeline requests at a live server while net.accept, net.read,
//      net.sendmsg, and core.alloc fire on randomized-but-seeded
//      schedules. Invariants, per schedule:
//        - the process neither crashes nor wedges (every client's
//          recv deadline is the wedge detector);
//        - whatever bytes a surviving client received are an exact
//          prefix of the reply stream an unfaulted server would have
//          sent — injected faults may truncate, never corrupt;
//        - after disarming, a fresh client gets a complete, correct
//          answer (the server recovered);
//        - NETSTATS failure counters equal the failpoint hit counts
//          EXACTLY — every injected fault is visible, and nothing
//          else increments the failure counters.
//
//   3. Scenario B, the *reload torture*: a publisher thread reloads
//      snapshot files through the same load -> audit -> publish
//      sequence the app's ReloadDriver runs, while serve.snapshot.read
//      (short reads and hard errnos), serve.store.open, and
//      parallel.job fire one-shot per attempt. Invariants:
//        - a failed attempt leaves the old generation serving: every
//          client reply remains whole and single-generation;
//        - failed attempts == injected-fault fires, exactly;
//        - the published generation count equals 1 + successes.

#include <arpa/inet.h>
#include <cerrno>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/failpoint.hpp"
#include "net/event_loop.hpp"
#include "net/server.hpp"
#include "serve/bulk.hpp"
#include "serve/bulk_transport.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"

namespace {

namespace fp = core::failpoint;

static_assert(fp::compiled_in(),
              "chaos_test must only build when failpoints are compiled in");

// Deterministic schedule generator for the chaos legs (the sites have
// their own seeded PRNGs; this one only picks which sites to arm).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
};

// ---- failpoint registry unit behaviour ---------------------------------

TEST(Failpoint, UnarmedSiteNeverFires) {
  fp::reset_all(1);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(BDRMAPIT_FAILPOINT("chaos.unit.idle"));
  EXPECT_EQ(fp::hits("chaos.unit.idle"), 0u);
}

TEST(Failpoint, ErrSpecFiresWithTheArmedErrno) {
  fp::reset_all(1);
  ASSERT_TRUE(fp::arm("chaos.unit.err=err:EPIPE"));
  const auto fired = fp::site("chaos.unit.err").evaluate();
  ASSERT_TRUE(fired);
  EXPECT_EQ(fired.action, fp::Action::kErr);
  EXPECT_EQ(fired.err, EPIPE);
  EXPECT_EQ(fp::hits("chaos.unit.err"), 1u);
  fp::disarm_all();
}

TEST(Failpoint, ShortAndOnActions) {
  fp::reset_all(1);
  ASSERT_TRUE(fp::arm("chaos.unit.short=short;chaos.unit.on=on"));
  EXPECT_EQ(fp::site("chaos.unit.short").evaluate().action, fp::Action::kShort);
  const auto on = fp::site("chaos.unit.on").evaluate();
  EXPECT_EQ(on.action, fp::Action::kOn);
  EXPECT_EQ(on.err, 0);
  fp::disarm_all();
}

TEST(Failpoint, OffClauseDisarms) {
  fp::reset_all(1);
  ASSERT_TRUE(fp::arm("chaos.unit.off=on"));
  EXPECT_TRUE(fp::site("chaos.unit.off").evaluate());
  ASSERT_TRUE(fp::arm("chaos.unit.off=off"));
  EXPECT_FALSE(fp::site("chaos.unit.off").evaluate());
  EXPECT_EQ(fp::hits("chaos.unit.off"), 1u);
}

TEST(Failpoint, TimesLimitAutoDisarms) {
  fp::reset_all(1);
  ASSERT_TRUE(fp::arm("chaos.unit.times=on:times=3"));
  int fires = 0;
  for (int i = 0; i < 50; ++i)
    if (fp::site("chaos.unit.times").evaluate()) ++fires;
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(fp::hits("chaos.unit.times"), 3u);
}

TEST(Failpoint, OneInNFiresOnEveryNthEvaluation) {
  fp::reset_all(1);
  ASSERT_TRUE(fp::arm("chaos.unit.nth=on:1in=4"));
  std::vector<bool> pattern;
  for (int i = 0; i < 12; ++i)
    pattern.push_back(static_cast<bool>(fp::site("chaos.unit.nth").evaluate()));
  const std::vector<bool> want = {false, false, false, true, false, false,
                                  false, true,  false, false, false, true};
  EXPECT_EQ(pattern, want);
  fp::disarm_all();
}

TEST(Failpoint, ProbabilityIsDeterministicUnderASeed) {
  auto run_schedule = [](std::uint64_t seed) {
    fp::reset_all(seed);
    EXPECT_TRUE(fp::arm("chaos.unit.prob=on:p=0.5"));
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i)
      fires.push_back(static_cast<bool>(fp::site("chaos.unit.prob").evaluate()));
    fp::disarm_all();
    return fires;
  };
  const auto a = run_schedule(42);
  const auto b = run_schedule(42);
  EXPECT_EQ(a, b) << "same seed must replay the same fire schedule";
  const auto c = run_schedule(43);
  EXPECT_NE(a, c) << "a different seed should give a different schedule";
  // p=0.5 over 200 draws: both outcomes must actually occur.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST(Failpoint, MalformedSpecsAreRejectedWithDiagnostics) {
  std::string error;
  EXPECT_FALSE(fp::arm("nonsense", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(fp::arm("x=bogus-action", &error));
  EXPECT_FALSE(fp::arm("x=err:ENOTANERRNO", &error));
  EXPECT_FALSE(fp::arm("x=on:p=1.5", &error));
  EXPECT_FALSE(fp::arm("x=on:times=abc", &error));
  EXPECT_FALSE(fp::arm("x=on:unknown=1", &error));
  EXPECT_FALSE(fp::arm("=on", &error));
}

TEST(Failpoint, ParseErrnoNamesAndNumbers) {
  EXPECT_EQ(fp::parse_errno("EPIPE"), EPIPE);
  EXPECT_EQ(fp::parse_errno("EMFILE"), EMFILE);
  EXPECT_EQ(fp::parse_errno("EIO"), EIO);
  EXPECT_EQ(fp::parse_errno("ENOSPC"), ENOSPC);
  EXPECT_EQ(fp::parse_errno("13"), 13);
  EXPECT_EQ(fp::parse_errno("EWHATEVER"), -1);
  EXPECT_EQ(fp::parse_errno(""), -1);
}

TEST(Failpoint, AllHitsEnumeratesSites) {
  fp::reset_all(7);
  ASSERT_TRUE(fp::arm("chaos.unit.enum=on:times=2"));
  fp::site("chaos.unit.enum").evaluate();
  fp::site("chaos.unit.enum").evaluate();
  bool found = false;
  for (const auto& [name, hits] : fp::all_hits())
    if (name == "chaos.unit.enum") {
      found = true;
      EXPECT_EQ(hits, 2u);
    }
  EXPECT_TRUE(found);
}

// ---- shared serving fixture --------------------------------------------

// Two snapshot generations over the same addresses, annotations offset
// by +100 — the same detectability trick as the reload torture suite:
// every reply row names the generation that produced it.
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
  snap.interfaces.push_back(iface("10.0.0.1", 0, 65001, 65002));
  snap.interfaces.push_back(iface("10.0.0.2", 0, 65001, netbase::kNoAs));
  snap.interfaces.push_back(iface("10.0.1.1", 1, 65002, 65001));
  snap.interfaces.push_back(iface("192.0.2.9", 2, 65003, netbase::kNoAs));
  snap.as_links.emplace_back(65001 + offset, 65002 + offset);
  return snap;
}

int generation_of_as(std::uint64_t router_as) {
  if (router_as >= 65001 && router_as <= 65003) return 1;
  if (router_as >= 65001 + kGenBOffset && router_as <= 65003 + kGenBOffset)
    return 2;
  return 0;
}

// Minimal blocking loopback client with a receive deadline. The
// deadline doubles as the suite's wedge detector: a hung server turns
// into a recv timeout and a failed assertion, never a hung test.
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

  /// Best-effort send: an injected fault may have closed the server
  /// side already, so a failed send is a legitimate chaos outcome.
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

  /// Half-close the write side, then drain everything until EOF (or
  /// deadline). Draining to EOF is what keeps the *server's* failure
  /// counters clean: the client never resets the connection, so every
  /// read/write error the server counts is an injected one.
  std::string half_close_and_drain() const {
    ::shutdown(fd, SHUT_WR);
    std::string out;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;  // EOF, injected close, or deadline
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

  std::string recv_lines(std::size_t lines) const {
    std::string out;
    std::size_t seen = 0;
    char buf[4096];
    while (seen < lines) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      for (ssize_t i = 0; i < n; ++i)
        if (buf[i] == '\n') ++seen;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }
};

class ChaosTest : public ::testing::Test {
 protected:
  void StartServer(int threads) {
    auto store = serve::AnnotationStore::open(make_snapshot(0));
    ASSERT_NE(store, nullptr);
    handle_ = std::make_unique<serve::StoreHandle>(std::move(store));
    protocol_ = std::make_unique<serve::Protocol>(*handle_);
    net::ServerConfig config;
    config.host = "127.0.0.1";
    config.port = 0;  // ephemeral
    config.threads = threads;
    config.binary_magic = serve::bulk::kMagic;
    // Short cadences so fd-exhaustion backoff and its tick-driven
    // resume both happen inside one schedule.
    config.tick_period = std::chrono::milliseconds(25);
    config.accept_backoff = std::chrono::milliseconds(10);
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
    fp::disarm_all();
    if (server_) server_->shutdown();
  }

  std::unique_ptr<serve::StoreHandle> handle_;
  std::unique_ptr<serve::Protocol> protocol_;
  std::unique_ptr<net::Server> server_;
  std::uint16_t port_ = 0;
};

// ---- scenario A: concurrent hammer under net-layer faults --------------

TEST_F(ChaosTest, HammerSurvivesSeededNetFaultSchedules) {
  constexpr std::uint64_t kSchedules = 26;
  constexpr int kClients = 4;
  constexpr int kRequests = 16;
  std::uint64_t total_injected = 0;
  std::uint64_t total_clean_replies = 0;

  for (std::uint64_t seed = 1; seed <= kSchedules; ++seed) {
    StartServer(/*threads=*/2);

    // The reply stream an unfaulted server would send for the client's
    // whole pipeline; every received stream must be a prefix of it.
    std::string one_reply;
    protocol_->handle_line("IFACE 10.0.0.1", one_reply);
    ASSERT_FALSE(one_reply.empty());
    std::string expected;
    for (int i = 0; i < kRequests; ++i) expected += one_reply;

    // Seeded schedule: which sites fire, how hard. At least one site
    // is always armed, none unboundedly hostile — clients must retain
    // a path to progress within their recv deadlines.
    fp::reset_all(seed);
    Rng rng{seed * 0x2545F4914F6CDD1DULL};
    const double read_p[] = {0, 0.02, 0.1, 0.3};
    const double send_p[] = {0, 0.05, 0.15, 0.25};
    const double alloc_p[] = {0, 0.01, 0.05};
    const std::uint64_t accept_times[] = {0, 1, 2};
    double rp = read_p[rng.next() % 4];
    const double sp = send_p[rng.next() % 4];
    const double ap = alloc_p[rng.next() % 3];
    const std::uint64_t at = accept_times[rng.next() % 3];
    if (rp == 0 && sp == 0 && ap == 0 && at == 0) rp = 0.1;
    if (rp > 0) fp::site("net.read").arm(fp::Action::kErr, EIO, rp, 0, 0);
    if (sp > 0) fp::site("net.sendmsg").arm(fp::Action::kErr, EPIPE, sp, 0, 0);
    if (ap > 0) fp::site("core.alloc").arm(fp::Action::kOn, 0, ap, 0, 0);
    if (at > 0) fp::site("net.accept").arm(fp::Action::kOn, 0, 1.0, at, 0);

    std::vector<std::string> received(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        Client client(port_);
        if (!client.connected()) return;  // refused under fd exhaustion
        std::string request;
        for (int i = 0; i < kRequests; ++i) request += "IFACE 10.0.0.1\n";
        client.send_str(request);  // best effort under fire
        received[c] = client.half_close_and_drain();
      });
    for (auto& t : clients) t.join();

    // Byte correctness: truncation is legal, corruption is not.
    for (int c = 0; c < kClients; ++c) {
      ASSERT_LE(received[c].size(), expected.size())
          << "seed " << seed << " client " << c;
      EXPECT_EQ(received[c], expected.substr(0, received[c].size()))
          << "seed " << seed << " client " << c
          << ": received bytes diverge from the unfaulted reply stream";
      if (received[c] == expected) ++total_clean_replies;
    }

    // Recovery: disarm, and a fresh client must get a full answer even
    // if the acceptor is still inside its fd-exhaustion backoff.
    fp::disarm_all();
    Client probe(port_);
    ASSERT_TRUE(probe.connected()) << "seed " << seed;
    ASSERT_TRUE(probe.send_str("IFACE 10.0.0.1\n")) << "seed " << seed;
    EXPECT_EQ(probe.half_close_and_drain(), one_reply)
        << "seed " << seed << ": server did not recover after disarm";

    // Exactness: drain the server (full quiescence), then every
    // failure counter must equal its site's fire count.
    server_->shutdown();
    const net::ServerStats st = server_->stats();
    EXPECT_EQ(st.read_errors, fp::hits("net.read")) << "seed " << seed;
    EXPECT_EQ(st.write_errors, fp::hits("net.sendmsg")) << "seed " << seed;
    EXPECT_EQ(st.accept_failures, fp::hits("net.accept")) << "seed " << seed;
    EXPECT_EQ(st.oom_closed, fp::hits("core.alloc")) << "seed " << seed;
    total_injected += fp::hits("net.read") + fp::hits("net.sendmsg") +
                      fp::hits("net.accept") + fp::hits("core.alloc");
    server_.reset();
  }

  // The suite must actually have exercised both regimes: faults fired,
  // and some clients still completed unharmed.
  EXPECT_GT(total_injected, 0u);
  EXPECT_GT(total_clean_replies, 0u);
}

// ---- scenario B: reload torture under I/O and pool faults --------------

TEST_F(ChaosTest, ReloadTortureKeepsGenerationsConsistent) {
  constexpr std::uint64_t kSchedules = 26;
  constexpr int kAttemptsPerSchedule = 8;

  // Snapshot files on disk, as the real RELOAD path loads them.
  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "/chaos_gen_a.snap";
  const std::string path_b = dir + "/chaos_gen_b.snap";
  std::string werr;
  ASSERT_TRUE(serve::write_snapshot_file(path_a, make_snapshot(0), &werr))
      << werr;
  ASSERT_TRUE(
      serve::write_snapshot_file(path_b, make_snapshot(kGenBOffset), &werr))
      << werr;

  std::uint64_t total_failures = 0;
  for (std::uint64_t seed = 1; seed <= kSchedules; ++seed) {
    StartServer(/*threads=*/2);
    fp::reset_all(seed);
    Rng rng{seed ^ 0xA3C59AC2ED9B81ULL};

    std::atomic<bool> stop{false};
    std::vector<std::string> failures(2);
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c)
      clients.emplace_back([&, c] {
        Client client(port_);
        if (!client.connected()) {
          failures[c] = "connect failed";
          return;
        }
        while (!stop.load(std::memory_order_relaxed)) {
          if (!client.send_str("IFACE 10.0.0.1 10.0.1.1\n")) {
            failures[c] = "send failed";
            return;
          }
          const std::string text = client.recv_lines(2);
          int text_gen = 0;
          std::size_t rows = 0;
          for (std::size_t start = 0; start < text.size(); ++rows) {
            const std::size_t nl = text.find('\n', start);
            if (nl == std::string::npos) break;
            const std::size_t t1 = text.find('\t', start);
            if (t1 == std::string::npos || t1 > nl) {
              failures[c] = "unparseable reply row: " + text;
              return;
            }
            const int gen = generation_of_as(
                std::strtoull(text.c_str() + t1 + 1, nullptr, 10));
            if (gen == 0) {
              failures[c] = "row from no known generation: " + text;
              return;
            }
            if (text_gen == 0) text_gen = gen;
            if (gen != text_gen) {
              failures[c] = "mixed generations in one reply: " + text;
              return;
            }
            start = nl + 1;
          }
          if (rows != 2) {
            failures[c] = "dropped reply rows: " + text;
            return;
          }
        }
      });

    // Publisher: the app's do_reload sequence, with one-shot faults
    // armed per attempt so fires == failed attempts, exactly.
    std::uint64_t expect_failed = 0;
    std::uint64_t expect_ok = 0;
    for (int attempt = 0; attempt < kAttemptsPerSchedule; ++attempt) {
      const std::string& path = (attempt % 2 == 0) ? path_b : path_a;
      const std::uint64_t fault = rng.next() % 5;
      bool expect_failure = fault != 0;
      switch (fault) {
        case 1:
          fp::site("serve.snapshot.read").arm(fp::Action::kShort, 0, 1.0, 1, 0);
          break;
        case 2:
          fp::site("serve.snapshot.read").arm(fp::Action::kErr, EIO, 1.0, 1, 0);
          break;
        case 3:
          fp::site("parallel.job").arm(fp::Action::kOn, 0, 1.0, 1, 0);
          break;
        case 4:
          fp::site("serve.store.open").arm(fp::Action::kOn, 0, 1.0, 1, 0);
          break;
        default:
          break;
      }
      serve::Snapshot snap;
      std::string err;
      bool ok = false;
      // Mirror the driver: exceptions out of the load/audit (the
      // parallel.job fault propagates as bad_alloc) are a failed
      // attempt, never a dead publisher.
      try {
        if (serve::load_snapshot_file(path, &snap, &err)) {
          auto next = serve::AnnotationStore::open(std::move(snap),
                                                   /*threads=*/2);
          if (next != nullptr) {
            handle_->publish(std::move(next));
            server_->broadcast([] {});
            ok = true;
          }
        }
      } catch (const std::exception&) {
        ok = false;
      }
      EXPECT_EQ(ok, !expect_failure)
          << "seed " << seed << " attempt " << attempt << " fault " << fault
          << (err.empty() ? "" : ": " + err);
      (ok ? expect_ok : expect_failed) += 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    stop.store(true, std::memory_order_relaxed);
    for (auto& t : clients) t.join();
    for (int c = 0; c < 2; ++c)
      EXPECT_EQ(failures[c], "") << "seed " << seed << " client " << c;

    // Every injected fire accounts for exactly one failed attempt.
    const std::uint64_t fires = fp::hits("serve.snapshot.read") +
                                fp::hits("parallel.job") +
                                fp::hits("serve.store.open");
    EXPECT_EQ(fires, expect_failed) << "seed " << seed;
    // And the generation counter moved once per success, from 1.
    EXPECT_EQ(handle_->generation(), expect_ok + 1) << "seed " << seed;
    total_failures += expect_failed;

    fp::disarm_all();
    server_->shutdown();
    server_.reset();
  }
  EXPECT_GT(total_failures, 0u);
}

// ---- wedge immunity: swallowed eventfd wakes ---------------------------

// With every wake() swallowed, a posted task must still run — the loop
// re-checks its queue before sleeping and bounds its sleep by the tick,
// so the worst case is one tick of latency, not a wedge.
TEST(ChaosEventLoop, SwallowedWakesCannotWedgeALoopWithATick) {
  fp::reset_all(99);
  net::EventLoop loop;
  loop.set_tick(std::chrono::milliseconds(10), [] {});
  std::thread runner([&loop] { loop.run(); });

  ASSERT_TRUE(fp::arm("net.wake=on"));
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i)
    loop.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ran.load(std::memory_order_relaxed) < 8 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 8);
  EXPECT_GT(fp::hits("net.wake"), 0u);

  // stop() wakes are swallowed too; the tick bounds how long the loop
  // takes to notice the flag.
  loop.stop();
  runner.join();
  fp::disarm_all();
}

// With failpoints compiled in but nothing armed from the environment,
// a full client round-trip behaves exactly as an unfaulted build —
// the compiled-in machinery is inert until armed.
TEST_F(ChaosTest, UnarmedFailpointsAreInert) {
  fp::reset_all(1);
  StartServer(1);
  std::string expected;
  protocol_->handle_line("IFACE 10.0.0.1", expected);
  Client client(port_);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_str("IFACE 10.0.0.1\n"));
  EXPECT_EQ(client.half_close_and_drain(), expected);
  const net::ServerStats st = server_->stats();
  EXPECT_EQ(st.read_errors, 0u);
  EXPECT_EQ(st.write_errors, 0u);
  EXPECT_EQ(st.accept_failures, 0u);
  EXPECT_EQ(st.oom_closed, 0u);
}

}  // namespace
