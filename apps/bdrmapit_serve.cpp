// apps/bdrmapit_serve.cpp — query engine over a bdrmapIT snapshot.
//
//   bdrmapit_serve --snapshot FILE [--quiet] [--threads N] [--no-reload]
//                  [--listen ADDR:PORT] [--max-conns N]
//                  [--idle-timeout SECONDS]
//                  [--bulk | --no-bulk] [--rate-limit N [--rate-burst N]]
//                  [--rate-limit-source N [--rate-burst-source N]]
//
// Loads a snapshot written by `bdrmapit_cli --snapshot-out` and
// answers queries — by default on stdin (one request per line, replies
// on stdout), or over TCP with `--listen` (e.g. `--listen
// 127.0.0.1:8264`, also `[::1]:8264`). Both transports drive the same
// serve::Protocol, so a given request stream yields byte-identical
// replies either way. The protocol grammar, framing rules, and the TCP
// path's backpressure/timeout/overload semantics live in
// docs/SERVING.md.
//
// Before serving, the snapshot image is audited against the pipeline's
// structural invariants (serve::validate_snapshot) — the CRC in the
// header only proves the file is the one that was written, the audit
// proves it is one the pipeline could have written. Violations are
// fatal: one   audit violation [serve-load] <check>: <detail>   line
// per finding on stderr, exit 2, and no query is ever answered from
// the bad image. The gate always runs: lookups binary-search the
// image's sorted arrays, so they rely on the invariants it checks.
//
// The serving store can be swapped live — *hot reload* — without
// dropping a connection or a query: `RELOAD <path>` (admin verb, both
// transports) or SIGHUP (re-reads the most recently served path). The
// candidate passes the same load + audit gate off the serving threads;
// only on success does the new generation publish, and any in-flight
// request finishes on the generation it started with. On failure the
// old generation keeps serving, one diagnostic line goes to stderr,
// and NETSTATS counts reload_failed. `--no-reload` disables the verb
// (ERR not-admin) and leaves SIGHUP at its default disposition.
//
// `--threads N` is the one concurrency knob: it shards the audit scans
// and sizes the TCP event loops (0 picks hardware concurrency). Numeric
// flags take whole numbers only (apps/cli.hpp): "abc", "5x" or an
// empty value is a usage error, exit 1.
//
// The TCP transport also speaks the binary BULK lookup protocol
// (serve/bulk.hpp, docs/SERVING.md): frames starting with the 0xBD
// magic answer up to 64 Ki packed addresses in one fixed-width
// response frame. On by default; `--no-bulk` restricts the stream to
// text lines. `--rate-limit N` enforces a per-connection token bucket
// of N requests/sec (burst `--rate-burst`, default max(N, 1));
// `--rate-limit-source N` adds an aggregate bucket shared by every
// connection from one source address, closing the many-connections
// loophole. An over-limit request answers `ERR rate-limited` (text) or
// an error frame (bulk) and the connection closes.
//
// Exit codes: 0 clean (end of stdin, QUIT, or drained SIGTERM/SIGINT),
// 1 usage error, 2 unreadable/corrupt/invariant-violating snapshot,
// 3 listen failure (malformed ADDR:PORT, port already bound, ...).

#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/errno_util.hpp"
#include "core/failpoint.hpp"
#include "core/thread_annotations.hpp"
#include "net/server.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/bulk_transport.hpp"
#include "serve/protocol.hpp"
#include "serve/store.hpp"

#include "cli.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --snapshot FILE [--quiet] [--threads N] "
               "[--no-reload]\n"
               "       [--listen ADDR:PORT] [--max-conns N] "
               "[--idle-timeout SECONDS]\n"
               "       [--bulk|--no-bulk] [--rate-limit N] "
               "[--rate-burst N]\n"
               "       [--rate-limit-source N] [--rate-burst-source N]\n"
               "       [--rate-limit-source-max N]\n",
               argv0);
}

struct ListenAddr {
  std::string host;
  std::uint16_t port = 0;
};

// "HOST:PORT" with a numeric port in [1, 65535]; IPv6 hosts may be
// bracketed ("[::1]:8264"). Host syntax itself is validated by
// net::Listener::open.
std::optional<ListenAddr> parse_listen(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size())
    return std::nullopt;
  std::string host = text.substr(0, colon);
  if (host.size() >= 2 && host.front() == '[' && host.back() == ']')
    host = host.substr(1, host.size() - 2);
  if (host.empty()) return std::nullopt;
  long port = 0;
  for (std::size_t i = colon + 1; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return std::nullopt;
    port = port * 10 + (text[i] - '0');
    if (port > 65535) return std::nullopt;
  }
  if (port < 1) return std::nullopt;
  return ListenAddr{std::move(host), static_cast<std::uint16_t>(port)};
}

net::Server* g_server = nullptr;

void on_terminate_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

// ---------------------------------------------------------------------------
// Hot snapshot reload (docs/SERVING.md, "Hot snapshot reload").
//
// The driver owns a dedicated thread that performs every reload off
// the serving threads: load the candidate snapshot, run the same audit
// gate as startup, and only on success StoreHandle::publish the new
// generation. Any failure — missing file, short read, CRC mismatch,
// audit violation — leaves the current generation serving untouched,
// counts into reload_failed, and prints one diagnostic line to stderr.
//
// Triggers, and who waits for what:
//   * RELOAD <path> over TCP — validated (readable path) and enqueued;
//     the OK reply confirms *queueing*, and the outcome lands in
//     NETSTATS (generation / reloads / reload_failed). A loop thread
//     must never block on a snapshot load.
//   * RELOAD <path> on the stdin REPL — synchronous; the reply is the
//     actual outcome.
//   * SIGHUP — re-reads the most recently served snapshot path. The
//     handler is async-signal-safe: one atomic store plus one eventfd
//     write(2).
class ReloadDriver {
 public:
  ReloadDriver(serve::StoreHandle& handle, int threads,
               std::string initial_path, bool quiet)
      : handle_(handle),
        threads_(threads),
        quiet_(quiet),
        current_path_(std::move(initial_path)) {}

  ~ReloadDriver() {
    stop();
    if (wake_fd_ >= 0) ::close(wake_fd_);
  }

  ReloadDriver(const ReloadDriver&) = delete;
  ReloadDriver& operator=(const ReloadDriver&) = delete;

  bool start(std::string* error) {
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC);
    if (wake_fd_ < 0) {
      if (error) *error = "eventfd: reload wake channel unavailable";
      return false;
    }
    thread_ = std::thread([this] { thread_main(); });
    return true;
  }

  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_release);
    wake();
    thread_.join();
  }

  /// The server whose loops should observe each publish (TCP mode);
  /// nullptr detaches. Serialized against in-flight reloads, so once
  /// detach returns the driver never touches the server again.
  void attach_server(net::Server* server)
      BDRMAPIT_EXCLUDES(reload_mu_, mu_) {
    const core::MutexLock serialize(reload_mu_);
    const core::MutexLock lock(mu_);
    server_ = server;
  }

  /// SIGHUP hook. Async-signal-safe: an atomic store + one write(2).
  void request_from_signal() noexcept {
    sighup_pending_.store(true, std::memory_order_release);
    wake();
  }

  /// TCP RELOAD verb: validates that the path is readable, then queues
  /// the reload for the driver thread. True = accepted (the swap's
  /// outcome is visible via NETSTATS); false = rejected with `detail`.
  bool enqueue(std::string_view path, std::string& detail)
      BDRMAPIT_EXCLUDES(mu_) {
    std::string p(path);
    if (::access(p.c_str(), R_OK) != 0) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "reload failed %s: no such file\n", p.c_str());
      detail = "no-such-file";
      return false;
    }
    {
      const core::MutexLock lock(mu_);
      if (queue_.size() >= kMaxQueued) {
        failed_.fetch_add(1, std::memory_order_relaxed);
        detail = "busy";
        return false;
      }
      queue_.push_back(std::move(p));
    }
    wake();
    return true;
  }

  /// stdin RELOAD verb: performs the reload on the calling thread and
  /// reports the actual outcome.
  bool reload_now(std::string_view path, std::string& detail) {
    return do_reload(std::string(path), &detail);
  }

  std::uint64_t reloads() const noexcept {
    return reloads_.load(std::memory_order_relaxed);
  }
  std::uint64_t failed() const noexcept {
    return failed_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kMaxQueued = 8;

  void wake() noexcept {
    if (wake_fd_ < 0) return;
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  }

  void thread_main() {
    parallel::set_current_thread_name("reload-driver");
    for (;;) {
      std::uint64_t drained = 0;
      const ssize_t r = ::read(wake_fd_, &drained, sizeof drained);
      if (r < 0 && errno == EINTR) continue;
      if (stop_.load(std::memory_order_acquire)) return;
      for (;;) {
        std::string path;
        {
          const core::MutexLock lock(mu_);
          if (queue_.empty()) break;
          path = std::move(queue_.front());
          queue_.pop_front();
        }
        do_reload(path, nullptr);
      }
      if (sighup_pending_.exchange(false, std::memory_order_acq_rel)) {
        std::string path;
        {
          const core::MutexLock lock(mu_);
          path = current_path_;
        }
        if (!quiet_)
          std::fprintf(stderr, "SIGHUP: reloading %s\n", path.c_str());
        do_reload(path, nullptr);
      }
    }
  }

  /// One full reload attempt: load, audit-gate, publish, broadcast.
  /// Serialized by reload_mu_ — overlapping triggers run one at a time.
  bool do_reload(const std::string& path, std::string* detail)
      BDRMAPIT_EXCLUDES(reload_mu_, mu_) {
    const core::MutexLock serialize(reload_mu_);
    const auto fail = [&](const char* code) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      if (detail) *detail = code;
      return false;
    };
    if (::access(path.c_str(), R_OK) != 0) {
      std::fprintf(stderr, "reload failed %s: no such file\n", path.c_str());
      return fail("no-such-file");
    }
    // "serve.reload.load" fails the attempt before any file is touched
    // — the coarse whole-reload fault the finer snapshot/store points
    // compose from.
    if (const auto fp = BDRMAPIT_FAILPOINT("serve.reload.load")) {
      std::fprintf(stderr, "reload failed %s: %s (injected)\n", path.c_str(),
                   core::errno_string(fp.err != 0 ? fp.err : EIO).c_str());
      return fail("load-error");
    }
    serve::Snapshot snap;
    std::string err;
    std::vector<serve::SnapshotIssue> issues;
    std::unique_ptr<serve::AnnotationStore> next;
    // The reload thread must survive anything the load or audit throws
    // (bad_alloc on a huge candidate, a pool worker's propagated
    // exception): a failed reload is a counter and a diagnostic, never
    // a dead driver or a dead process.
    try {
      if (!serve::load_snapshot_file(path, &snap, &err)) {
        std::fprintf(stderr, "reload failed %s: %s\n", path.c_str(),
                     err.c_str());
        return fail("load-error");
      }
      next = serve::AnnotationStore::open(std::move(snap), threads_, &issues);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "reload failed %s: %s\n", path.c_str(), e.what());
      return fail("load-error");
    }
    if (!next) {
      // The startup gate would have refused this image with exit 2;
      // live, the old generation simply keeps serving.
      std::fprintf(stderr,
                   "reload failed %s: snapshot violates %zu invariant(s)\n",
                   path.c_str(), issues.size());
      return fail("audit-violation");
    }
    const std::uint64_t gen = handle_.publish(std::move(next));
    reloads_.fetch_add(1, std::memory_order_relaxed);
    net::Server* server = nullptr;
    {
      const core::MutexLock lock(mu_);
      current_path_ = path;  // SIGHUP now re-reads the new path
      server = server_;
    }
    if (server != nullptr) broadcast_swap(*server);
    if (!quiet_)
      std::fprintf(stderr, "reloaded %s: generation %llu\n", path.c_str(),
                   static_cast<unsigned long long>(gen));
    return true;
  }

  /// Posts a no-op to every loop and waits (bounded) until each has
  /// run its copy: once through, every loop has cycled past the
  /// publish, so no request that acquired the retired generation is
  /// still being parsed when this returns.
  static void broadcast_swap(net::Server& server) {
    struct Latch {
      core::Mutex mu;
      core::CondVar cv;
      std::size_t done BDRMAPIT_GUARDED_BY(mu) = 0;
    };
    auto latch = std::make_shared<Latch>();
    const std::size_t posted = server.broadcast([latch] {
      {
        const core::MutexLock lock(latch->mu);
        ++latch->done;
      }
      latch->cv.notify_one();
    });
    if (posted == 0) return;  // draining: the loops are exiting anyway
    // Bounded wait: a loop stopped by a drain racing this reload may
    // never run its copy, and must not hang the driver.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    core::MutexLock lock(latch->mu);
    while (latch->done < posted) {
      if (!latch->cv.wait_until(lock, deadline)) break;
    }
  }

  serve::StoreHandle& handle_;
  const int threads_;  ///< audit shards; reloads re-run the startup gate
  const bool quiet_;
  int wake_fd_ = -1;
  std::thread thread_;
  core::Mutex reload_mu_;  ///< serializes do_reload end to end
  core::Mutex mu_;         ///< guards the queue / path / server pointer
  std::deque<std::string> queue_ BDRMAPIT_GUARDED_BY(mu_);
  std::string current_path_ BDRMAPIT_GUARDED_BY(mu_);
  net::Server* server_ BDRMAPIT_GUARDED_BY(mu_) = nullptr;
  std::atomic<bool> stop_{false};
  std::atomic<bool> sighup_pending_{false};
  std::atomic<std::uint64_t> reloads_{0};
  std::atomic<std::uint64_t> failed_{0};
};

ReloadDriver* g_reload_driver = nullptr;

void on_reload_signal(int) {
  if (g_reload_driver != nullptr) g_reload_driver->request_from_signal();
}

int run_stdin(const serve::StoreHandle& handle, ReloadDriver* reload) {
  serve::Protocol::ReloadFn reload_fn;
  if (reload != nullptr)
    reload_fn = [reload](std::string_view path, std::string& detail) {
      // Synchronous on the REPL: the reply is the actual outcome.
      return reload->reload_now(path, detail);
    };
  const serve::Protocol protocol(handle, {},  // NETSTATS answers ERR here
                                 std::move(reload_fn));
  std::string line;
  std::string out;
  while (std::getline(std::cin, line)) {
    out.clear();
    const serve::Protocol::Action action = protocol.handle_line(line, out);
    std::cout << out;
    std::cout.flush();
    if (action == serve::Protocol::Action::kQuit) break;
  }
  return 0;
}

struct ListenOptions {
  int threads = 1;
  std::size_t max_conns = 4096;
  long idle_timeout_s = 300;
  bool bulk = true;
  double rate_limit = 0;
  double rate_burst = 0;
  double rate_limit_source = 0;
  double rate_burst_source = 0;
  std::size_t rate_source_max = 65536;
};

int run_listen(const serve::StoreHandle& handle, ReloadDriver* reload,
               const ListenAddr& addr, const ListenOptions& opt, bool quiet) {
  net::ServerConfig config;
  config.host = addr.host;
  config.port = addr.port;
  config.threads = opt.threads;
  config.max_connections = opt.max_conns;
  if (opt.idle_timeout_s > 0)
    config.idle_timeout = std::chrono::seconds(opt.idle_timeout_s);
  config.rate_limit = opt.rate_limit;
  config.rate_burst = opt.rate_burst;
  config.rate_limit_source = opt.rate_limit_source;
  config.rate_burst_source = opt.rate_burst_source;
  config.rate_source_max = opt.rate_source_max;
  if (opt.bulk) {
    config.binary_magic = serve::bulk::kMagic;
    config.rate_limited_frame = serve::bulk::rate_limited_frame(opt.rate_limit);
  }

  // The Protocol is shared by every worker loop; its NETSTATS hook
  // reads the server's atomic counters, wired up after construction.
  net::Server* server_ptr = nullptr;
  serve::Protocol::ReloadFn reload_fn;
  if (reload != nullptr)
    reload_fn = [reload](std::string_view path, std::string& detail) {
      // Asynchronous over TCP: OK confirms queueing, the outcome lands
      // in NETSTATS — a loop thread must never block on a load.
      return reload->enqueue(path, detail);
    };
  const serve::Protocol protocol(
      handle,
      [&server_ptr, &handle, reload] {
        const net::ServerStats st = server_ptr->stats();
        return serve::Protocol::NetStats{
            {"accepted", st.accepted},     {"active", st.active},
            {"closed", st.closed},         {"shed", st.shed},
            {"requests", st.requests},     {"bytes_in", st.bytes_in},
            {"bytes_out", st.bytes_out},   {"rate_limited", st.rate_limited},
            {"read_errors", st.read_errors},
            {"write_errors", st.write_errors},
            {"accept_failures", st.accept_failures},
            {"oom_closed", st.oom_closed},
            {"bulk_frames", st.frames},    {"bulk_addrs", st.frame_units},
            {"reloads", reload != nullptr ? reload->reloads() : 0},
            {"reload_failed", reload != nullptr ? reload->failed() : 0},
            {"generation", handle.generation()},
        };
      },
      std::move(reload_fn));
  net::Server server(
      std::move(config),
      [&protocol](std::string_view line, std::string& out) {
        return protocol.handle_line(line, out) ==
                       serve::Protocol::Action::kQuit
                   ? net::HandlerAction::kClose
                   : net::HandlerAction::kContinue;
      },
      opt.bulk ? serve::bulk::make_frame_handler(protocol)
               : net::FrameHandler{});
  server_ptr = &server;

  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "error: listen %s:%u: %s\n", addr.host.c_str(),
                 static_cast<unsigned>(addr.port), error.c_str());
    return 3;
  }
  if (!quiet)
    std::fprintf(stderr, "listening on %s:%u\n", addr.host.c_str(),
                 static_cast<unsigned>(server.port()));

  if (reload != nullptr) reload->attach_server(&server);
  g_server = &server;
  std::signal(SIGTERM, on_terminate_signal);
  std::signal(SIGINT, on_terminate_signal);
  std::signal(SIGPIPE, SIG_IGN);

  server.wait();  // until SIGTERM/SIGINT drains the loops
  g_server = nullptr;
  // Detach before the server leaves scope; this blocks until any
  // in-flight reload is done touching it.
  if (reload != nullptr) reload->attach_server(nullptr);

  if (!quiet) {
    const net::ServerStats st = server.stats();
    std::fprintf(stderr,
                 "drained: %llu connections served (%llu shed), %llu "
                 "requests, %llu bytes out\n",
                 static_cast<unsigned long long>(st.closed),
                 static_cast<unsigned long long>(st.shed),
                 static_cast<unsigned long long>(st.requests),
                 static_cast<unsigned long long>(st.bytes_out));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string snapshot_path;
  std::string listen_text;
  bool quiet = false;
  bool reload_enabled = true;
  ListenOptions listen_opt;
  int threads = 1;
  constexpr long kLongMax = std::numeric_limits<long>::max();
  constexpr double kRateMax = std::numeric_limits<double>::max();
  constexpr double kRateMin = std::numeric_limits<double>::denorm_min();  // > 0
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--snapshot" && i + 1 < argc) {
      snapshot_path = argv[++i];
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--threads" && i + 1 < argc) {
      if (!apps::parse_flag("--threads", argv[++i], 0L, 1024L,
                            "an integer 0..1024 (0 = hardware concurrency)", threads))
        return 1;
    } else if (a == "--no-reload") {
      reload_enabled = false;
    } else if (a == "--listen" && i + 1 < argc) {
      listen_text = argv[++i];
    } else if (a == "--max-conns" && i + 1 < argc) {
      if (!apps::parse_flag("--max-conns", argv[++i], 1L, kLongMax,
                            "a positive integer", listen_opt.max_conns))
        return 1;
    } else if (a == "--idle-timeout" && i + 1 < argc) {
      if (!apps::parse_flag("--idle-timeout", argv[++i], 1L, kLongMax,
                            "a positive number of seconds", listen_opt.idle_timeout_s))
        return 1;
    } else if (a == "--bulk") {
      listen_opt.bulk = true;
    } else if (a == "--no-bulk") {
      listen_opt.bulk = false;
    } else if (a == "--rate-limit" && i + 1 < argc) {
      if (!apps::parse_flag("--rate-limit", argv[++i], kRateMin, kRateMax,
                            "a rate > 0 requests/sec", listen_opt.rate_limit))
        return 1;
    } else if (a == "--rate-burst" && i + 1 < argc) {
      if (!apps::parse_flag("--rate-burst", argv[++i], 1.0, kRateMax,
                            "a burst >= 1", listen_opt.rate_burst))
        return 1;
    } else if (a == "--rate-limit-source" && i + 1 < argc) {
      if (!apps::parse_flag("--rate-limit-source", argv[++i], kRateMin, kRateMax,
                            "a rate > 0 requests/sec", listen_opt.rate_limit_source))
        return 1;
    } else if (a == "--rate-burst-source" && i + 1 < argc) {
      if (!apps::parse_flag("--rate-burst-source", argv[++i], 1.0, kRateMax,
                            "a burst >= 1", listen_opt.rate_burst_source))
        return 1;
    } else if (a == "--rate-limit-source-max" && i + 1 < argc) {
      if (!apps::parse_flag("--rate-limit-source-max", argv[++i], 0L, kLongMax,
                            "a source count >= 0 (0 = unbounded)", listen_opt.rate_source_max))
        return 1;
    } else {
      usage(argv[0]);
      return 1;
    }
  }
  if (snapshot_path.empty()) {
    usage(argv[0]);
    return 1;
  }

  // Reject a malformed listen address before the (possibly slow)
  // snapshot load, with the listen-specific exit code.
  std::optional<ListenAddr> listen_addr;
  if (!listen_text.empty()) {
    listen_addr = parse_listen(listen_text);
    if (!listen_addr) {
      std::fprintf(stderr,
                   "error: listen %s: malformed address (want HOST:PORT, "
                   "port 1-65535)\n",
                   listen_text.c_str());
      return 3;
    }
  }

  serve::Snapshot snap;
  std::string error;
  if (!serve::load_snapshot_file(snapshot_path, &snap, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", snapshot_path.c_str(), error.c_str());
    return 2;
  }
  std::vector<serve::SnapshotIssue> issues;
  auto store_ptr =
      serve::AnnotationStore::open(std::move(snap), threads, &issues);
  if (!store_ptr) {
    for (const auto& issue : issues)
      std::fprintf(stderr, "audit violation [serve-load] %s: %s\n",
                   issue.check.c_str(), issue.detail.c_str());
    std::fprintf(stderr,
                 "error: %s: snapshot violates %zu invariant(s); refusing "
                 "to serve\n",
                 snapshot_path.c_str(), issues.size());
    return 2;
  }
  if (!quiet) {
    const serve::StoreStats st = store_ptr->stats();
    std::fprintf(stderr,
                 "serving %llu interfaces on %llu routers, %llu AS links "
                 "(%u refinement iterations)\n",
                 static_cast<unsigned long long>(st.interfaces),
                 static_cast<unsigned long long>(st.routers),
                 static_cast<unsigned long long>(st.as_links), st.iterations);
  }

  // Generation 1. Every query path answers through the handle from
  // here on; reloads publish into it.
  serve::StoreHandle handle(std::move(store_ptr));

  std::unique_ptr<ReloadDriver> reload;
  if (reload_enabled) {
    reload = std::make_unique<ReloadDriver>(handle, threads, snapshot_path,
                                            quiet);
    std::string rerr;
    if (!reload->start(&rerr)) {
      std::fprintf(stderr, "error: reload driver: %s\n", rerr.c_str());
      return 1;
    }
    g_reload_driver = reload.get();
    struct sigaction sa {};
    sa.sa_handler = on_reload_signal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;  // don't let SIGHUP EINTR the stdin REPL
    sigaction(SIGHUP, &sa, nullptr);
  }

  int rc;
  if (listen_addr) {
    listen_opt.threads = threads;
    rc = run_listen(handle, reload.get(), *listen_addr, listen_opt, quiet);
  } else {
    rc = run_stdin(handle, reload.get());
  }
  if (reload) {
    std::signal(SIGHUP, SIG_IGN);
    g_reload_driver = nullptr;
    reload->stop();
  }
  return rc;
}
