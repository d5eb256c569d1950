// perfbench/src/loadgen.cpp — TCP load generator for bdrmapit_serve.
//
//   perf_load text --port P --snapshot FILE --stream FILE --threads T
//                  --conns C --rate R --seconds S --window-s W
//                  --max-late-us L --capacity-seconds S2 --depth D
//     First an open loop at the nominal rate R for S seconds: T threads
//     send the request stream's lines on C connections each, request k
//     due at a fixed time from the phase start, and each request is
//     timed from when it was due, so a stall charges every request
//     queued behind it. A W-second window in which the generator sent
//     its requests late (p99 lateness above L us) is invalid: its
//     latencies are the generator's, so they are left out (late_windows
//     counts them). p50_us and p99_us are over the valid windows' requests,
//     p99_window_us is the median over valid windows of each one's p99,
//     and late_p99_us is the whole phase's lateness p99. Then a closed
//     loop for S2 seconds
//     in which every connection keeps D requests in flight: the rate it
//     completes (per W-second window, median over the windows) is
//     the server's capacity. Every reply is compared byte
//     for byte with the in-process Protocol::handle_line reply for the
//     same line. Prints one "<phase> {json}" line per phase.
//
//   perf_load bulk --port P --gen-a FILE --gen-b FILE --stream FILE
//                  --threads T --conns C --batch B --seconds S
//                  --reload-every S
//     Closed loop: each of T*C connections keeps one BULK frame of B
//     stream addresses in flight. Every record must match generation A
//     or B of the snapshot, and all records of one frame the same one.
//     The frame p50 and p99 are over the whole run, reload seconds
//     included.
//     An admin connection sends RELOAD every --reload-every seconds,
//     alternating B and A, and times each until NETSTATS shows the
//     generation advance. Prints one JSON line.
//
// Exit code 0 when every request was answered correctly, 1 otherwise.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "serve/bulk.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"

namespace {

using perfbench::now_ns;
using perfbench::percentile;

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perf_load: %s\n", msg.c_str());
  std::exit(2);
}

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) die("socket failed");
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0)
    die("connect to port " + std::to_string(port) + " failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void set_nonblocking(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

std::shared_ptr<const serve::AnnotationStore> load_store(const std::string& path) {
  serve::Snapshot snap;
  std::string error;
  if (!serve::load_snapshot_file(path, &snap, &error)) die(path + ": " + error);
  return std::make_shared<const serve::AnnotationStore>(std::move(snap));
}

void sleep_until_ns(std::int64_t t) {
  const std::int64_t d = t - now_ns();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

// Waits on `ep` for up to `timeout_ns` (nanosecond resolution).
int wait_events(int ep, epoll_event* evs, int n, std::int64_t timeout_ns) {
  timespec ts{};
  timeout_ns = std::max<std::int64_t>(0, timeout_ns);
  ts.tv_sec = timeout_ns / 1000000000;
  ts.tv_nsec = timeout_ns % 1000000000;
  return ::epoll_pwait2(ep, evs, n, &ts, nullptr);
}

// ---- text: open loop ----------------------------------------------------

struct TextPlan {
  std::vector<std::string> lines;
  std::vector<std::string> expect;  ///< in-process reply per line
  std::vector<std::int64_t> inproc_ns;
};

struct Pending {
  std::int64_t due = 0;
  std::uint32_t line = 0;
};

struct TextConn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::deque<Pending> pending;
  std::size_t matched = 0;  ///< bytes of the head reply already matched
  bool dead = false;
};

struct TextTally {
  std::uint64_t sent = 0, completed = 0, failed = 0, wrong = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> lat, late;  ///< (due, ns)
};

void kill_conn(TextConn& c, int ep, TextTally& t) {
  t.failed += c.pending.size();
  c.pending.clear();
  c.dead = true;
  ::epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
}

void flush(TextConn& c, int ep, TextTally& t) {
  while (!c.dead && c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      kill_conn(c, ep, t);
    }
  }
  c.out.clear();
  c.out_off = 0;
}

void consume(TextConn& c, const char* buf, std::size_t n, std::int64_t now,
             const TextPlan& plan, int ep, TextTally& t) {
  std::size_t i = 0;
  while (i < n) {
    if (c.pending.empty()) {
      ++t.wrong;
      kill_conn(c, ep, t);
      return;
    }
    const std::string& e = plan.expect[c.pending.front().line];
    const std::size_t take = std::min(n - i, e.size() - c.matched);
    if (std::memcmp(buf + i, e.data() + c.matched, take) != 0) {
      ++t.wrong;
      kill_conn(c, ep, t);
      return;
    }
    i += take;
    c.matched += take;
    if (c.matched == e.size()) {
      ++t.completed;
      t.lat.emplace_back(c.pending.front().due, now - c.pending.front().due);
      c.pending.pop_front();
      c.matched = 0;
    }
  }
}

// One generator thread of one phase. Open loop (depth 0): request k of
// thread `idx` is global request k*threads+idx, due at t0 + that index /
// rate. Closed loop (depth > 0): each connection keeps `depth` requests
// in flight, each due when it is sent.
void text_thread(const TextPlan& plan, int port, int nconns, double rate, int depth,
                 unsigned idx, unsigned threads, std::int64_t t0, std::int64_t t_stop,
                 std::int64_t deadline, TextTally& t) {
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  std::vector<TextConn> conns(static_cast<std::size_t>(nconns));
  for (std::size_t i = 0; i < conns.size(); ++i) {
    conns[i].fd = connect_to(port);
    set_nonblocking(conns[i].fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, conns[i].fd, &ev);
  }
  const double period = depth > 0 ? 0 : 1e9 / rate;
  const std::size_t n_lines = plan.lines.size();
  std::uint64_t k = 0;
  auto due_of = [&](std::uint64_t kk) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(kk * threads + idx) * period);
  };
  std::int64_t next_due = due_of(0);
  std::vector<char> buf(1 << 16);
  epoll_event evs[64];
  if (depth > 0) {
    sleep_until_ns(t0);
    next_due = t_stop;  // the open-loop schedule below never fires
  }
  for (;;) {
    std::int64_t now = now_ns();
    if (depth > 0 && now < t_stop) {
      for (auto& c : conns) {
        while (!c.dead && c.pending.size() < static_cast<std::size_t>(depth)) {
          const std::uint32_t line =
              static_cast<std::uint32_t>((k * threads + idx) % n_lines);
          ++k;
          ++t.sent;
          c.out += plan.lines[line];
          c.out += '\n';
          c.pending.push_back({now, line});
        }
        flush(c, ep, t);
      }
    }
    const bool sending = next_due < t_stop || (depth > 0 && now < t_stop);
    if (depth == 0 && sending && next_due <= now) {
      while (next_due <= now && next_due < t_stop) {
        TextConn& c = conns[k % conns.size()];
        const std::uint32_t line =
            static_cast<std::uint32_t>((k * threads + idx) % n_lines);
        ++t.sent;
        if (c.dead) {
          ++t.failed;
        } else {
          c.out += plan.lines[line];
          c.out += '\n';
          c.pending.push_back({next_due, line});
        }
        t.late.emplace_back(next_due, now - next_due);
        ++k;
        next_due = due_of(k);
      }
      for (auto& c : conns) flush(c, ep, t);
    }
    if (!sending) {
      bool idle = true;
      for (const auto& c : conns) idle = idle && c.pending.empty();
      if (idle || now >= deadline) break;
      for (auto& c : conns) flush(c, ep, t);
    }
    const std::int64_t wait =
        depth > 0 ? std::min<std::int64_t>(1000000, (sending ? t_stop : deadline) - now)
        : next_due < t_stop ? next_due - now
                            : std::min<std::int64_t>(1000000, deadline - now);
    const int ready = wait_events(ep, evs, 64, wait);
    for (int e = 0; e < ready; ++e) {
      TextConn& c = conns[evs[e].data.u64];
      for (;;) {
        const ssize_t r = ::recv(c.fd, buf.data(), buf.size(), MSG_DONTWAIT);
        if (r > 0) {
          consume(c, buf.data(), static_cast<std::size_t>(r), now_ns(), plan, ep, t);
          if (c.dead) break;
          continue;
        }
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        kill_conn(c, ep, t);  // closed by the server, or a read error
        break;
      }
    }
  }
  for (auto& c : conns) {
    t.failed += c.pending.size();  // unanswered by the drain deadline
    ::close(c.fd);
  }
  ::close(ep);
}

// One phase of `seconds`. The completion rate, and p99_window_us, are
// taken per `window_s` window and reported as the median over the
// windows, so one scheduler stall on a shared host moves one window
// instead of the whole phase. Windows in which the generator ran late
// are left out of the latency figures.
struct PhaseResult {
  std::uint64_t sent = 0, completed = 0, failed = 0, wrong = 0, samples = 0;
  std::uint64_t windows = 0, late_windows = 0;
  double p50_us = 0, p99_us = 0, p99_window_us = 0, late_p99_us = 0, cpu_util = 0;
  double completed_per_s = 0;  ///< median over the windows
};

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

PhaseResult run_phase(const TextPlan& plan, int port, unsigned threads, int nconns,
                      double rate, int depth, double seconds, double window_s,
                      double max_late_us) {
  std::vector<TextTally> tallies(threads);
  const std::int64_t t0 = now_ns() + 50000000;  // connections open first
  const std::int64_t t_stop = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t deadline = t_stop + 2000000000;
  const double cpu0 = cpu_seconds();
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i)
    pool.emplace_back(text_thread, std::cref(plan), port, nconns, rate, depth, i, threads,
                      t0, t_stop, deadline, std::ref(tallies[i]));
  for (auto& th : pool) th.join();
  PhaseResult r;
  r.cpu_util = (cpu_seconds() - cpu0) / (seconds * threads);
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / window_s + 0.5));
  std::vector<std::vector<std::int64_t>> lat(windows), late(windows);
  std::vector<double> done(windows);  ///< completions by completion time
  std::vector<std::int64_t> all, all_late;
  auto window_of = [&](std::int64_t due) {
    return std::min<std::size_t>(
        windows - 1, static_cast<std::size_t>(static_cast<double>(due - t0) / (window_s * 1e9)));
  };
  for (auto& t : tallies) {
    for (const auto& [due, ns] : t.late) {
      late[window_of(due)].push_back(ns);
      all_late.push_back(ns);
    }
  }
  std::vector<bool> valid(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    valid[w] = percentile(late[w], 99) <= max_late_us * 1e3;
    r.late_windows += valid[w] ? 0 : 1;
  }
  r.windows = windows;
  for (auto& t : tallies) {
    r.sent += t.sent;
    r.completed += t.completed;
    r.failed += t.failed;
    r.wrong += t.wrong;
    for (const auto& [due, ns] : t.lat) {
      const auto c = static_cast<std::size_t>(static_cast<double>(due + ns - t0) /
                                              (window_s * 1e9));
      if (c < windows) done[c] += 1 / window_s;
      const std::size_t w = window_of(due);
      if (!valid[w]) continue;
      lat[w].push_back(ns);
      all.push_back(ns);
    }
  }
  std::vector<double> p99s;
  for (std::size_t w = 0; w < windows; ++w)
    if (valid[w]) p99s.push_back(percentile(lat[w], 99) / 1e3);
  r.samples = all.size();
  r.p50_us = percentile(all, 50) / 1e3;
  r.p99_us = percentile(all, 99) / 1e3;
  r.p99_window_us = median_of(p99s);
  r.completed_per_s = median_of(done);
  r.late_p99_us = percentile(all_late, 99) / 1e3;
  return r;
}

void print_phase(const char* phase, const PhaseResult& r) {
  perfbench::JsonLine j;
  j.add("sent", static_cast<double>(r.sent));
  j.add("completed", static_cast<double>(r.completed));
  j.add("failed", static_cast<double>(r.failed));
  j.add("wrong", static_cast<double>(r.wrong));
  j.add("samples", static_cast<double>(r.samples));
  j.add("windows", static_cast<double>(r.windows));
  j.add("late_windows", static_cast<double>(r.late_windows));
  j.add("p50_us", r.p50_us);
  j.add("p99_us", r.p99_us);
  j.add("p99_window_us", r.p99_window_us);
  j.add("late_p99_us", r.late_p99_us);
  j.add("completed_per_s", r.completed_per_s);
  j.add("cpu_util", r.cpu_util);
  std::printf("%s ", phase);
  j.print();
  std::fflush(stdout);
}

int run_text(std::map<std::string, std::string>& args) {
  const int port = std::stoi(args["port"]);
  const unsigned threads = static_cast<unsigned>(std::stoul(args["threads"]));
  const int nconns = std::stoi(args["conns"]);
  const double nominal = std::stod(args["rate"]);
  const double seconds = std::stod(args["seconds"]);
  const double window_s = std::stod(args["window-s"]);
  const double max_late_us = std::stod(args["max-late-us"]);
  const double capacity_s = std::stod(args["capacity-seconds"]);
  const int depth = std::stoi(args["depth"]);

  TextPlan plan;
  {
    std::ifstream in(args["stream"]);
    if (!in) die("cannot open " + args["stream"]);
    for (std::string line; std::getline(in, line);) plan.lines.push_back(line);
    if (plan.lines.empty()) die("empty request stream");
  }
  const serve::StoreHandle handle(load_store(args["snapshot"]));
  const serve::Protocol protocol(handle);
  std::string out;
  for (const auto& line : plan.lines) {
    out.clear();
    const std::int64_t a = now_ns();
    protocol.handle_line(line, out);
    plan.inproc_ns.push_back(now_ns() - a);
    plan.expect.push_back(out);
  }
  perfbench::JsonLine inproc;
  inproc.add("inproc_p50_us", percentile(plan.inproc_ns, 50) / 1e3);
  std::printf("inproc ");
  inproc.print();

  const PhaseResult nom =
      run_phase(plan, port, threads, nconns, nominal, 0, seconds, window_s, max_late_us);
  print_phase("nominal", nom);
  std::uint64_t failures = nom.failed + nom.wrong;
  if (capacity_s > 0) {
    const PhaseResult cap =
        run_phase(plan, port, threads, nconns, 0, depth, capacity_s, window_s, max_late_us);
    print_phase("capacity", cap);
    failures += cap.failed + cap.wrong;
  }
  return failures == 0 ? 0 : 1;
}

// ---- bulk: closed loop with reloads ---------------------------------------

struct Expect {
  std::uint32_t router_as = 0, conn_as = 0, router_id = 0;
  std::uint8_t flags = 0;
};

// What a record for `addr` must say, by binary search of the sorted
// interface table (independent of the store's index).
Expect expect_of(const serve::Snapshot& snap, const netbase::IPAddr& addr) {
  const auto it = std::lower_bound(
      snap.interfaces.begin(), snap.interfaces.end(), addr,
      [](const serve::SnapshotIface& r, const netbase::IPAddr& a) { return r.addr < a; });
  if (it == snap.interfaces.end() || !(it->addr == addr)) return {};
  Expect e{it->inf.router_as, it->inf.conn_as, it->router_id, serve::bulk::kFlagFound};
  if (it->inf.interdomain()) e.flags |= serve::bulk::kFlagBorder;
  if (it->inf.ixp) e.flags |= serve::bulk::kFlagIxp;
  if (!it->inf.seen_non_echo) e.flags |= serve::bulk::kFlagEchoOnly;
  return e;
}

bool same(const serve::bulk::ResultRec& r, const Expect& e) {
  return r.router_as == e.router_as && r.conn_as == e.conn_as &&
         r.router_id == e.router_id && r.flags == e.flags;
}

struct BulkPlan {
  std::size_t batch = 0;
  std::vector<std::string> frames;
  std::vector<Expect> gen_a, gen_b;  ///< per stream address
};

struct BulkTally {
  std::uint64_t frames = 0, addrs = 0, failed = 0, frames_a = 0, frames_b = 0;
  std::vector<std::int64_t> lat;  ///< frame latencies, ns
};

// 0 when the frame is wrong, else 1 (generation A) or 2 (B). A frame of
// only misses reads as A: both generations answer it the same way.
int check_frame(const BulkPlan& plan, std::size_t frame, std::string_view reply) {
  std::vector<serve::bulk::ResultRec> recs;
  if (!serve::bulk::parse_response(reply, &recs) || recs.size() != plan.batch) return 0;
  bool can_a = true, can_b = true;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const std::size_t a = frame * plan.batch + i;
    can_a = can_a && same(recs[i], plan.gen_a[a]);
    can_b = can_b && same(recs[i], plan.gen_b[a]);
  }
  return can_a ? 1 : (can_b ? 2 : 0);
}

struct BulkConn {
  int fd = -1;
  std::size_t frame = 0;
  std::int64_t sent_at = 0;
  std::string in;
  bool dead = false;
};

bool send_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::send(fd, s.data() + off, s.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void bulk_thread(const BulkPlan& plan, int port, int nconns, unsigned idx, unsigned threads,
                 std::int64_t t0, std::int64_t t_stop, std::int64_t deadline, BulkTally& t) {
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  std::vector<BulkConn> conns(static_cast<std::size_t>(nconns));
  for (std::size_t i = 0; i < conns.size(); ++i) {
    conns[i].fd = connect_to(port);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, conns[i].fd, &ev);
  }
  const std::size_t reply_bytes =
      serve::bulk::kHeaderBytes + plan.batch * serve::bulk::kResultRecBytes;
  std::uint64_t next = idx;
  auto issue = [&](BulkConn& c) {
    c.frame = next % plan.frames.size();
    next += threads;
    c.in.clear();
    c.sent_at = now_ns();
    if (!send_all(c.fd, plan.frames[c.frame])) {
      c.dead = true;
      ++t.failed;
    }
  };
  sleep_until_ns(t0);
  for (auto& c : conns) issue(c);
  std::vector<char> buf(1 << 16);
  epoll_event evs[16];
  for (;;) {
    bool busy = false;
    for (const auto& c : conns) busy = busy || (!c.dead && c.sent_at != 0);
    const std::int64_t now = now_ns();
    if (!busy || now >= deadline) break;
    const int ready = wait_events(ep, evs, 16, std::min<std::int64_t>(10000000, deadline - now));
    for (int e = 0; e < ready; ++e) {
      BulkConn& c = conns[evs[e].data.u64];
      if (c.dead || c.sent_at == 0) continue;
      const ssize_t r = ::recv(c.fd, buf.data(), buf.size(), MSG_DONTWAIT);
      if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        c.dead = true;
        ++t.failed;
        continue;
      }
      if (r < 0) continue;
      c.in.append(buf.data(), static_cast<std::size_t>(r));
      if (c.in.size() < reply_bytes) continue;
      const std::int64_t done = now_ns();
      const int gen = c.in.size() == reply_bytes ? check_frame(plan, c.frame, c.in) : 0;
      if (gen == 0) {
        c.dead = true;
        ++t.failed;
        continue;
      }
      ++t.frames;
      t.addrs += plan.batch;
      (gen == 1 ? t.frames_a : t.frames_b) += 1;
      t.lat.push_back(done - c.sent_at);
      c.sent_at = 0;
      if (done < t_stop) issue(c);
    }
  }
  for (auto& c : conns) {
    if (!c.dead && c.sent_at != 0) ++t.failed;  // still in flight at the deadline
    ::close(c.fd);
  }
  ::close(ep);
}

// Reads one reply of the admin connection: up to and including the line
// that starts with `last` (a full line).
std::string read_reply(int fd, const std::string& last) {
  std::string s;
  char c = 0;
  std::size_t line_start = 0;
  while (::recv(fd, &c, 1, 0) == 1) {
    s += c;
    if (c == '\n') {
      if (s.compare(line_start, last.size(), last) == 0) return s;
      line_start = s.size();
    }
  }
  die("admin connection closed");
}

std::uint64_t generation(int fd) {
  if (!send_all(fd, "NETSTATS\n")) die("admin send failed");
  const std::string r = read_reply(fd, "END\t");
  const auto pos = r.find("generation\t");
  if (pos == std::string::npos) die("NETSTATS has no generation row");
  return std::stoull(r.substr(pos + 11));
}

int run_bulk(std::map<std::string, std::string>& args) {
  const int port = std::stoi(args["port"]);
  const unsigned threads = static_cast<unsigned>(std::stoul(args["threads"]));
  const int nconns = std::stoi(args["conns"]);
  const double seconds = std::stod(args["seconds"]);
  const double reload_every = std::stod(args["reload-every"]);

  BulkPlan plan;
  plan.batch = std::stoul(args["batch"]);
  {
    serve::Snapshot a, b;
    std::string error;
    if (!serve::load_snapshot_file(args["gen-a"], &a, &error)) die(error);
    if (!serve::load_snapshot_file(args["gen-b"], &b, &error)) die(error);
    std::vector<netbase::IPAddr> addrs = perfbench::read_addr_records(args["stream"]);
    if (addrs.size() < plan.batch) die("bulk stream shorter than one frame");
    addrs.resize(addrs.size() / plan.batch * plan.batch);
    const std::size_t usable = addrs.size();
    for (const auto& addr : addrs) {
      plan.gen_a.push_back(expect_of(a, addr));
      plan.gen_b.push_back(expect_of(b, addr));
    }
    for (std::size_t f = 0; f < usable / plan.batch; ++f) {
      std::string frame;
      serve::bulk::append_request(
          frame, std::vector<netbase::IPAddr>(addrs.begin() + static_cast<std::ptrdiff_t>(f * plan.batch),
                                              addrs.begin() + static_cast<std::ptrdiff_t>((f + 1) * plan.batch)));
      plan.frames.push_back(std::move(frame));
    }
  }

  const int admin = connect_to(port);
  std::vector<BulkTally> tallies(threads);
  const std::int64_t t0 = now_ns() + 100000000;
  const std::int64_t t_stop = t0 + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t deadline = t_stop + 5000000000;
  const double cpu0 = cpu_seconds();
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i)
    pool.emplace_back(bulk_thread, std::cref(plan), port, nconns, i, threads, t0, t_stop,
                      deadline, std::ref(tallies[i]));

  // Admin: RELOAD at a fixed interval; each reload is timed from the
  // request to the generation advancing in NETSTATS.
  std::vector<std::int64_t> reloads;
  std::uint64_t reload_failed = 0;
  const std::string paths[2] = {args["gen-b"], args["gen-a"]};
  for (std::size_t r = 0;; ++r) {
    const std::int64_t at = t0 + static_cast<std::int64_t>((0.5 + static_cast<double>(r)) *
                                                           reload_every * 1e9);
    if (at >= t_stop) break;
    sleep_until_ns(at);
    const std::uint64_t before = generation(admin);
    const std::int64_t sent = now_ns();
    if (!send_all(admin, "RELOAD " + paths[r % 2] + "\n")) die("admin send failed");
    if (read_reply(admin, "").rfind("OK\treload", 0) != 0) {
      ++reload_failed;
      continue;
    }
    for (;;) {
      if (generation(admin) > before) {
        reloads.push_back(now_ns() - sent);
        break;
      }
      if (now_ns() - sent > 30000000000) {
        ++reload_failed;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  for (auto& th : pool) th.join();
  const double cpu = cpu_seconds() - cpu0;
  ::close(admin);

  BulkTally all;
  std::vector<std::int64_t> lat;
  for (auto& t : tallies) {
    all.frames += t.frames;
    all.addrs += t.addrs;
    all.failed += t.failed;
    all.frames_a += t.frames_a;
    all.frames_b += t.frames_b;
    lat.insert(lat.end(), t.lat.begin(), t.lat.end());
  }
  perfbench::JsonLine j;
  j.add("frames", static_cast<double>(all.frames));
  j.add("addrs", static_cast<double>(all.addrs));
  j.add("failed", static_cast<double>(all.failed));
  j.add("frames_gen_a", static_cast<double>(all.frames_a));
  j.add("frames_gen_b", static_cast<double>(all.frames_b));
  j.add("p50_us", percentile(lat, 50) / 1e3);
  j.add("p95_us", percentile(lat, 95) / 1e3);
  j.add("p99_us", percentile(lat, 99) / 1e3);
  j.add("addrs_per_s", static_cast<double>(all.addrs) / seconds);
  j.add("reloads", static_cast<double>(reloads.size()));
  j.add("reload_failed", static_cast<double>(reload_failed));
  j.add("reload_p50_s", percentile(reloads, 50) / 1e9);
  j.add("cpu_util", cpu / (seconds * threads));
  j.print();
  return all.failed == 0 && reload_failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: perf_load text|bulk --flag value ...");
  const std::string mode = argv[1];
  auto args = perfbench::parse_flags(argc, argv, 2);
  if (mode == "text") return run_text(args);
  if (mode == "bulk") return run_bulk(args);
  die("unknown mode " + mode);
}
