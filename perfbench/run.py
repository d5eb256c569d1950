#!/usr/bin/env python3
"""The repository's benchmark: bdrmapit_cli and bdrmapit_serve, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the programs from source
(Release, failpoints compiled out) under .bench_build/, generates the
workload's inputs from the seed (cached per workload kind and seed),
measures for --seconds seconds and checks every output against its
oracle. The last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with nothing traced.
--trace 1 reports the per-layer metrics from perf_trace's in-process
replay plus a short live session; a layer the workload does not run
reports 0. A readable report goes to standard error. Exit code 1 when an
oracle fails, 2 when the benchmark cannot run or cannot measure (a
serve-text generator that fell behind its schedule). README.md documents
the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "perfbench"
DATA = WORK / "data"
RUNS = WORK / "runs"

CLI_THREADS = 4  # bdrmapit_cli --threads on the map workloads
SERVE_THREADS = 2  # bdrmapit_serve --threads: event loops and audit shards
TEXT = {
    "load_threads": 2,  # generator threads; with the server's, at most nproc (4)
    "conns_per_thread": 8,
    "nominal_qps": 50000,
    "window_s": 0.1,  # capacity is per window, then the median over windows
    "max_late_us": 1000,  # generator p99 lateness in a window beyond this: window invalid
    "max_late_share": 0.1,  # invalid windows beyond this share: session invalid
    "attempts": 3,  # sessions tried before the run is invalid
    "capacity_depth": 4,  # closed-loop requests in flight per connection
    "nominal_share": 0.5,  # of --seconds; the capacity phase gets the rest
    "setup_starts": (8, 8),  # timed server starts before and after the session
    "stream_lines": 50000,
}
BULK = {
    "ifaces": 1000000,
    "stream_addrs": 1 << 20,
    "batch": 1024,
    "load_threads": 1,  # the 4th CPU; the server's reload thread gets the 3rd
    "conns_per_thread": 4,
    "reload_every_s": 5,  # two reloads in a 10 s run: to generation B and back
    "setup_starts": (3, 2),
}
# Generated input sets kept per kind. Wide sets take ~20 s to make and
# feed two workloads, so many are kept (~45 MB each).
KEEP_BUNDLES = {"json": 2, "wide": 24, "bulk": 2}

# Metric names and units come from BENCHMARK.json; every run prints
# all of one list.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark itself cannot run (build, inputs, tools) or measure."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpu_sets(load_threads):
    """Disjoint CPU sets for the server (all but the last load_threads
    CPUs) and the load generator (those), or (None, None) when the host
    has too few CPUs to give the server's --threads and the generator
    their own."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < SERVE_THREADS + load_threads:
        return None, None
    return set(cpus[:-load_threads]), set(cpus[-load_threads:])


def pin(cpus):
    """A preexec_fn that confines the child to cpus (None: no change)."""
    return None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))


def run_tool(cmd, cwd=None, timeout=600, cpus=None):
    """Runs one of the benchmark's tools; returns its standard output."""
    r = subprocess.run([str(c) for c in cmd], cwd=cwd, capture_output=True,
                       text=True, timeout=timeout, preexec_fn=pin(cpus))
    if r.returncode not in (0, 1):
        raise BenchError(f"{Path(str(cmd[0])).name} exited {r.returncode}: "
                         f"{r.stderr.strip()[-800:]}")
    return r.stdout, r.returncode


# ---- build -----------------------------------------------------------------

def cmake_build(src, tree, targets, extra):
    log_path = tree.parent / f"{tree.name}.log"
    tree.mkdir(parents=True, exist_ok=True)
    with open(log_path, "w") as out:
        steps = []
        if not (tree / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(src), "-B", str(tree),
                          "-DCMAKE_BUILD_TYPE=Release"] + extra)
        steps.append(["cmake", "--build", str(tree), "-j", str(os.cpu_count() or 1),
                      "--target"] + targets)
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log_path.read_text(errors="replace")[-2000:]
                raise BenchError(f"build failed: {' '.join(cmd)}\n{tail}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("run from the root of a full checkout: no CMakeLists.txt or src/")
    # Compilers and tools put their temporary files inside the checkout.
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    # The programs under test come from the repository's own build files.
    cmake_build(ROOT, BUILD / "repo", ["bdrmapit_cli", "bdrmapit_serve"],
                ["-DBDRMAPIT_FAILPOINTS=OFF"])
    cmake_build(ROOT / "perfbench", BUILD / "tools",
                ["perf_gen", "perf_trace", "perf_load"], [])
    return {
        "cli": BUILD / "repo" / "apps" / "bdrmapit_cli",
        "serve": BUILD / "repo" / "apps" / "bdrmapit_serve",
        "gen": BUILD / "tools" / "perf_gen",
        "trace": BUILD / "tools" / "perf_trace",
        "load": BUILD / "tools" / "perf_load",
    }


def host_info():
    cache = (BUILD / "repo" / "CMakeCache.txt").read_text(errors="replace")
    compiler = re.search(r"CMAKE_CXX_COMPILER:\w+=(.*)", cache)
    version = ""
    if compiler:
        version = subprocess.run([compiler.group(1), "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return (f"host: nproc {os.cpu_count()}, cpu {cpu}, {platform.system()} "
            f"{platform.release()}, compiler {version}, build Release, failpoints off")


# ---- inputs ----------------------------------------------------------------

def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def hashes(directory):
    return {str(p.relative_to(directory)): sha256(p)
            for p in sorted(directory.rglob("*")) if p.is_file()}


def cli_cmd(tools, bundle, corpus, threads, out):
    return [tools["cli"], "--traces", bundle / corpus, "--rib", bundle / "rib.txt",
            "--rels", bundle / "rels.txt", "--delegations", bundle / "delegations.txt",
            "--ixp", bundle / "ixp.txt", "--aliases", bundle / "aliases.nodes",
            "--threads", str(threads), "--output", out / "annotations.tsv",
            "--as-links", out / "aslinks.tsv", "--itdk", out / "itdk",
            "--snapshot-out", out / "map.snap"]


def corpus_of(kind):
    return "traces.json" if kind == "json" else "traces.txt"


def bundle(tools, kind, seed):
    """The input set of `kind` for `seed`, generated on first use.
    manifest.json, written last, records a content hash of every file.
    """
    d = DATA / f"{kind}-{seed}"
    if (d / "manifest.json").exists():
        os.utime(d)
        return d
    tmp = DATA / f".{kind}-{seed}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    t0 = time.monotonic()
    if kind in ("json", "wide"):
        info, _ = run_tool([tools["gen"], "map", "--kind", kind, "--seed", seed,
                            "--out", tmp])
        (tmp / "info.json").write_text(info)
    else:
        run_tool([tools["gen"], "bulk", "--seed", seed, "--ifaces", BULK["ifaces"],
                  "--addrs", BULK["stream_addrs"], "--out", tmp])
    (tmp / "manifest.json").write_text(json.dumps(hashes(tmp), indent=1))
    shutil.rmtree(d, ignore_errors=True)
    tmp.rename(d)
    log(f"generated {kind} inputs for seed {seed} in {time.monotonic() - t0:.1f} s")
    old = sorted(DATA.glob(f"{kind}-*"), key=lambda p: p.stat().st_mtime)
    for p in old[:-KEEP_BUNDLES[kind]]:
        shutil.rmtree(p, ignore_errors=True)
    return d


def reference(tools, b, kind, seed):
    """The CLI's outputs at --threads 1 on map set b, made by this build
    of the CLI: ref-<its SHA-256>/ in the set, so a set shared by two
    builds holds one reference per build. For the wide set it also holds
    the serve-text request stream over that snapshot. manifest.json,
    written last, records a content hash of every file."""
    d = b / f"ref-{sha256(tools['cli'])[:16]}"
    if (d / "manifest.json").exists():
        return d
    tmp = fresh_dir(b / f".{d.name}.tmp")
    r = subprocess.run([str(c) for c in cli_cmd(tools, b, corpus_of(kind), 1, tmp)],
                       capture_output=True, text=True)
    if r.returncode:
        raise BenchError(f"reference CLI run failed: {r.stderr[-800:]}")
    if kind == "wide":
        run_tool([tools["gen"], "text-stream", "--snapshot", tmp / "map.snap",
                  "--seed", seed, "--lines", TEXT["stream_lines"],
                  "--out", tmp / "text_requests.txt"])
    (tmp / "manifest.json").write_text(json.dumps(hashes(tmp), indent=1))
    tmp.rename(d)
    return d


# ---- processes ---------------------------------------------------------------

def timed_run(cmd):
    """Runs cmd to exit; returns (exit code, wall seconds, user+sys CPU
    seconds, peak RSS MB)."""
    t0 = time.monotonic()
    p = subprocess.Popen([str(c) for c in cmd], stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.monotonic() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def ask(port, request):
    """Sends one text request; returns its reply up to the END line."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(request.encode() + b"\n")
        buf = b""
        while not re.search(rb"(^|\n)(END\t\d+|ERR\t[^\n]*)\n", buf):
            chunk = s.recv(65536)
            if not chunk:
                raise BenchError(f"server closed the connection during {request}")
            buf += chunk
        return buf.decode()


class Server:
    """bdrmapit_serve --listen on a free loopback port, stopped on exit."""

    def __init__(self, tools, snapshot, cwd, cpus):
        for _ in range(5):  # exit code 3: the free port was taken meanwhile
            self.port = free_port()
            self.log = open(RUNS / "server.log", "w")
            t0 = time.monotonic()
            self.proc = subprocess.Popen(
                [str(tools["serve"]), "--snapshot", str(snapshot), "--listen",
                 f"127.0.0.1:{self.port}", "--threads", str(SERVE_THREADS), "--quiet"],
                cwd=cwd, stdout=subprocess.DEVNULL, stderr=self.log, preexec_fn=pin(cpus))
            if self._wait_ready(t0):
                self.setup_s = time.monotonic() - t0
                return
        raise BenchError("bdrmapit_serve could not listen on a free port")

    def _wait_ready(self, t0):
        """Polls until STATS answers; False when the listen port was taken."""
        while True:
            if self.proc.poll() is not None:
                self.log.close()
                if self.proc.returncode == 3:
                    return False
                raise BenchError(f"bdrmapit_serve exited {self.proc.returncode}: "
                                 f"{(RUNS / 'server.log').read_text()[-800:]}")
            try:
                ask(self.port, "STATS")
                return True
            except OSError:
                if time.monotonic() - t0 > 120:
                    self.stop()
                    raise BenchError("bdrmapit_serve did not answer STATS in 120 s")
                time.sleep(0.001)
            except BenchError:
                self.stop()
                raise

    def cpu_s(self):
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024

    def netstats(self):
        rows = ask(self.port, "NETSTATS").splitlines()
        return {k: int(v) for k, v in (r.split("\t") for r in rows if not r.startswith("END"))}

    def stop(self):
        """SIGTERM drain; returns the exit code (0 on a clean drain)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


def time_starts(tools, snapshot, cwd, cpus, n):
    """Starts and drains the server n times; returns each start's time
    from exec to the first STATS reply."""
    times = []
    for _ in range(n):
        srv = Server(tools, snapshot, cwd, cpus)
        times.append(srv.setup_s)
        if srv.stop() != 0:
            raise BenchError("bdrmapit_serve did not drain cleanly")
    return times


def parse_phases(stdout):
    """perf_load text output: [(phase, dict)]."""
    out = []
    for line in stdout.splitlines():
        phase, _, body = line.partition(" ")
        out.append((phase, json.loads(body)))
    return out


# ---- workloads ---------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed):
        self.attempted += int(attempted)
        self.failed += int(failed)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def map_outputs_ok(out, ref, names):
    """True when every named output in out is byte-identical to ref's."""
    ref_hashes = json.loads((ref / "manifest.json").read_text())
    return all(sha256(out / n) == ref_hashes[n] for n in names)


MAP_OUTPUTS = ["annotations.tsv", "aslinks.tsv", "itdk.nodes", "itdk.nodes.as", "map.snap"]


def map_setup_runs(tools, b, out, tally, walls, n=2, seconds=0.6):
    """Appends to walls the CLI wall times of at least n runs, and of at
    least `seconds` of runs, on the reference inputs with an empty corpus."""
    t0, start = time.monotonic(), len(walls)
    while len(walls) - start < n or time.monotonic() - t0 < seconds:
        rc, wall, _, _ = timed_run(cli_cmd(tools, b, "empty.txt", CLI_THREADS, out))
        tally.add(1, rc != 0)
        walls.append(wall)


def trace_map(tools, b, ref, kind, run_dir, tally):
    """Traced replay of the map pipeline on set b, with its snapshot and
    ITDK files checked against the reference, and the untraced CLI's
    median wall time for the CLI's own share and the tracing overhead."""
    out = fresh_dir(run_dir / "out")
    stdout, rc = run_tool([tools["trace"], "map", "--inputs", b, "--corpus", corpus_of(kind),
                           "--threads", CLI_THREADS, "--out", run_dir / "trace",
                           "--spans", run_dir / "spans-map.jsonl"])
    m = json.loads(stdout.splitlines()[-1])
    tally.add(1, rc != 0 or not map_outputs_ok(run_dir / "trace", ref,
                                               ["map.snap", "itdk.nodes", "itdk.nodes.as"]))
    walls, cpus = [], []
    for _ in range(3):
        rc, wall, cpu, _ = timed_run(cli_cmd(tools, b, corpus_of(kind), CLI_THREADS, out))
        tally.add(1, rc != 0 or not map_outputs_ok(out, ref, MAP_OUTPUTS))
        walls.append(wall)
        cpus.append(cpu)
    wall = statistics.median(walls)
    m["cli.cpu_s"] = statistics.median(cpus)
    m["cli.residual_s"] = m["self_s.cli"] = wall - m["trace.library_s"]
    m["trace.overhead_s"] = m.pop("trace.replay_s") - wall
    return m


def trace_serve(tools, snapshot, stream, run_dir, tally):
    """Traced in-process replay of the serve layers on one snapshot with
    the workload's requests (stream: a perf_trace flag and its file)."""
    stdout, rc = run_tool([tools["trace"], "serve", "--snapshot", snapshot,
                           "--threads", SERVE_THREADS, *stream,
                           "--spans", run_dir / "spans-serve.jsonl"])
    tally.add(1, rc != 0)
    return json.loads(stdout.splitlines()[-1])


def run_map(tools, kind, seed, seconds, trace):
    b = bundle(tools, kind, seed)
    ref = reference(tools, b, kind, seed)
    run_dir = fresh_dir(RUNS / kind)
    tally = Tally()
    if trace:
        return trace_map(tools, b, ref, kind, run_dir, tally), tally

    corpus = corpus_of(kind)
    traces = json.loads((b / "info.json").read_text())["traces"]
    out, setup_dir = fresh_dir(run_dir / "out"), fresh_dir(run_dir / "setup")
    setup, walls, rss = [], [], []
    # Set-up runs follow each timed run, so that their median spans the
    # whole run: taken in one burst before it, the median moved by up to
    # 25% between sets of runs as the host's speed drifted.
    while sum(walls) < seconds or len(walls) < 3:
        rc, wall, _, peak = timed_run(cli_cmd(tools, b, corpus, CLI_THREADS, out))
        tally.add(1, rc != 0 or not map_outputs_ok(out, ref, MAP_OUTPUTS))
        walls.append(wall)
        rss.append(peak)
        map_setup_runs(tools, b, setup_dir, tally, setup)
    p50 = statistics.median(walls)
    return {
        "setup_s": statistics.median(setup),
        "op_p50_ms": p50 * 1e3,
        # A run holds a handful of CLI runs: too few for a higher percentile.
        "op_tail_ms": statistics.quantiles(walls, n=4)[2] * 1e3,
        "throughput_per_s": traces / p50,
        "peak_rss_mb": statistics.median(rss),
    }, tally


def net_counters(srv, m):
    ns = srv.netstats()
    for key in ("accepted", "shed", "read_errors", "write_errors", "requests",
                "bulk_frames", "bulk_addrs", "reloads", "reload_failed"):
        m[f"net.{key}"] = ns[key]


def run_text(tools, seed, seconds, trace):
    b = bundle(tools, "wide", seed)
    ref = reference(tools, b, "wide", seed)
    snapshot, stream = ref / "map.snap", ref / "text_requests.txt"
    run_dir = fresh_dir(RUNS / "text")
    tally = Tally()
    m = {}
    if trace:
        m = trace_serve(tools, snapshot, ("--text-stream", stream), run_dir, tally)
    serve_cpus, load_cpus = cpu_sets(TEXT["load_threads"])
    # Set-up is timed before and after the session, so that its median
    # spans the run rather than one burst of a host whose speed drifts.
    before, after = (3, 0) if trace else TEXT["setup_starts"]
    starts = time_starts(tools, snapshot, b, serve_cpus, before - 1)
    srv = Server(tools, snapshot, b, serve_cpus)
    starts.append(srv.setup_s)
    nominal_s = seconds if trace else seconds * TEXT["nominal_share"]
    try:
        # A session whose generator fell behind is measured again; every
        # attempt's replies are still checked and counted.
        for attempt in range(1, TEXT["attempts"] + 1):
            cpu0 = srv.cpu_s()
            stdout, rc = run_tool(
                [tools["load"], "text", "--port", srv.port, "--snapshot", snapshot,
                 "--stream", stream, "--threads", TEXT["load_threads"],
                 "--conns", TEXT["conns_per_thread"], "--rate", TEXT["nominal_qps"],
                 "--seconds", f"{nominal_s:.3f}", "--window-s", TEXT["window_s"],
                 "--max-late-us", TEXT["max_late_us"],
                 "--capacity-seconds", f"{seconds - nominal_s:.3f}",
                 "--depth", TEXT["capacity_depth"]],
                timeout=seconds + 120, cpus=load_cpus)
            server_cpu = srv.cpu_s() - cpu0
            phases = dict(parse_phases(stdout))
            tally.add(1, rc != 0)
            for phase in ("nominal", "capacity"):
                if phase in phases:
                    tally.add(phases[phase]["sent"],
                              phases[phase]["failed"] + phases[phase]["wrong"])
            nominal, inproc = phases["nominal"], phases["inproc"]
            late_share = nominal["late_windows"] / nominal["windows"]
            if late_share <= TEXT["max_late_share"]:
                break
            log(f"serve-text attempt {attempt} invalid: the generator sent its requests more "
                f"than {TEXT['max_late_us']} us late (p99) in {late_share:.0%} of the "
                f"{TEXT['window_s']} s windows")
        if trace:
            net_counters(srv, m)
        peak = srv.peak_rss_mb()
    finally:
        drained = srv.stop()
    setup_s = statistics.median(starts + time_starts(tools, snapshot, b, serve_cpus, after))
    tally.add(1, drained != 0)  # the server session itself
    if late_share > TEXT["max_late_share"]:
        raise BenchError(f"serve-text run invalid: the generator fell behind schedule in all "
                         f"{TEXT['attempts']} attempts, so its latencies are the generator's, "
                         f"not the server's")
    answered = sum(phases[p]["completed"] for p in ("nominal", "capacity") if p in phases)
    if trace:
        m.update({
            "net.overhead_us": nominal["p50_us"] - inproc["inproc_p50_us"],
            "serve.cpu_us_per_req": server_cpu * 1e6 / max(1, answered),
            "serve.cpu_util": server_cpu / (nominal_s * SERVE_THREADS),
            "loadgen.late_p99_us": nominal["late_p99_us"],
            "loadgen.late_window_share": late_share,
            "loadgen.attempts": attempt,
            "loadgen.cpu_util": nominal["cpu_util"],
            "loadgen.samples": nominal["samples"],
            "trace.overhead_s": m.pop("trace.replay_s") - setup_s,
        })
        return m, tally
    capacity = phases["capacity"]
    log(f"serve-text: attempt {attempt}, {TEXT['nominal_qps']} q/s open loop, "
        f"{nominal['samples']:.0f} samples, "
        f"p99 per 0.1 s window {nominal['p99_window_us']:.0f} us (whole phase "
        f"{nominal['p99_us']:.0f} us), "
        f"generator late p99 {nominal['late_p99_us']:.0f} us "
        f"({nominal['late_windows']:.0f} of {nominal['windows']:.0f} windows late), "
        f"generator cpu {nominal['cpu_util']:.2f}; closed-loop capacity "
        f"{capacity['completed_per_s']:.0f} q/s at p50 {capacity['p50_us']:.0f} us")
    return {
        "setup_s": setup_s,
        "op_p50_ms": nominal["p50_us"] / 1e3,
        "op_tail_ms": nominal["p99_window_us"] / 1e3,
        "throughput_per_s": capacity["completed_per_s"],
        "peak_rss_mb": peak,
    }, tally


def run_bulk(tools, seed, seconds, trace):
    b = bundle(tools, "bulk", seed)
    run_dir = fresh_dir(RUNS / "bulk")
    tally = Tally()
    m = {}
    if trace:
        m = trace_serve(tools, b / "gen_a.snap", ("--bulk-stream", b / "bulk_addrs.bin"),
                        run_dir, tally)
    serve_cpus, load_cpus = cpu_sets(BULK["load_threads"])
    before, after = (3, 0) if trace else BULK["setup_starts"]
    starts = time_starts(tools, "gen_a.snap", b, serve_cpus, before - 1)
    srv = Server(tools, "gen_a.snap", b, serve_cpus)
    starts.append(srv.setup_s)
    try:
        cpu0 = srv.cpu_s()
        stdout, rc = run_tool(
            [tools["load"], "bulk", "--port", srv.port, "--gen-a", "gen_a.snap",
             "--gen-b", "gen_b.snap", "--stream", "bulk_addrs.bin",
             "--threads", BULK["load_threads"], "--conns", BULK["conns_per_thread"],
             "--batch", BULK["batch"], "--seconds", seconds,
             "--reload-every", BULK["reload_every_s"]], cwd=b, timeout=seconds + 120,
            cpus=load_cpus)
        server_cpu = srv.cpu_s() - cpu0
        d = json.loads(stdout.splitlines()[-1])
        if trace:
            net_counters(srv, m)
        peak = srv.peak_rss_mb()
    finally:
        drained = srv.stop()
    setup_s = statistics.median(starts + time_starts(tools, "gen_a.snap", b, serve_cpus, after))
    tally.add(d["frames"] + d["reloads"] + d["reload_failed"],
              d["failed"] + d["reload_failed"])
    tally.add(1, rc != 0 or drained != 0)  # the server session itself
    if trace:
        m.update({
            "net.overhead_us": d["p50_us"] -
                               m["protocol.handle_bulk_ns_per_addr"] * BULK["batch"] / 1e3,
            "serve.cpu_ns_per_addr": server_cpu * 1e9 / max(1, d["addrs"]),
            "serve.cpu_util": server_cpu / (seconds * SERVE_THREADS),
            "serve.reload_s": d["reload_p50_s"],
            "loadgen.cpu_util": d["cpu_util"],
            "loadgen.samples": d["frames"],
            "trace.overhead_s": m.pop("trace.replay_s") - setup_s,
        })
        return m, tally
    log(f"serve-bulk: {d['frames']:.0f} frames of {BULK['batch']} addresses "
        f"(generation A {d['frames_gen_a']:.0f}, B {d['frames_gen_b']:.0f}), "
        f"{d['reloads']:.0f} reloads, median reload {d['reload_p50_s']:.3f} s, "
        f"frame p95 {d['p95_us']:.0f} us, p99 {d['p99_us']:.0f} us")
    return {
        "setup_s": setup_s,
        "op_p50_ms": d["p50_us"] / 1e3,
        "op_tail_ms": d["p95_us"] / 1e3,
        "throughput_per_s": d["addrs_per_s"],
        "peak_rss_mb": peak,
    }, tally


WORKLOADS = {
    "map-json": lambda t, s, sec, tr: run_map(t, "json", s, sec, tr),
    "map-native-wide": lambda t, s, sec, tr: run_map(t, "wide", s, sec, tr),
    "serve-text": run_text,
    "serve-bulk": run_bulk,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        tools = build()
        log(host_info())
        metrics, tally = WORKLOADS[args.workload](tools, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    report = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
              for name, unit in units.items()}
    for name, v in report.items():
        log(f"{args.workload:16} {name:34} {v['value']:16.6f} {v['unit']}")
    correct = tally.failed == 0
    log(f"{args.workload}: {tally.attempted} attempted, {tally.failed} failed")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
