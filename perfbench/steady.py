#!/usr/bin/env python3
"""Steadiness report for the benchmark.

    python3 perfbench/steady.py --workload NAME [--workload NAME ...]
                                [--runs 10] [--first-seed 1] [--save FILE]
                                [--against FILE]

Runs perfbench/run.py --trace 0 once per seed (first-seed, first-seed+1,
...) for each workload, with BENCHMARK.json's run_seconds, and prints for
every end-to-end metric its median, first and third quartiles
(statistics.quantiles(values, n=4)) and spread = (q3 - q1) / median
against the metric's bound. A spread below a third of the bound is
"steady"; setup_s is reported but exempt, as the acceptance rule exempts
it. --save writes the medians; --against compares this set's medians with
a saved set and flags a metric whose median got worse by more than its
bound. Exit code 1 when a run fails or a check does not hold.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    previous = json.loads(Path(args.against).read_text()) if args.against else {}
    medians = {}
    ok = True
    for workload in args.workload:
        values = {name: [] for name in metrics}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if r.returncode != 0:
                print(f"{workload} seed {seed}: exit {r.returncode}\n{r.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(r.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        for name, m in metrics.items():
            v = values[name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            steady = name == "setup_s" or spread < m["bound"] / 3
            line = (f"{workload:16} {name:18} median {med:14.6g} {m['unit']:5} "
                    f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%} "
                    f"bound {m['bound']:.0%} {'steady' if steady else 'NOT STEADY'}")
            key = f"{workload}/{name}"
            medians[key] = med
            if key in previous:
                change = (med - previous[key]) / previous[key]
                worse = change if m["better"] == "lower" else -change
                line += f" vs saved {change:+.2%}{' WORSE' if worse > m['bound'] else ''}"
                ok = ok and worse <= m["bound"]
            ok = ok and steady
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(medians, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
