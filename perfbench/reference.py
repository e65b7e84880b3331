#!/usr/bin/env python3
"""Reference figures: spread of the end-to-end metrics over seeds.

    python3 perfbench/reference.py [--runs 10] [--first-seed 1] [--seconds 10]
        [--workloads flash-crowd,catalog,cdn-only] [--trace]

Runs ``run.py`` once per seed for each workload, one run at a time, and
prints per metric the median, the quartiles (``statistics.quantiles``,
n=4) and the spread, (q3 - q1) / median, as a Markdown table. With
``--trace`` it adds one traced run per workload (the first seed) and
prints its per-layer metrics and each layer's share of the traced wall
time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402

PAIR_SHARE_MIN = 5  # percent


def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run.py failed for %s seed %d (exit %d):\n%s"
                 % (workload, seed, proc.returncode, proc.stdout))
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    print("| workload | metric | unit | median | q1 | q3 | spread | runs | failed/attempted |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in seeds:
            line, _human = bench(w, seed, args.seconds, trace=False)
            attempted += line["attempted"]
            failed += line["failed"]
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            print("| %s | %s | %s | %.4f | %.4f | %.4f | %.3f | %d | %d/%d |"
                  % (w, name, units[name], med, q1, q3, (q3 - q1) / med if med else 0.0,
                     len(vals), failed, attempted))
        sys.stdout.flush()
    if args.trace:
        names = args.workloads.split(",")
        traced = {w: bench(w, seeds[0], args.seconds, trace=True) for w in names}
        print()
        print("Traced run, seed %d:" % seeds[0])
        print()
        print("| metric | unit | %s |" % " | ".join(names))
        print("|---|---|%s" % ("---|" * len(names)))
        first = traced[names[0]][0]["metrics"]
        for metric, m in first.items():
            print("| %s | %s | %s |" % (metric, m["unit"], " | ".join(
                "%.6g" % traced[w][0]["metrics"][metric]["value"] for w in names)))
        print()
        print("Self time of each span (and of each span<parent pair of at least %d%%) as a"
              " share of the traced wall time:" % PAIR_SHARE_MIN)
        print()
        print("| workload | span | self s | share |")
        print("|---|---|---|---|")
        for w in names:
            for h in traced[w][1]:
                parts = h.split()
                if len(parts) == 6 and parts[1] == "share":
                    share = float(parts[5].rstrip("%"))
                    if share >= (PAIR_SHARE_MIN if "<" in parts[2] else 1.0):
                        print("| %s | %s | %s | %s |" % (w, parts[2], parts[3], parts[5]))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
