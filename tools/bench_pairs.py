#!/usr/bin/env python3
"""Paired host-time benchmark of a change against a parent revision.

    python3 tools/bench_pairs.py --parent REV [--pairs N] [--workload W ...]
        [--seed S ...] --out BENCH_<n>.json

Run from the root of a checkout; the change is that checkout as it
stands. REV's committed files are extracted with ``git archive`` into a
temporary directory. First each side runs ``icnsim run`` on
``scenarios/mini.json`` and ``scenarios/reference.json`` in both delivery
modes, and the SHA-256 of every output file is recorded. For each workload
at its first seed, each side runs the unchanged ``perfbench/run.py --trace
1`` once, and the counts of that traced line (every per-layer metric not in
seconds) are recorded, with the names of those that differ, and
``tools/pathcount.py`` (frames only) counts that workload's Python frames
per consumer interest on each side's ``src``. Then, for each workload and
seed, each pair runs the unchanged ``perfbench/run.py --trace 0`` once on
each side, the parent first in even pairs and the change first in odd
ones, so that a slow or fast spell of the host falls on both sides alike.
The output holds both sides' output digests, every run's last line, and
per end-to-end metric each side's quartiles and median and the number of
pairs the change won; which way is better comes from ``BENCHMARK.json``.
The exit code is 1 if the two sides' output digests differ, or if any
untraced run failed its checks or exited non-zero; the traced lines and
the frame counts do not change it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT_SCENARIOS = ("mini", "reference")
OUTPUT_MODES = ("icn", "cdn-only")
RUN_CLI = "import sys; from icnsim.cli import main; sys.exit(main(sys.argv[1:]))"
WRITE_WORKLOAD = ("import json, sys; from pathlib import Path; sys.path.insert(0, 'perfbench'); "
                  "import workloads; Path(sys.argv[3]).write_text(json.dumps("
                  "workloads.generate(sys.argv[1], Path('.'), int(sys.argv[2]))))")


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def bench(root: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One ``perfbench/run.py --trace <trace>`` in ``root``: its last stdout line."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return {"exit": proc.returncode, "line": line}


def traced_counts(roots: dict[str, Path], workload: str, seed: int,
                  names: list[str]) -> dict:
    """One traced run on each side of ``roots`` (keys ``parent`` and
    ``change``): its exit code, its ``correct`` flag and the value of each
    metric in ``names``; and the names whose values differ."""
    out = {}
    for side, root in roots.items():
        res = bench(root, workload, seed, trace=1)
        metrics = res["line"].get("metrics", {})
        out[side] = {"exit": res["exit"], "correct": res["line"].get("correct"),
                     "counts": {n: metrics[n]["value"] for n in names if n in metrics}}
    parent, change = out["parent"]["counts"], out["change"]["counts"]
    out["differ"] = [n for n in names if parent.get(n) != change.get(n)]
    return out


def path_frames(roots: dict[str, Path], workload: str, seed: int) -> dict:
    """``tools/pathcount.py`` on ``workload`` at ``seed``, as each side's
    ``perfbench/workloads.py`` writes it, with each side's ``src``: the
    totals line of each side (frames, consumer interests and frames per
    interest), or its exit code if it failed."""
    out = {}
    with tempfile.TemporaryDirectory(prefix="bench-pathcount-") as tmp:
        for side, root in roots.items():
            scenario = Path(tmp) / ("%s.json" % side)
            proc = subprocess.run([sys.executable, "-c", WRITE_WORKLOAD, workload, str(seed),
                                   str(scenario)], cwd=root, capture_output=True)
            if proc.returncode == 0:
                proc = subprocess.run(
                    [sys.executable, str(ROOT / "tools" / "pathcount.py"), str(scenario),
                     "--top", "0"], cwd=root, capture_output=True, text=True,
                    env=dict(os.environ, PYTHONPATH=str(root / "src")))
            lines = proc.stdout.strip().splitlines() if proc.returncode == 0 else []
            out[side] = (json.loads(lines[-1]) if lines and lines[-1].startswith("{")
                         else {"exit": proc.returncode})
    return out


def output_digests(root: Path, scenarios=OUTPUT_SCENARIOS) -> dict[str, dict[str, str]]:
    """SHA-256 of each output file of ``icnsim run`` on ``root``'s
    ``scenarios/<name>.json`` in each mode, run from ``root/src`` in a fresh
    interpreter, keyed ``"<name>/<mode>"``; a failed run maps to its exit code."""
    out = {}
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory(prefix="bench-outputs-") as tmp:
        for name in scenarios:
            for mode in OUTPUT_MODES:
                dest = Path(tmp) / name / mode
                proc = subprocess.run(
                    [sys.executable, "-c", RUN_CLI, "run",
                     str(root / "scenarios" / (name + ".json")), "--out", str(dest),
                     "--mode", mode], cwd=root, env=env, capture_output=True)
                key = "%s/%s" % (name, mode)
                if proc.returncode != 0:
                    out[key] = {"exit": proc.returncode}
                    continue
                out[key] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                            for f in sorted(dest.iterdir())}
    return out


def quartiles(xs: list[float]) -> list[float]:
    """[q1, median, q3]; a single value is its own quartiles."""
    if len(xs) == 1:
        return [xs[0]] * 3
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, med, q3]


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    pairs = sorted({r["pair"] for r in runs})
    for metric, way in better.items():
        value = {(r["pair"], r["side"]): r["line"].get("metrics", {}).get(metric, {}).get("value")
                 for r in runs}
        both = [p for p in pairs
                if value[p, "parent"] is not None and value[p, "change"] is not None]
        if not both:
            continue
        parent = [value[p, "parent"] for p in both]
        change = [value[p, "change"] for p in both]
        sign = 1 if way == "lower" else -1
        wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0)
        pq, cq = quartiles(parent), quartiles(change)
        out[metric] = {"better": way, "parent_q1_median_q3": pq, "change_q1_median_q3": cq,
                       "median_change": (cq[1] - pq[1]) / pq[1] if pq[1] else None,
                       "change_wins": wins, "pairs": len(both)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", nargs="+", default=["flash-crowd"])
    ap.add_argument("--seed", type=int, nargs="+", default=[7])
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    counts = [m["name"] for m in declared["per_layer"] if m["unit"] != "s"]
    parent_commit = git("rev-parse", "--verify", args.parent + "^{commit}")
    doc = {
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0, alternating "
                   "parent/change, parent first in even pairs",
        "parent_commit": parent_commit,
        # The change is the checkout: HEAD plus any uncommitted edits.
        "change": {"head": git("rev-parse", "HEAD"),
                   "uncommitted_edits": bool(git("status", "--porcelain",
                                                 "--untracked-files=no"))},
        "machine": "%s, %d CPUs, Python %s" % (platform.platform(), os.cpu_count() or 0,
                                               platform.python_version()),
        "pairs": args.pairs,
        "traced": {},
        "pathcount": {},
        "results": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_root = Path(tmp) / "parent"
        parent_root.mkdir()
        archive = subprocess.run(["git", "archive", parent_commit], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_root)], input=archive, check=True)
        outputs = {"parent": output_digests(parent_root), "change": output_digests(ROOT)}
        outputs["identical"] = outputs["parent"] == outputs["change"]
        doc["outputs"] = outputs
        failed = not outputs["identical"]
        print("output digests of %s: %s" % (", ".join(sorted(outputs["change"])),
                                            "identical" if not failed else "DIFFER"),
              file=sys.stderr, flush=True)
        roots = {"parent": parent_root, "change": ROOT}
        for workload in args.workload:
            traced = traced_counts(roots, workload, args.seed[0], counts)
            doc["traced"]["%s@%d" % (workload, args.seed[0])] = traced
            print("%s seed %d traced: correct %s / %s, counts %s"
                  % (workload, args.seed[0], traced["parent"]["correct"],
                     traced["change"]["correct"],
                     "differ: " + " ".join(traced["differ"]) if traced["differ"]
                     else "identical"), file=sys.stderr, flush=True)
            frames = path_frames(roots, workload, args.seed[0])
            doc["pathcount"]["%s@%d" % (workload, args.seed[0])] = frames
            print("%s seed %d frames per consumer interest: parent %s, change %s"
                  % (workload, args.seed[0], frames["parent"].get("frames_per_interest"),
                     frames["change"].get("frames_per_interest")), file=sys.stderr, flush=True)
            for seed in args.seed:
                runs = []
                for pair in range(args.pairs):
                    order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                    for side in order:
                        res = bench(roots[side], workload, seed)
                        ok = res["exit"] == 0 and res["line"].get("correct") is True
                        failed |= not ok
                        runs.append({"pair": pair, "side": side, **res})
                        cpu = res["line"].get("metrics", {}).get("cpu_s", {}).get("value")
                        print("%s seed %d pair %d %-6s cpu_s %s%s"
                              % (workload, seed, pair, side, cpu, "" if ok else " FAILED"),
                              file=sys.stderr, flush=True)
                doc["results"]["%s@%d" % (workload, seed)] = {
                    "workload": workload, "seed": seed,
                    "summary": summarize(runs, better), "runs": runs}
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for key, res in doc["results"].items():
        for metric, s in res["summary"].items():
            print("%-18s %-20s parent %.6g change %.6g (%+.1f%%) wins %d/%d"
                  % (key, metric, s["parent_q1_median_q3"][1], s["change_q1_median_q3"][1],
                     100 * (s["median_change"] or 0.0), s["change_wins"], s["pairs"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
