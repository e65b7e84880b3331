#!/usr/bin/env python3
"""Host-time benchmark of icnsim.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. For each workload it writes a scenario
generated from ``--seed`` under ``.perfbench-out/`` and runs the program on
it, one simulation at a time, each in a fresh interpreter. With
``--trace 0`` it repeats whole simulations until ``--seconds`` have passed
(at least one) and reports the end-to-end metrics as medians over them;
set-up time is the median of set-ups repeated in two more interpreters,
one before the simulations and one after them.
End-to-end times are CPU seconds of the simulation's process: the
simulator is single-threaded and does no waiting, and CPU time leaves out
the vCPU time the hypervisor steals, which moves wall time by up to a
third from one run to the next on a shared virtual machine.
With ``--trace 1`` it makes one untraced and one traced simulation and
reports the per-layer metrics. Every simulation is checked by
``checks.py``; the last line of standard output is one JSON object, and
the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

import checks  # noqa: E402  (sibling modules, found through the script directory)
import workloads  # noqa: E402

PLAIN_HASHSEED = "0"       # untraced simulations
TRACED_HASHSEED = "1"      # the traced one: outputs must not depend on it

END_TO_END = [("cpu_s", "s"), ("setup_s", "s"), ("requests_per_cpu_s", "1/s"),
              ("peak_rss_mb", "MiB")]

# (metric, unit, better); spans are named after the layer they wrap.
PER_LAYER = [
    ("simnet.events", "count", "lower"),
    ("simnet.engine_self_s", "s", "lower"),
    ("simnet.send.calls", "count", "lower"),
    ("simnet.send.self_s", "s", "lower"),
    ("simnet.receive.calls", "count", "lower"),
    ("simnet.receive.self_s", "s", "lower"),
    ("simnet.consumer.calls", "count", "lower"),
    ("simnet.consumer.self_s", "s", "lower"),
    ("simnet.ip.calls", "count", "lower"),
    ("simnet.ip.self_s", "s", "lower"),
    ("forwarder.on_interest.calls", "count", "lower"),
    ("forwarder.on_interest.self_s", "s", "lower"),
    ("forwarder.on_data.calls", "count", "lower"),
    ("forwarder.on_data.self_s", "s", "lower"),
    ("forwarder.pit_aggregations", "count", "higher"),
    ("forwarder.cs_insert.calls", "count", "lower"),
    ("forwarder.cs_insert.self_s", "s", "lower"),
    ("forwarder.cs_evictions", "count", "lower"),
    ("forwarder.pit_expire.self_s", "s", "lower"),
    ("forwarder.pit_timeouts", "count", "lower"),
    ("forwarder.cs_hit_ratio", "ratio", "higher"),
    ("gateway.on_interest.calls", "count", "lower"),
    ("gateway.on_interest.self_s", "s", "lower"),
    ("gateway.publish.calls", "count", "lower"),
    ("gateway.publish.self_s", "s", "lower"),
    ("gateway.segments", "count", "lower"),
    ("gateway.origin_fetches", "count", "lower"),
    ("ndn.digest.calls", "count", "lower"),
    ("ndn.digest.mib", "MiB", "lower"),
    ("ndn.digest.self_s", "s", "lower"),
    ("ndn.digests_per_chunk", "ratio", "lower"),
    ("ndn.decremented.calls", "count", "lower"),
    ("ndn.decremented.self_s", "s", "lower"),
    ("ndn.hash_stream.self_s", "s", "lower"),
    ("origin.stream.calls", "count", "lower"),
    ("origin.stream.mib", "MiB", "lower"),
    ("origin.stream.self_s", "s", "lower"),
    ("origin.transcode.self_s", "s", "lower"),
    ("orchestration.self_s", "s", "lower"),
    ("scenario.load_s", "s", "lower"),
    ("metrics.write_s", "s", "lower"),
    ("metrics.rows", "count", "lower"),
    ("harness.trace_overhead_s", "s", "lower"),
    ("sim.makespan_ms", "ms", "lower"),
    ("sim.delivery_median_ms", "ms", "lower"),
]
UNITS = {name: unit for name, unit in END_TO_END}
UNITS.update({name: unit for name, unit, _better in PER_LAYER})


class BenchError(RuntimeError):
    pass


def child(mode: str, scenario: Path, work: Path, hashseed: str, tag: str,
          out: Path | None = None) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    result = work / ("%s.json" % tag)
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--scenario", str(scenario), "--result", str(result), "--mode", mode]
    if out is not None:
        if out.exists():
            shutil.rmtree(out)
        cmd += ["--out", str(out)]
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(cmd, env=env, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError("%s simulation exited with code %d" % (mode, proc.returncode))
    return json.loads(result.read_text())


def prepare(workload: str, seed: int) -> tuple[dict, Path, Path]:
    work = OUT / workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    doc = workloads.generate(workload, ROOT, seed)
    scenario = work / "scenario.json"
    scenario.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc, work, scenario


def check_round(doc: dict, out: Path, res: dict) -> list[str]:
    received = {rid: n for rid, n in res["received"]}
    return checks.check_run(doc, out, received)


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced: the end-to-end metrics as medians over whole simulations.
    Set-ups are repeated in one interpreter before the simulations and in
    another after them, so that their median spans the host's slow and
    fast spells rather than one of them."""
    doc, work, scenario = prepare(workload, seed)
    setup = child("setup", scenario, work, PLAIN_HASHSEED, "setup")["setup_s"]
    rounds, errors = [], []
    t_measure = time.monotonic()
    while not rounds or time.monotonic() - t_measure < seconds:
        out = work / "out"
        res = child("run", scenario, work, PLAIN_HASHSEED, "round", out)
        errors += check_round(doc, out, res)
        rounds.append(res)
    setup += child("setup", scenario, work, PLAIN_HASHSEED, "setup")["setup_s"]
    metrics = {
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "setup_s": statistics.median(setup),
        "requests_per_cpu_s": statistics.median(r["ok"] / r["engine_cpu_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return {"errors": errors,
            "attempted": sum(r["requests"] for r in rounds),
            "failed": sum(r["requests"] - r["ok"] for r in rounds),
            "metrics": metrics,
            "info": {"rounds": len(rounds), "setup_reps": len(setup),
                     "wall_s": round(statistics.median(r["wall_s"] for r in rounds), 3)}}


def _span(spans: dict, name: str) -> list:
    return spans.get(name, [0, 0.0, 0.0])


def layer_metrics(doc: dict, plain: dict, traced: dict, plain_out: Path) -> dict:
    spans, c = traced["spans"], traced["counts"]
    m: dict[str, float] = {}
    for metric, _unit, _better in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            m[metric] = _span(spans, base)[0]
        elif field == "self_s":
            m[metric] = _span(spans, base)[2]
    rows = checks.read_csv(plain_out / "requests.csv")
    ok = [float(r["delivery_ms"]) for r in rows if r["status"] == "ok"]
    deliveries = m["simnet.consumer.calls"]
    lookups = c["cs_hits"] + c["cs_misses"]
    m.update({
        "simnet.events": c.get("events.scheduled", 0) - c.get("events.cancelled", 0),
        "simnet.engine_self_s": _span(spans, "simnet.engine")[2],
        "forwarder.pit_aggregations": c.get("forwarder.pit_aggregations", 0),
        "forwarder.cs_evictions": c.get("forwarder.cs_evictions", 0),
        "forwarder.pit_timeouts": c.get("forwarder.pit_timeouts", 0),
        "forwarder.cs_hit_ratio": c["cs_hits"] / lookups if lookups else 0.0,
        "gateway.segments": c.get("gateway.segments", 0),
        "gateway.origin_fetches": c["origin_fetches"],
        "ndn.digest.mib": c.get("ndn.digest.bytes", 0) / 2**20,
        "ndn.digests_per_chunk": m["ndn.digest.calls"] / deliveries if deliveries else 0.0,
        "origin.stream.mib": c.get("origin.stream.bytes", 0) / 2**20,
        "orchestration.self_s": _span(spans, "orchestration")[2],
        "scenario.load_s": _span(spans, "scenario.load")[1],
        "metrics.write_s": _span(spans, "metrics.write")[1],
        "metrics.rows": c.get("metrics.rows", 0),
        "harness.trace_overhead_s": traced["cpu_s"] - plain["cpu_s"],
        "sim.makespan_ms": max(float(r["t_complete_ms"]) for r in rows),
        "sim.delivery_median_ms": statistics.median(ok) if ok else 0.0,
    })
    return {name: m[name] for name, _unit, _better in PER_LAYER}


def layer_shares(traced: dict) -> list[tuple[str, float, float]]:
    """(span, self_s, share of the traced wall time), largest first; the
    rest of the wall time is outside every traced span. Then the same per
    ``span<parent`` for each pair with at least 1% of the wall time."""
    wall = traced["wall_s"]
    rows = [(name, agg[2], agg[2] / wall) for name, agg in traced["spans"].items()]
    rest = wall - sum(s for _n, s, _f in rows)
    rows.append(("(outside-spans)", rest, rest / wall))
    pairs = [("%s<%s" % (name, parent), self_s, self_s / wall)
             for name, parent, _calls, _total, self_s in traced["spans_by_parent"]
             if self_s >= 0.01 * wall]
    return sorted(rows, key=lambda r: -r[1]) + sorted(pairs, key=lambda r: -r[1])


def measure_traced(workload: str, seed: int) -> dict:
    """One untraced and one traced simulation: the per-layer metrics."""
    doc, work, scenario = prepare(workload, seed)
    plain_out, traced_out = work / "plain", work / "traced"
    plain = child("run", scenario, work, PLAIN_HASHSEED, "plain", plain_out)
    traced = child("trace", scenario, work, TRACED_HASHSEED, "traced", traced_out)
    errors = (check_round(doc, plain_out, plain) + check_round(doc, traced_out, traced)
              + checks.compare_outputs(plain_out, traced_out) + traced["chunk_errors"])
    if traced["chunks_checked"] == 0:
        errors.append("the traced run handed no chunk to a consumer")
    return {"errors": errors,
            "attempted": plain["requests"] + traced["requests"],
            "failed": (plain["requests"] - plain["ok"]) + (traced["requests"] - traced["ok"]),
            "metrics": layer_metrics(doc, plain, traced, plain_out),
            "info": {"chunks_checked": traced["chunks_checked"],
                     "traced_wall_s": traced["wall_s"]},
            "shares": layer_shares(traced)}


def report(workload: str, res: dict) -> dict:
    for name, value in res["metrics"].items():
        print("%-12s %-30s %16.6f %s" % (workload, name, value, UNITS[name]))
    for name, self_s, share in res.get("shares", []):
        print("%-12s share %-40s %10.3f s %6.1f%%" % (workload, name, self_s, 100 * share))
    print("%-12s requests attempted=%d failed=%d %s" % (
        workload, res["attempted"], res["failed"],
        " ".join("%s=%s" % kv for kv in res["info"].items())))
    for e in res["errors"]:
        print("%-12s CHECK FAILED: %s" % (workload, e))
    return {"correct": not res["errors"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in res["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    for needed in (ROOT / "src" / "icnsim" / "__init__.py", ROOT / workloads.REFERENCE):
        if not needed.is_file():
            print("perfbench: %s not found; run from a checkout of the repository"
                  % needed, file=sys.stderr)
            return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            res = (measure_traced(name, args.seed) if args.trace
                   else measure(name, args.seed, args.seconds))
            results[name] = report(name, res)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    if len(results) == 1:
        line = next(iter(results.values()))
    else:
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                            for k, v in r["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
