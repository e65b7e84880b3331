#!/usr/bin/env python3
"""Python frames and bytecode instructions per consumer interest.

    python3 tools/pathcount.py SCENARIO [--set k=v ...] [--instructions]

Runs SCENARIO in this process with ``icnsim.harness.run_scenario`` and
counts, inside ``Network.run_to_completion`` only, every Python frame
entered (``sys.setprofile`` ``call`` events) and, with ``--instructions``,
every bytecode instruction executed (``sys.settrace`` with
``f_trace_opcodes``). Both are divided by the consumer interests issued,
which are the calls of ``Population._issue_interest``. It prints one row
per function (calls, frames and instructions per interest, instructions
per call) and then one JSON line with the totals.

``icnsim`` is imported from ``PYTHONPATH`` when it is there, else from
this checkout's ``src``; so ``PYTHONPATH=OTHER/src`` measures another
tree with this script. The ``flash-crowd`` benchmark workload at seed S is
``scenarios/reference.json --set seed=S``. Counting frames makes a run
about 5 times slower and counting instructions about 70 times: about 40
seconds and 10 minutes for ``flash-crowd`` with Python 3.11 on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _where(code) -> str:
    return "%s:%d" % (Path(code.co_filename).name, code.co_firstlineno)


def count(scenario: str, sets: list[str], instructions: bool) -> dict:
    """Run ``scenario`` and return the totals and per-code counts."""
    import icnsim
    from icnsim.harness import run_scenario
    from icnsim.simnet import Network, Population

    issue_code = Population._issue_interest.__code__
    calls: dict = {}   # code -> frames entered
    ops: dict = {}     # code -> instructions executed
    engine = Network.run_to_completion

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[code] = calls.get(code, 0) + 1

    def local(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            ops[code] = ops.get(code, 0) + 1
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        calls[code] = calls.get(code, 0) + 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    def counted(self):
        if instructions:
            sys.settrace(trace)
        else:
            sys.setprofile(profile)
        try:
            return engine(self)
        finally:
            sys.settrace(None)
            sys.setprofile(None)

    Network.run_to_completion = counted
    try:
        run = run_scenario(scenario, None, sets)
    finally:
        Network.run_to_completion = engine
    interests = calls.get(issue_code, 0)
    return {"icnsim": str(Path(icnsim.__file__).parent), "requests": len(run.records),
            "ok": sum(1 for r in run.records if r.status == "ok"),
            "interests": interests, "frames": sum(calls.values()),
            "instructions": sum(ops.values()) if instructions else None,
            "calls": calls, "ops": ops}


def report(res: dict, instructions: bool, top: int) -> str:
    per = max(res["interests"], 1)
    rows = []
    for code, n in res["calls"].items():
        k = res["ops"].get(code, 0)
        rows.append((k if instructions else n, code.co_qualname, _where(code), n, k))
    rows.sort(key=lambda r: (-r[0], r[1], r[2]))
    head = "%-44s %-22s %10s %9s" % ("function", "where", "calls", "frames/i")
    if instructions:
        head += " %9s %9s" % ("instr/call", "instr/i")
    lines = [head]
    for _key, name, where, n, k in rows[:top]:
        line = "%-44s %-22s %10d %9.3f" % (name[:44], where, n, n / per)
        if instructions:
            line += " %9.1f %9.1f" % (k / n, k / per)
        lines.append(line)
    if len(rows) > top:
        lines.append("... %d more functions" % (len(rows) - top))
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("scenario")
    ap.add_argument("--set", action="append", default=[], metavar="K=V",
                    help="scenario override, as for icnsim run")
    ap.add_argument("--instructions", action="store_true",
                    help="also count bytecode instructions (slow)")
    ap.add_argument("--top", type=int, default=30, help="rows of the table")
    args = ap.parse_args(argv)
    sys.path.append(str(SRC))  # after PYTHONPATH, which may name another tree
    res = count(args.scenario, args.set, args.instructions)
    print("icnsim from %s: %d requests, %d ok, %d consumer interests"
          % (res["icnsim"], res["requests"], res["ok"], res["interests"]))
    print(report(res, args.instructions, args.top))
    per = res["interests"]
    summary = {"requests": res["requests"], "ok": res["ok"], "interests": per,
               "frames": res["frames"],
               "frames_per_interest": round(res["frames"] / per, 3) if per else None}
    if args.instructions:
        summary["instructions"] = res["instructions"]
        summary["instructions_per_interest"] = (round(res["instructions"] / per, 1)
                                                if per else None)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
