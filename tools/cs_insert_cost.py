#!/usr/bin/env python3
"""Microseconds per insert into a full content store.

    python3 tools/cs_insert_cost.py [--root CHECKOUT] [--repeat R]

Imports ``icnsim`` from ``CHECKOUT/src`` (this checkout by default), so
the same script measures a parent tree extracted with ``git archive``.
For each store of 1k, 4k and 16k entries of 100 bytes, it fills the store
with one new name every 0.05 ms, then times as many more inserts, each of
which overflows the store. An entry's residence time is the store's
entry count times 0.05 ms; the freshness is either 90% of it, so that the
oldest tenth of the store is stale when an insert overflows it, or 1 h,
so that no entry goes stale. Each run builds its Data afresh, before
timing, and the garbage collector is off while timing. Each line printed
is one JSON object: entries, freshness, the median over R runs of
microseconds per timed insert, and the names those inserts evicted in
the last run.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import time
from pathlib import Path

SIZES = (1000, 4000, 16000)
GAP_MS = 0.05
PAYLOAD = bytes(100)
HOUR_MS = 3_600_000


def measure(n: int, freshness_ms: int, repeat: int) -> dict:
    from icnsim.forwarder import ContentStore
    from icnsim.ndn import Name, make_data

    runs = []
    for _ in range(repeat):
        # Names hash by identity, so each run's names probe the tables
        # differently; building them afresh per run samples that spread.
        datas = [make_data(Name((b"cs", b"%d" % i)), PAYLOAD, freshness_ms, 0)
                 for i in range(2 * n)]
        store = ContentStore(n * len(PAYLOAD))
        for i in range(n):
            store.insert(i * GAP_MS, datas[i])
        evicted = 0
        gc.disable()
        try:
            t0 = time.perf_counter()
            for i in range(n, 2 * n):
                evicted += len(store.insert(i * GAP_MS, datas[i])[1])
            t1 = time.perf_counter()
        finally:
            gc.enable()
        runs.append((t1 - t0) / n * 1e6)
        del datas, store  # names are interned: drop them so the next run makes new ones
    return {"entries": n, "freshness_ms": freshness_ms,
            "us_per_insert": round(statistics.median(runs), 3), "evicted": evicted}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout whose src/icnsim is measured")
    ap.add_argument("--repeat", type=int, default=5, help="runs per store size and freshness")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    print(json.dumps({"root": str(args.root), "python": platform.python_version(),
                      "machine": platform.machine()}))
    for n in SIZES:
        for freshness_ms in (int(0.9 * n * GAP_MS), HOUR_MS):
            print(json.dumps(measure(n, freshness_ms, args.repeat)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
