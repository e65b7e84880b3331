#!/usr/bin/env python3
"""Fast test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs the small ``mini`` scenario in both modes through ``child.py`` (the
path the benchmark uses), shows that every check passes on the real
outputs, then that each check rejects a run with one planted fault: a
record removed, a record duplicated, one delivered chunk corrupted, a
delivery faster than its lower bound. It also checks that
``BENCHMARK.json`` names exactly the metrics ``run.py`` reports and only
workloads it knows.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402
import run  # noqa: E402


def _traced_run(doc: dict, tmp: Path) -> tuple[Path, dict, list]:
    scenario = tmp / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out, result, chunks = tmp / "out", tmp / "result.json", tmp / "chunks.json"
    subprocess.run([sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
                    "--scenario", str(scenario), "--result", str(result),
                    "--out", str(out), "--mode", "trace", "--chunks", str(chunks)],
                   check=True, cwd=ROOT)
    delivered = [(c, r, s, bytes.fromhex(p)) for c, r, s, p in json.loads(chunks.read_text())]
    return out, json.loads(result.read_text()), delivered


class _RunFixture:
    mode = "icn"

    @classmethod
    def setUpClass(cls):
        cls.tmp = run.OUT / ("selftest-%s" % cls.mode)
        shutil.rmtree(cls.tmp, ignore_errors=True)
        cls.tmp.mkdir(parents=True)
        doc = json.loads((ROOT / "scenarios" / "mini.json").read_text())
        doc["mode"] = cls.mode
        cls.doc = doc
        cls.out, cls.res, cls.chunks = _traced_run(doc, cls.tmp)
        cls.rows = checks.read_csv(cls.out / "requests.csv")
        cls.received = {rid: n for rid, n in cls.res["received"]}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_real_run_passes_every_check(self):
        self.assertTrue(self.rows)
        self.assertEqual(checks.check_run(self.doc, self.out, self.received), [])
        self.assertEqual(self.res["chunk_errors"], [])
        self.assertGreater(self.res["chunks_checked"], 0)
        self.assertEqual(checks.check_chunks(self.doc, self.chunks), [])

    def test_removed_record_is_rejected(self):
        rows = self.rows[:2] + self.rows[3:]
        self.assertTrue(checks.check_request_ids(self.doc, rows))

    def test_duplicated_record_is_rejected(self):
        rows = self.rows + [dict(self.rows[1])]
        self.assertTrue(checks.check_request_ids(self.doc, rows))

    def test_corrupted_chunk_is_rejected(self):
        chunks = list(self.chunks)
        cid, res, seg, payload = chunks[-1]
        chunks[-1] = (cid, res, seg, payload[:-1] + bytes([payload[-1] ^ 1]))
        self.assertTrue(checks.check_chunks(self.doc, chunks))

    def test_fast_delivery_is_rejected(self):
        bounds = checks.lower_bounds(self.doc, self.rows)
        rid = max(bounds, key=bounds.get)
        self.assertGreater(bounds[rid], 0.0)
        rows = copy.deepcopy(self.rows)
        for r in rows:
            if int(r["request_id"]) == rid:
                r["delivery_ms"] = "%.6f" % (bounds[rid] * 0.99)
        self.assertEqual(checks.check_delivery_bounds(self.doc, self.rows), [])
        self.assertTrue(checks.check_delivery_bounds(self.doc, rows))

    def test_wrong_byte_count_is_rejected(self):
        received = dict(self.received)
        received[0] -= 1
        self.assertTrue(checks.check_bytes(self.doc, self.rows, received))


class IcnChecks(_RunFixture, unittest.TestCase):
    mode = "icn"

    def test_origin_fetched_once(self):
        counters = checks.read_csv(self.out / "node_counters.csv")
        self.assertEqual(checks.check_origin_fetches(self.doc, counters), [])
        counters[0]["origin_fetches"] = str(int(counters[0]["origin_fetches"]) + 1)
        self.assertTrue(checks.check_origin_fetches(self.doc, counters))


class CdnOnlyChecks(_RunFixture, unittest.TestCase):
    mode = "cdn-only"


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_run_py(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        gated = [w["name"] for w in spec["workloads"]]
        self.assertTrue(set(gated) <= set(run.workloads.WORKLOADS), gated)


if __name__ == "__main__":
    unittest.main()
