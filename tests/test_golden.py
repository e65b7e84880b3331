"""Output bytes of the mini scenario and of a Poisson variant, pinned by
SHA-256.

A change that alters any of these digests changes simulation output and
must say which bytes changed and why, then update the constants.
"""

import copy
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from icnsim.harness import OUTPUT_FILES, run_scenario

from conftest import MINI

# The icn node_counters, timeseries and summary digests moved when the
# gateway became a producer on a face: its answers count as content-store
# misses at its node and enter that node's store, which mem_bytes counts.
GOLDEN = {
    "icn": {
        "requests.csv": "5cfe8b11694fcef0e672a992c1c9e4f0e0053f2c6e8b17109a574b68120e6239",
        "node_counters.csv": "3a3d60d0bdd63f60c5d29520f7c4f7cef6c3add1fc0fb51830bde417020be8e4",
        "timeseries.csv": "d49fd1b05f21b0557f74013f5c220d5987a70bbf86b0b923654118a44ad54b1d",
        "summary.txt": "b77898f267a8d25aecfc25418f1b67c1202d9c8147e37b33d5c13a6257d37342",
    },
    "cdn-only": {
        "requests.csv": "da2a7133f55abe8a101197ffe3c0690077dedb593baabcef217c10892b29e216",
        "node_counters.csv": "0fce25f3fed19b0fd29b82a3cd7628f22ce8fef5004ae73e3ecd36c1fd1a0080",
        "timeseries.csv": "4a5837a4bdd064a9e77e1031884c9278a267d43cad1ae7fbbdec9ea55ed978db",
        "summary.txt": "ef536f4c33ccc903824a77f73e15398eff14aa149fc0343f48196b8898ff6023",
    },
}

# The Poisson variant pins the order of seeded draws between arrivals and
# interest nonces, a transcode, and content-store evictions at the edge.
GOLDEN_POISSON = {
    "icn": {
        "requests.csv": "633cdad7bb6a8d4e64f51b0ecc360de99d87b2c86d1aa1859c22878936b672de",
        "node_counters.csv": "67fd56c1231bf08909b3056275b678c344a6b311c998d70b0c1671bbdc5352e5",
        "timeseries.csv": "6ee40cf359d6f3acd042c1898e2661c631f64497a06db38fbbc54b76b7c93e08",
        "summary.txt": "0db56bcb0a803c92bb99c73a2046782f08639db4bb7d0c552c617d1496a5c7f1",
    },
    "cdn-only": {
        "requests.csv": "5833650cb61a7b98207d0396247ce42ac473f5bf9a50d2229c14a523fe0f26eb",
        "node_counters.csv": "d91f9c8c9439ef087472feacba9ce3a55e2eff3abe6ad21d1e4f6600751de66f",
        "timeseries.csv": "92e065de5965478cda167211ea54914f59285c7b9ea0d1d10b28967b88b86a83",
        "summary.txt": "0e1147363ad1242b7a7b83bb859de9d2724d5166be1613648e82eac667d248f8",
    },
}


def poisson_doc() -> dict:
    """mini with a 360p transcode, a 12 KiB edge store and two Poisson
    populations, one per resolution."""
    doc = json.loads(MINI.read_text())
    doc["northbound"].insert(2, {"op": "transcode", "slice": "c1",
                                 "content_id": "clip", "tag": "360p"})
    icn = next(op for op in doc["northbound"] if op["op"] == "create_icn_slice")
    next(v for v in icn["vnfs"] if v["node"] == "edge")["cs_capacity_bytes"] = 12288
    first = doc["populations"][0]
    first["request_count"] = 30
    first["pattern"] = {"kind": "poisson", "rate_per_s": 200}
    second = copy.deepcopy(first)
    second["content"] = "/cdn/clip/360p"
    second["request_count"] = 20
    second["pattern"] = {"kind": "poisson", "rate_per_s": 100}
    doc["populations"].append(second)
    return doc


def _digests(out):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in OUTPUT_FILES}


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_mini_output_digests(mode, tmp_path):
    run_scenario(MINI, tmp_path, ["mode=%s" % mode])
    assert _digests(tmp_path) == GOLDEN[mode]


@pytest.mark.parametrize("mode", sorted(GOLDEN_POISSON))
def test_poisson_output_digests(mode, tmp_path):
    path = tmp_path / "poisson.json"
    path.write_text(json.dumps(poisson_doc()))
    run = run_scenario(path, tmp_path / "out", ["mode=%s" % mode])
    assert len(run.records) == 50
    assert _digests(tmp_path / "out") == GOLDEN_POISSON[mode]


def test_bench_pairs_output_digests_match_golden():
    """The output check of ``tools/bench_pairs.py`` hashes the same bytes
    that ``GOLDEN`` pins."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  root / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    assert bench_pairs.output_digests(root, ["mini"]) == {
        "mini/" + mode: GOLDEN[mode] for mode in bench_pairs.OUTPUT_MODES}
