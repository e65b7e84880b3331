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
# Every timeseries and summary digest here and in ``GOLDEN_POISSON`` moved
# when a run came to end at the event that ends its last request or origin
# fetch rather than at the slice expiry (600,000 ms): ``final_time_ms`` is
# that time, and the last timeseries rows are the partial bucket up to it.
GOLDEN = {
    "icn": {
        "requests.csv": "5cfe8b11694fcef0e672a992c1c9e4f0e0053f2c6e8b17109a574b68120e6239",
        "node_counters.csv": "3a3d60d0bdd63f60c5d29520f7c4f7cef6c3add1fc0fb51830bde417020be8e4",
        "timeseries.csv": "d6c59fa6ebe213a242561fd48e3981eaa6e0a7c8f7749bdf3fafc74c85ddf921",
        "summary.txt": "6746cde1f4808d2f60f939d837453622a977a6958214385f5ea3ccfae287dab0",
    },
    "cdn-only": {
        "requests.csv": "da2a7133f55abe8a101197ffe3c0690077dedb593baabcef217c10892b29e216",
        "node_counters.csv": "0fce25f3fed19b0fd29b82a3cd7628f22ce8fef5004ae73e3ecd36c1fd1a0080",
        "timeseries.csv": "9a5e9ef01bd40bee87e72dbd25839095447434712d08adfad295033a05514c3f",
        "summary.txt": "3789dd167ee6ed094588117f071ac7b6014f3505facdeb5f773a283975930bcf",
    },
}

# The Poisson variant pins the order of seeded draws between arrivals and
# interest nonces, a transcode, and content-store evictions at the edge.
GOLDEN_POISSON = {
    "icn": {
        "requests.csv": "633cdad7bb6a8d4e64f51b0ecc360de99d87b2c86d1aa1859c22878936b672de",
        "node_counters.csv": "67fd56c1231bf08909b3056275b678c344a6b311c998d70b0c1671bbdc5352e5",
        "timeseries.csv": "160e5eb8c634ddb9f68adcbffb38f2da6e356cc874c8f8dcb03ba357e73963a1",
        "summary.txt": "5d0540929f3f5336a524b6219eda0fa7829bb32b8a5dc16a5683778c74a7bd82",
    },
    "cdn-only": {
        "requests.csv": "5833650cb61a7b98207d0396247ce42ac473f5bf9a50d2229c14a523fe0f26eb",
        "node_counters.csv": "d91f9c8c9439ef087472feacba9ce3a55e2eff3abe6ad21d1e4f6600751de66f",
        "timeseries.csv": "318b9692f82d06d240000c18ded42e708bab425c7864e2a2892288183f574112",
        "summary.txt": "3ece73f67a97181eb83e3fa0a3e9b455043507af737bb26e2d4fa0047119f0bc",
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
