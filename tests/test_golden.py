"""Output bytes of the mini scenario, pinned by SHA-256.

A change that alters any of these digests changes simulation output and
must say which bytes changed and why, then update the constants.
"""

import hashlib

import pytest

from icnsim.harness import OUTPUT_FILES, run_scenario

from conftest import MINI

GOLDEN = {
    "icn": {
        "requests.csv": "5cfe8b11694fcef0e672a992c1c9e4f0e0053f2c6e8b17109a574b68120e6239",
        "node_counters.csv": "80bda733a93a684b8396b7e94a3d3bd17d2a6449ff3722dc49dc4130a8a29130",
        "timeseries.csv": "dc81f62f4ddd459c549333c49e0040f153c0f1eef63e37ede827417e15a5708e",
        "summary.txt": "30a180b6e930d18de2fb5def794b7f32a9b3c8db9e5eafbfb749bfa683ee76ca",
    },
    "cdn-only": {
        "requests.csv": "da2a7133f55abe8a101197ffe3c0690077dedb593baabcef217c10892b29e216",
        "node_counters.csv": "0fce25f3fed19b0fd29b82a3cd7628f22ce8fef5004ae73e3ecd36c1fd1a0080",
        "timeseries.csv": "4a5837a4bdd064a9e77e1031884c9278a267d43cad1ae7fbbdec9ea55ed978db",
        "summary.txt": "ef536f4c33ccc903824a77f73e15398eff14aa149fc0343f48196b8898ff6023",
    },
}


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_mini_output_digests(mode, tmp_path):
    run_scenario(MINI, tmp_path, ["mode=%s" % mode])
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in OUTPUT_FILES}
    assert got == GOLDEN[mode]
