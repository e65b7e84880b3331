import hashlib
import json
from pathlib import Path

import pytest

from icnsim.cli import main
from icnsim.metrics import (NODE_COUNTERS_HEADER, REQUESTS_HEADER,
                            TIMESERIES_HEADER)

from conftest import MINI, REFERENCE


def tree_hash(d: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(d.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def test_validate_reference_clean(capsys):
    assert main(["validate", str(REFERENCE)]) == 0
    assert capsys.readouterr().out == ""


def test_validate_broken_scenario(tmp_path, capsys):
    doc = json.loads(MINI.read_text())
    doc["topology"]["links"][0]["a"] = "ghost"
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 2
    out = capsys.readouterr().out
    diag = json.loads(out.splitlines()[0])
    assert diag["code"] == "bad-reference"
    assert "topology.links.0" in diag["path"]


@pytest.mark.parametrize("override", [
    "domains.0=5", "domains=5", "topology.nodes.0=x", "topology.links.0=2",
    "contents.0=7", "contents.0.resolutions.0=9", "northbound=4",
    "northbound.0.vnfs=3", "northbound.0.vnfs.0=3", "populations.0=1"])
def test_validate_non_list_or_non_object_exits_2(override, capsys):
    # A list field that is not a list, or an element that is not an object,
    # is a diagnostic at its own path, not a crash.
    assert main(["validate", str(MINI), "--set", override]) == 2
    diags = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    path = override.partition("=")[0]
    assert {"code": "bad-value", "path": path} in [
        {"code": d["code"], "path": d["path"]} for d in diags]


@pytest.mark.parametrize("override", [
    "knobs.interest_lifetime_ms=-1", "knobs.interest_lifetime_ms=4294967296",
    "knobs.bucket_ms=0", "knobs.bucket_ms=-5", "knobs.scale_window_ms=0",
    "knobs.scale_window_ms=-1",
    # a tick period below 0.5 ms never ends in useful time
    "knobs.bucket_ms=0.4", "knobs.scale_window_ms=0.4", "populations.0.retransmit_ms=1e-9",
    # non-finite, boolean and non-integral values
    "knobs.interest_lifetime_ms=NaN", "knobs.chunk_size=Infinity", "knobs.bucket_ms=NaN",
    "knobs.chunk_size=1.5", "knobs.window=4.0", "seed=true", "mode=5",
    "populations.0.request_count=true", "topology.links.0.latency_ms=NaN",
    "northbound.0.duration_ms=-1", 'northbound.3.prefix=""',
    # just outside each knob's range
    "knobs.chunk_size=0", "knobs.window=0", "knobs.cs_capacity_bytes=-1",
    "knobs.gateway_weight=-0.01", "knobs.gateway_weight=1.01", "knobs.origin_timeout_ms=0",
    "knobs.per_packet_cost_ms=-0.01", "knobs.publish_freshness_ms=-1",
    "knobs.publish_freshness_ms=4294967296", "knobs.horizon_ms=0",
    "knobs.transcode_rate_bps=0", "knobs.scale_threshold=-0.01", "knobs.retransmit_max=0",
    # a number too large for a float, and strings that are not UTF-8
    *(pytest.param(path + "=1" + "0" * 400, id=path + "=10**400") for path in (
        "knobs.bucket_ms", "topology.links.0.latency_ms", "populations.0.retransmit_ms")),
    # too many digits for an int: the override reads as text
    pytest.param("knobs.window=1" + "0" * 5000, id="knobs.window=10**5000"),
    r'populations.0.content="/cdn/\ud800/720p"', r'northbound.3.prefix="/c\ud800"',
    r'populations.0.region="\ud800"'])
def test_validate_knob_out_of_range_exits_2(override, tmp_path, capsys):
    # Most of these used to validate (or crash validate), and then the run
    # failed, never ended, or ran with a value the document did not say.
    assert main(["validate", str(MINI), "--set", override]) == 2
    diags = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    path = override.partition("=")[0]
    assert [(d["code"], d["path"]) for d in diags] == [("bad-value", path)]
    out = tmp_path / "out"
    assert main(["run", str(MINI), "--out", str(out), "--set", override]) == 2
    assert not out.exists()


@pytest.mark.parametrize("override", [
    "knobs.interest_lifetime_ms=0", "knobs.interest_lifetime_ms=4294967295",
    "knobs.bucket_ms=0.5", "knobs.scale_window_ms=1",
    "knobs.chunk_size=1", "knobs.window=1", "knobs.cs_capacity_bytes=0",
    "knobs.gateway_weight=0", "knobs.gateway_weight=1", "knobs.origin_timeout_ms=1e-9",
    "knobs.per_packet_cost_ms=0", "knobs.publish_freshness_ms=0",
    "knobs.publish_freshness_ms=4294967295", "knobs.horizon_ms=1e-9",
    "knobs.transcode_rate_bps=1e-9", "knobs.scale_threshold=0", "knobs.retransmit_max=1"])
def test_validate_knob_at_range_edge_exits_0(override, capsys):
    assert main(["validate", str(MINI), "--set", override]) == 0
    assert capsys.readouterr().out == ""


def test_validate_untranscoded_variant_exits_2(capsys):
    # 360p is declared for the content but no transcode op produces it.
    assert main(["validate", str(MINI), "--set",
                 "populations.0.content=/cdn/clip/360p"]) == 2
    diag = json.loads(capsys.readouterr().out.splitlines()[0])
    assert (diag["code"], diag["path"]) == ("bad-reference", "populations.0.content")


def test_run_mini_writes_output_suite(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(MINI), "--out", str(out)]) == 0
    for name in ("requests.csv", "node_counters.csv", "timeseries.csv", "summary.txt"):
        assert (out / name).exists()
    req_header = (out / "requests.csv").read_text().splitlines()[0]
    assert req_header == ",".join(REQUESTS_HEADER)
    nc_header = (out / "node_counters.csv").read_text().splitlines()[0]
    assert nc_header == ",".join(NODE_COUNTERS_HEADER)
    ts_header = (out / "timeseries.csv").read_text().splitlines()[0]
    assert ts_header == ",".join(TIMESERIES_HEADER)
    assert "origin_fetches=1" in capsys.readouterr().out


def test_run_twice_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(MINI), "--out", str(a)]) == 0
    assert main(["run", str(MINI), "--out", str(b)]) == 0
    assert tree_hash(a) == tree_hash(b)


def test_run_seed_override_changes_nothing_structural(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(MINI), "--out", str(a), "--seed", "1"]) == 0
    assert main(["run", str(MINI), "--out", str(b), "--seed", "2"]) == 0
    ra = (a / "requests.csv").read_text().splitlines()
    rb = (b / "requests.csv").read_text().splitlines()
    assert len(ra) == len(rb)  # same workload, different nonces


def test_run_invalid_scenario_exits_2(tmp_path, capsys):
    doc = json.loads(MINI.read_text())
    doc["populations"][0]["attach_node"] = "ghost"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ghost" in err


def test_run_topology_link_duplicating_slice_link_exits_2(tmp_path, capsys):
    # mini links edge and gw inside slice i1 already.
    doc = json.loads(MINI.read_text())
    doc["topology"]["links"].append({"a": "edge", "b": "gw", "latency_ms": 1,
                                     "bandwidth_mbps": 10})
    p = tmp_path / "dup.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(p), "--out", str(out)]) == 2
    assert "topology.links.2" in capsys.readouterr().err
    assert not out.exists()


def test_run_runtime_failure_exits_3_and_removes_partial_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", str(MINI), "--out", str(out),
               "--set", "knobs.horizon_ms=0.5"])
    assert rc == 3
    assert not list(out.glob("*.csv")) if out.exists() else True


def test_run_population_outliving_its_slice_fails_its_requests(tmp_path, capsys):
    # Slice i1 holds the population's node and expires at 1 ms, before the
    # first answer. Request 0, in flight then, fails at the population's
    # next watchdog tick (retransmit_ms 4500) and each later one at its
    # arrival. Nothing is issued into the removed node: its two cache
    # misses are request 0's interests, sent at 0 ms, and it drops nothing.
    sets = ["--set", "populations.0.attach_node=edge", "--set", "northbound.2.duration_ms=1"]
    assert main(["validate", str(MINI)] + sets) == 0
    out = tmp_path / "out"
    assert main(["run", str(MINI), "--out", str(out)] + sets) == 0
    rows = [r.split(",") for r in (out / "requests.csv").read_text().splitlines()[1:]]
    assert len(rows) == 6
    assert [(r[6], r[9]) for r in rows] == (
        [("4500.000000", "failed")] + [(r[5], "failed") for r in rows[1:]])
    edge = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("node=edge ")]
    assert len(edge) == 1 and " cs_misses=2 " in edge[0] and edge[0].endswith(" drops=-")


def test_run_zero_capacity_store_caches_no_empty_data(tmp_path, capsys):
    # Node client has cs_capacity_bytes 0, so it caches nothing, not even
    # the 0-byte segment of an empty content.
    out = tmp_path / "out"
    assert main(["run", str(MINI), "--out", str(out), "--set", "contents.0.size_bytes=0"]) == 0
    rows = [r.split(",") for r in (out / "requests.csv").read_text().splitlines()[1:]]
    assert len(rows) == 6 and all(r[9] == "ok" and r[8] != "client" for r in rows)
    client = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("node=client ")]
    assert len(client) == 1 and " cs_hits=0 " in client[0]


def test_run_cdn_only_mode_schema_identical(tmp_path):
    a, b = tmp_path / "icn", tmp_path / "cdn"
    assert main(["run", str(MINI), "--out", str(a)]) == 0
    assert main(["run", str(MINI), "--out", str(b), "--mode", "cdn-only"]) == 0
    ha = (a / "requests.csv").read_text().splitlines()
    hb = (b / "requests.csv").read_text().splitlines()
    assert ha[0] == hb[0]
    assert len(ha) == len(hb)
    assert all(line.split(",")[-1] == "ok" for line in hb[1:])


def test_publish_bench_rows_increasing(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main(["publish-bench", str(MINI), "--sizes", "0.25,0.5", "--out", str(out)])
    assert rc == 0
    lines = (out / "publish.csv").read_text().splitlines()
    assert lines[0] == "size_bytes,publish_ms"
    rows = [line.split(",") for line in lines[1:]]
    sizes = [int(r[0]) for r in rows]
    times = [float(r[1]) for r in rows]
    assert sizes == [262144, 524288]
    assert times[0] < times[1]


def test_publish_bench_empty_sizes_exits_2(tmp_path):
    # A non-finite size is a bad value too, not a failed conversion.
    for sizes in ("", "nan", "inf", "1e400"):
        assert main(["publish-bench", str(MINI), "--sizes", sizes, "--out",
                     str(tmp_path / "x")]) == 2, sizes


def test_publish_bench_requires_icn_mode(tmp_path):
    rc = main(["publish-bench", str(MINI), "--sizes", "1", "--out",
               str(tmp_path / "x"), "--set", "mode=cdn-only"])
    assert rc == 2


def test_validate_missing_file(tmp_path, capsys):
    # The same diagnostic as every other, from load_scenario, on stdout.
    path = str(tmp_path / "none.json")
    assert main(["validate", path]) == 2
    diags = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(d["code"], d["path"]) for d in diags] == [("io-error", path)]


def test_validate_integer_too_long_to_convert_exits_2(tmp_path, capsys):
    # json.loads raises a plain ValueError for it, not a JSONDecodeError.
    p = tmp_path / "huge.json"
    p.write_text(MINI.read_text().replace('"window": 4', '"window": 1' + "0" * 5000))
    assert main(["validate", str(p)]) == 2
    diags = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(d["code"], d["path"]) for d in diags] == [("parse-error", str(p))]
