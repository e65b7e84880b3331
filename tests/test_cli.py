import hashlib
import json
from pathlib import Path

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


def test_run_runtime_failure_exits_3_and_removes_partial_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", str(MINI), "--out", str(out),
               "--set", "knobs.horizon_ms=0.5"])
    assert rc == 3
    assert not list(out.glob("*.csv")) if out.exists() else True


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
    assert main(["publish-bench", str(MINI), "--sizes", "", "--out",
                 str(tmp_path / "x")]) == 2


def test_publish_bench_requires_icn_mode(tmp_path):
    rc = main(["publish-bench", str(MINI), "--sizes", "1", "--out",
               str(tmp_path / "x"), "--set", "mode=cdn-only"])
    assert rc == 2


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "none.json")]) == 2
