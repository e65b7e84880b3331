import dataclasses
import json

import pytest

from icnsim.harness import build_and_run, publish_bench, run_scenario
from icnsim.ndn import Name
from icnsim.scenario import ScenarioError, load_scenario

from conftest import MINI


def load_mini_doc():
    return json.loads(MINI.read_text())


def run_doc(doc, tmp_path, name="case.json", sets=()):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return run_scenario(p, None, list(sets))


def test_mini_records_single_publish():
    run = run_scenario(MINI)
    assert len(run.publishes) == 1
    cid, res, size, ms = run.publishes[0]
    assert (cid, res, size) == ("clip", "720p", 16384)
    assert ms > 0


def test_served_by_transitions_from_gateway_to_edge():
    run = run_scenario(MINI)
    servers = [r.served_by for r in sorted(run.records, key=lambda r: r.request_id)]
    assert servers[0] == "gw"
    assert servers[-1] == "edge"


def test_destroyed_slice_fails_requests(tmp_path):
    doc = load_mini_doc()
    doc["northbound"].append({"op": "destroy", "slice": "i1"})
    run = run_doc(doc, tmp_path)
    assert len(run.records) == 6
    assert all(r.status == "failed" for r in run.records)
    assert run.hosts["client"].counters.drops["no-route"] > 0


def test_poisson_pattern_runs_and_replays(tmp_path):
    doc = load_mini_doc()
    doc["populations"][0]["pattern"] = {"kind": "poisson", "rate_per_s": 200}
    a = run_doc(doc, tmp_path, "a.json")
    b = run_doc(doc, tmp_path, "b.json")
    assert [r.t_issue_ms for r in a.records] == [r.t_issue_ms for r in b.records]
    issues = sorted(r.t_issue_ms for r in a.records)
    assert len(set(issues)) == len(issues)  # exponential gaps, not a grid


def test_transcoded_variant_served_through_gateway(tmp_path):
    doc = load_mini_doc()
    doc["northbound"].insert(2, {"op": "transcode", "slice": "c1",
                                 "content_id": "clip", "tag": "360p"})
    doc["populations"][0]["content"] = "/cdn/clip/360p"
    run = run_doc(doc, tmp_path)
    assert all(r.status == "ok" for r in run.records)
    assert all(r.bytes_received == 4096 for r in run.records)
    assert all(r.resolution == "360p" for r in run.records)


def test_unknown_resolution_request_times_out_as_failed():
    # The variant was never transcoded, which validation rejects, so the
    # population is pointed at it after parsing. The gateway has no
    # mapping for it: interests fall through to no-route and
    # retransmission exhausts.
    scenario, diags = load_scenario(MINI)
    assert diags == []
    scenario.populations[0] = dataclasses.replace(
        scenario.populations[0], content=Name.parse("/cdn/clip/360p"),
        resolution="360p", content_size=4096, request_count=1, retransmit_ms=50.0)
    run = build_and_run(scenario)
    assert [r.status for r in run.records] == ["failed"]


def test_gateway_weight_zero_moves_gateway_toward_demand(tmp_path):
    doc = load_mini_doc()
    doc["northbound"][-1]["weight"] = 0.0
    run = run_doc(doc, tmp_path)
    # With all demand behind "edge", the edge node becomes the gateway and
    # serves the cold phase itself.
    assert run.records[0].served_by == "edge"


def test_scenario_error_carries_diagnostics(tmp_path):
    doc = load_mini_doc()
    doc["populations"][0]["attach_node"] = "ghost"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError) as e:
        run_scenario(p)
    assert any(d.code == "bad-reference" for d in e.value.diagnostics)


def test_publish_bench_parallel_jobs_match_sequential(tmp_path):
    seq = publish_bench(MINI, [0.25, 0.5], None, jobs=1)
    par = publish_bench(MINI, [0.25, 0.5], None, jobs=2)
    assert seq == par


def test_scale_checks_do_not_fire_in_mini():
    run = run_scenario(MINI)
    assert not any("scale" in line for line in run.orchestrator.log)


def test_build_and_run_accepts_parsed_scenario():
    scenario, diags = load_scenario(MINI)
    assert diags == []
    run = build_and_run(scenario)
    assert len(run.records) == 6
