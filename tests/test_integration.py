"""Cross-module flows: gateway fetch timing, fetch failure, IP baseline."""

import json

import pytest

from icnsim.gateway import Gateway, OriginRef
from icnsim.harness import run_scenario
from icnsim.ndn import Name, make_data
from icnsim.simnet import IP_REQUEST_BYTES, Host, IpRequest, Network

from conftest import MINI


def run_doc(doc, tmp_path, name="case.json", sets=()):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return run_scenario(p, None, list(sets))


def test_fetch_plus_publish_matches_analytic_formula(tmp_path):
    # One 512-byte request plus the content bytes over a 100 Mbps, 5 ms
    # link: 2*5 ms + (512 + 2097152)*8/100e6 s.
    doc = json.loads(MINI.read_text())
    doc["contents"][0]["size_bytes"] = 2_097_152
    for link in doc["topology"]["links"]:
        if link["a"] == "origin-node":
            link["latency_ms"] = 5
            link["bandwidth_mbps"] = 100
    doc["populations"][0]["request_count"] = 1
    run = run_doc(doc, tmp_path)
    assert len(run.publishes) == 1
    _cid, _res, size, ms = run.publishes[0]
    assert size == 2_097_152
    expected = (512 * 8.0 / (100.0 * 1000.0) + 5.0
                + 2_097_152 * 8.0 / (100.0 * 1000.0) + 5.0)
    assert ms == pytest.approx(expected, abs=1e-9)
    assert ms == pytest.approx(177.81312, abs=1e-3)


def test_two_contents_fetched_back_to_back(tmp_path):
    doc = json.loads(MINI.read_text())
    doc["contents"].append({"content_id": "clip2", "size_bytes": 24_576,
                            "source_resolution": "720p"})
    doc["northbound"].insert(2, {"op": "upload", "slice": "c1",
                                 "content_id": "clip2"})
    doc["populations"][0]["request_count"] = 2
    doc["populations"].append({
        "region": "EU", "attach_node": "client", "request_count": 2,
        "content": "/cdn/clip2/720p",
        "pattern": {"kind": "uniform", "interval_ms": 10},
        "retransmit_ms": 4500})
    run = run_doc(doc, tmp_path)
    assert sorted((c, s) for c, _r, s, _m in run.publishes) == [
        ("clip", 16384), ("clip2", 24576)]
    assert run.origin_fetch_total() == 2
    assert all(r.status == "ok" for r in run.records)
    by_content = {}
    for r in run.records:
        by_content.setdefault(r.content, set()).add(r.bytes_received)
    assert by_content == {"/cdn/clip/720p": {16384}, "/cdn/clip2/720p": {24576}}


def test_unreachable_origin_times_out_and_requests_fail(tmp_path):
    doc = json.loads(MINI.read_text())
    doc["topology"]["links"] = [l for l in doc["topology"]["links"]
                                if l["a"] != "origin-node"]
    doc["populations"][0]["request_count"] = 2
    run = run_doc(doc, tmp_path)
    assert all(r.status == "failed" for r in run.records)
    # With the cache unreachable every candidate ties at infinite distance,
    # so the lexicographically lowest node ("edge") takes the gateway role;
    # the fetch attempt is made there and drops as no-route.
    assert run.origin_fetch_total() == 1
    gw = run.hosts["edge"]
    assert gw.counters.origin_fetches == 1
    assert gw.counters.drops.get("no-route", 0) > 0
    assert run.final_ms >= 30_000.0  # the fetch timeout had to fire


def test_cdn_only_direct_stream_analytic(tmp_path):
    doc = {
        "name": "direct", "seed": 3, "mode": "cdn-only",
        "domains": [{"name": "dc", "region": "EU",
                     "quota": {"vcpus": 4, "ram_mb": 4096, "disk_gb": 50}}],
        "topology": {
            "nodes": [{"id": "client"}],
            "links": [{"a": "client", "b": "origin-node",
                       "latency_ms": 50, "bandwidth_mbps": 100}]},
        "contents": [{"content_id": "v", "size_bytes": 2_097_152,
                      "source_resolution": "hd"}],
        "northbound": [
            {"op": "create_cdn_slice", "slice": "c1", "duration_ms": 600000,
             "vnfs": [{"role": "cache", "node": "origin-node", "domain": "dc",
                       "flavor": {"vcpus": 2, "ram_mb": 2048, "disk_gb": 20}}]},
            {"op": "upload", "slice": "c1", "content_id": "v"}],
        "populations": [{"region": "EU", "attach_node": "client",
                         "request_count": 1, "content": "/cdn/v/hd",
                         "pattern": {"kind": "uniform", "interval_ms": 10},
                         "retransmit_ms": 4500}],
    }
    run = run_doc(doc, tmp_path)
    assert [r.status for r in run.records] == ["ok"]
    expected = (512 * 8.0 / (100.0 * 1000.0) + 50.0
                + 2_097_152 * 8.0 / (100.0 * 1000.0) + 50.0)
    assert run.records[0].delivery_ms == pytest.approx(expected, abs=1e-9)
    assert run.records[0].served_by == "origin-node"


def test_two_baseline_populations_share_one_host(tmp_path):
    # Responses are matched per request id, so co-located populations in
    # cdn-only mode must not steal each other's completions.
    doc = json.loads(MINI.read_text())
    doc["mode"] = "cdn-only"
    doc["populations"][0]["request_count"] = 3
    doc["populations"].append({
        "region": "EU2", "attach_node": "client", "request_count": 3,
        "content": "/cdn/clip/720p",
        "pattern": {"kind": "uniform", "interval_ms": 7},
        "retransmit_ms": 4500})
    run = run_doc(doc, tmp_path)
    assert len(run.records) == 6
    assert all(r.status == "ok" for r in run.records)
    assert {r.region for r in run.records} == {"EU", "EU2"}


def test_mem_model_bytes():
    from icnsim.forwarder import Forwarder
    from icnsim.ndn import Interest
    f = Forwarder(1 << 20)
    f.register_face(1)
    f.register_face(9)
    f.fib_insert(Name.parse("/v"), [(9, 1)])
    assert f.mem_model_bytes() == 0
    f.cs.insert(0.0, make_data(Name.parse("/v/seg=1"), b"x" * 100, 10_000, 1))
    f.on_interest(0.0, 1, Interest(Name.parse("/v/seg=0"), nonce=1))
    assert f.mem_model_bytes() == 100 + 512
    g = Gateway(0)
    g.configure_origin(OriginRef("o", {Name.parse("/cdn/c/r"): ("c", "r")}))
    g.publish_content_to_icn(0.0, "c", "r", b"y" * 300)
    assert g.mem_model_bytes() == 300


def test_busy_ms_derived_from_packets_and_charged_work():
    net = Network()
    a = Host(net, "a", vcpus=2, per_packet_cost_ms=0.02)
    b = Host(net, "b", vcpus=1, per_packet_cost_ms=0.02)
    net.add_host(a)
    net.add_host(b)
    net.add_link("a", "b", 1.0, 100.0)
    for i in range(3):
        net.send("a", "b", IP_REQUEST_BYTES, IpRequest("a", "b", i, "c", "r"))
    net.run_to_completion()
    a.charge_ms(12.5)
    assert a.busy_ms_total == pytest.approx(3 * 0.01 + 12.5)
    assert b.busy_ms_total == pytest.approx(3 * 0.02)
