"""One set of slice rules: the static validator and the orchestrator agree.

Every fault below is written once, as a change to the ``mini`` scenario
document. ``parse_doc`` must report the listed (code, path) pairs, and
``Orchestrator.create_slice`` must reject the same slice spec without
touching quotas or the network.
"""

import json

import pytest

from icnsim.orchestration import (DomainSpec, Flavor, Orchestrator,
                                  QuotaExceeded, SliceSpec, VnfSpec)
from icnsim.scenario import parse_doc
from icnsim.simnet import Network

from conftest import MINI, quota_snapshot

CDN_OP, ICN_OP = 0, 2  # indices of the create ops in mini's northbound list


def vnf(role, node, domain="dc"):
    return {"role": role, "node": node, "domain": domain,
            "flavor": {"vcpus": 1, "ram_mb": 1, "disk_gb": 1}}


def spec_of(op) -> SliceSpec:
    kind = "CDN" if op["op"] == "create_cdn_slice" else "ICN"
    vnfs = [VnfSpec(v["role"], v["domain"], Flavor(**v["flavor"]), v["node"])
            for v in op["vnfs"]]
    links = [(l["a"], l["b"], l["latency_ms"], l["bandwidth_mbps"])
             for l in op.get("links", [])]
    return SliceSpec(kind, op["duration_ms"], vnfs, links)


def mini_orchestrator():
    doc = json.loads(MINI.read_text())
    d = doc["domains"][0]
    net = Network()
    return net, Orchestrator(net, [DomainSpec(d["name"], d["region"], Flavor(**d["quota"]))])


# (fault, op index, change to that op, diagnostics at the parent commit)
FAULTS = [
    ("unknown role", ICN_OP, lambda op: op["vnfs"].append(vnf("router", "x1")),
     [("bad-value", "northbound.2.vnfs.2.role")]),
    ("unknown domain", ICN_OP, lambda op: op["vnfs"].append(vnf("ndn-node", "x1", "mars")),
     [("bad-reference", "northbound.2.vnfs.2.domain")]),
    ("duplicate node", ICN_OP, lambda op: op["vnfs"].append(vnf("ndn-node", "edge")),
     [("duplicate", "northbound.2.vnfs.2.node")]),
    ("CDN slice without cache", CDN_OP, lambda op: op["vnfs"][0].update(role="streamer"),
     [("invariant", "northbound.0")]),
    ("ICN slice without ndn-node", ICN_OP,
     lambda op: op["vnfs"][0].update(role="ndn-gateway"),
     [("invariant", "northbound.2")]),
    ("link to unknown node", ICN_OP,
     lambda op: op["links"].append({"a": "edge", "b": "ghost", "latency_ms": 1,
                                    "bandwidth_mbps": 10}),
     [("bad-reference", "northbound.2.links.1")]),
    ("link with bandwidth 0", ICN_OP, lambda op: op["links"][0].update(bandwidth_mbps=0),
     [("bad-value", "northbound.2.links.0")]),
]


@pytest.mark.parametrize("fault,index,change,expected", FAULTS, ids=[f[0] for f in FAULTS])
def test_validator_and_orchestrator_agree(fault, index, change, expected):
    doc = json.loads(MINI.read_text())
    op = doc["northbound"][index]
    change(op)
    assert [(d.code, d.path) for d in parse_doc(doc)[1]] == expected
    net, orch = mini_orchestrator()
    quota = quota_snapshot(orch)
    with pytest.raises(ValueError):
        orch.create_slice(spec_of(op))
    assert quota_snapshot(orch) == quota and not net.hosts and not orch.slices


@pytest.mark.parametrize("field,value", [("bandwidth_mbps", 0), ("latency_ms", -1)])
def test_bad_intra_slice_link_rejected_before_any_allocation(field, value):
    net, orch = mini_orchestrator()
    good = json.loads(MINI.read_text())["northbound"][ICN_OP]
    bad = json.loads(json.dumps(good))
    bad["links"][0][field] = value
    quota = quota_snapshot(orch)
    remaining = {d: list(v.remaining) for d, v in orch.vims.items()}
    with pytest.raises(ValueError):
        orch.create_slice(spec_of(bad))
    assert quota_snapshot(orch) == quota
    assert {d: v.remaining for d, v in orch.vims.items()} == remaining
    assert not net.hosts
    # Nothing was left behind, so the corrected slice now fits.
    orch.create_slice(spec_of(good))
    assert set(net.hosts) == {"edge", "gw"}


def test_duplicate_intra_slice_link_rejected():
    # Accepted at the parent commit, where create_slice then failed in
    # Network.add_link after allocating quota and adding hosts.
    doc = json.loads(MINI.read_text())
    op = doc["northbound"][ICN_OP]
    op["links"].append(dict(op["links"][0], a="gw", b="edge"))
    assert [(d.code, d.path) for d in parse_doc(doc)[1]] == [
        ("duplicate", "northbound.2.links.1")]
    net, orch = mini_orchestrator()
    quota = quota_snapshot(orch)
    with pytest.raises(ValueError):
        orch.create_slice(spec_of(op))
    assert quota_snapshot(orch) == quota and not net.hosts


def over_quota_op():
    # mini's slices take 6 of the domain's 8 vcpus.
    return {"op": "create_icn_slice", "slice": "i2", "duration_ms": 1000,
            "vnfs": [{"role": "ndn-node", "node": "x2", "domain": "dc",
                      "flavor": {"vcpus": 4, "ram_mb": 1, "disk_gb": 1}}]}


def test_quota_exceeded_until_destroy_releases():
    doc = json.loads(MINI.read_text())
    doc["northbound"].append(over_quota_op())
    assert [(d.code, d.path) for d in parse_doc(doc)[1]] == [("QuotaExceeded", "northbound.4")]
    doc["northbound"].insert(4, {"op": "destroy", "slice": "i1"})
    assert parse_doc(doc)[1] == []

    net, orch = mini_orchestrator()
    ops = json.loads(MINI.read_text())["northbound"]
    orch.create_slice(spec_of(ops[CDN_OP]))
    icn = orch.create_slice(spec_of(ops[ICN_OP]))
    with pytest.raises(QuotaExceeded):
        orch.create_slice(spec_of(over_quota_op()))
    orch.destroy_slice(icn)
    orch.create_slice(spec_of(over_quota_op()))
    assert "x2" in net.hosts
