"""The benchmark's tracer still finds the program's layers.

``perfbench/child.py`` wraps program attributes by name, so a rename in
``src`` would make a traced benchmark report no calls for a layer rather
than fail. This installs that tracer on the mini scenario in both
delivery modes, checks that the main layers are called, pins the call
counts of the per-packet layers, and checks that ``restore`` puts every
original attribute back.
"""

import importlib
from pathlib import Path

import pytest

from icnsim import forwarder, gateway, harness, ndn, orchestration, origin, simnet
from icnsim.harness import run_scenario

from conftest import MINI

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OWNERS = (harness, ndn, forwarder, simnet, origin, simnet.Network, simnet.Host,
          forwarder.Forwarder, forwarder.ContentStore, gateway.Gateway, ndn.Interest,
          origin.CdnOrigin, orchestration.Orchestrator)
CALLED = {
    "icn": ("forwarder.on_interest", "gateway.on_interest", "gateway.publish",
            "simnet.consumer"),
    "cdn-only": ("simnet.consumer", "simnet.ip", "origin.stream"),
}
# Exact counts on mini. A hot path that stops going through a wrapped
# name makes the traced benchmark under-report, and changes these.
# 30 and 52: one event fewer per mode than with the old PIT-sweep chain.
SCHEDULED = {"icn": 30, "cdn-only": 52}
SPAN_CALLS = {
    "icn": {"simnet.send": 18, "simnet.receive": 18, "forwarder.on_interest": 12,
            "forwarder.on_data": 8, "ndn.decremented": 8, "origin.stream": 1},
    "cdn-only": {"simnet.send": 36, "simnet.receive": 36, "forwarder.on_interest": 0,
                 "forwarder.on_data": 0, "ndn.decremented": 0, "origin.stream": 6},
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("child"), importlib.import_module("tracer")


@pytest.mark.parametrize("mode", sorted(CALLED))
def test_tracer_hooks_reach_layers_and_restore(perfbench, mode):
    child, tracer = perfbench
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    t = tracer.Tracer()
    chunks = {}
    child.install_tracer(t, chunks)
    try:
        assert forwarder.Forwarder.on_interest is not before[forwarder.Forwarder]["on_interest"]
        run = run_scenario(MINI, None, ["mode=%s" % mode])
    finally:
        t.restore()
    totals = t.totals()
    for span in CALLED[mode]:
        assert totals.get(span, [0])[0] > 0, span
    assert t.counts["events.scheduled"] == SCHEDULED[mode]
    assert {span: totals.get(span, [0])[0] for span in SPAN_CALLS[mode]} == SPAN_CALLS[mode]
    assert chunks, "no delivered payload was recorded"
    assert all(r.status == "ok" for r in run.records)
    for owner, old in before.items():
        now = vars(owner)
        assert now.keys() == old.keys(), owner
        assert all(now[k] is old[k] for k in old), owner
