import hashlib
import random
from pathlib import Path

import pytest

from icnsim.forwarder import Forwarder
from icnsim.ndn import Name
from icnsim.simnet import Host, Network

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
REFERENCE = SCENARIOS / "reference.json"
MINI = SCENARIOS / "mini.json"


@pytest.fixture
def rng():
    return random.Random(1234)


def counter_stream(key: bytes, n: int) -> bytes:
    """The byte contract of ``hash_stream``, written apart from it: SHA-256
    of the key and an 8-byte big-endian block counter, blocks joined and
    cut to ``n`` bytes."""
    return b"".join(hashlib.sha256(key + i.to_bytes(8, "big")).digest()
                    for i in range(-(-n // 32)))[:n]


def child(name: Name, component: bytes) -> Name:
    """``name`` with ``component`` appended, through the validating
    constructor."""
    return Name(name.components + (component,))


def quota_snapshot(orch) -> dict[str, tuple[int, int, int]]:
    """Per domain, the remaining quota plus the live allocations: vcpus,
    RAM and disk. Conservation checks compare it before and after."""
    out = {}
    for name, vim in orch.vims.items():
        live = [0, 0, 0]
        for a in vim.live.values():
            live[0] += a.flavor.vcpus
            live[1] += a.flavor.ram_mb
            live[2] += a.flavor.disk_gb
        out[name] = tuple(r + l for r, l in zip(vim.remaining, live))
    return out


def build_chain(node_specs, links):
    """A small topology: node_specs is [(id, cs_capacity)], links is
    [(a, b, latency_ms, mbps)]. Returns (net, {id: host})."""
    net = Network()
    hosts = {}
    for nid, cs in node_specs:
        h = Host(net, nid, "host", fwd=Forwarder(cs))
        net.add_host(h)
        hosts[nid] = h
    for a, b, lat, bw in links:
        net.add_link(a, b, lat, bw)
    return net, hosts


def assert_timeseries_adds_up(run):
    """Each node's time-series byte columns sum to its cumulative counters."""
    rx = {node: 0 for node in run.hosts}
    tx = dict(rx)
    for s in run.samples:
        rx[s.node] += s.link_in_bytes
        tx[s.node] += s.link_out_bytes
    assert rx == {n: h.counters.rx_bytes for n, h in run.hosts.items()}
    assert tx == {n: h.counters.tx_bytes for n, h in run.hosts.items()}
