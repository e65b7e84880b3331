import itertools
import random

import pytest

from icnsim.ndn import Data, Interest, Name, chunk_content, make_data
from icnsim.simnet import Population

from conftest import build_chain, filter_deliveries
from ndn_codec import encode_packet

CONTENT = Name.parse("/x/clip/hd")
FRESH = 10_000_000


def make_population(net, host, seg_count, count=1, interval=0.0,
                    retransmit=4500.0, window=4, seed=1):
    records = []
    pop = Population(net, host, "T", CONTENT, "hd", seg_count, count,
                     ("uniform", interval), retransmit, random.Random(seed),
                     records, itertools.count(0), window=window)
    return pop, records


def preload(host, payload, chunk=8192):
    for d in chunk_content(CONTENT, payload, chunk, FRESH):
        host.fwd.cs.insert(0.0, d)


def test_warm_cache_two_node_analytic_delivery():
    lat, mbps = 7.0, 100.0
    net, hosts = build_chain([("a", 0), ("b", 1 << 20)], [("a", "b", lat, mbps)])
    payload = b"p" * 900
    preload(hosts["b"], payload)
    hosts["a"].fwd.fib_insert(Name.parse("/x"), [(0, 1)])
    pop, records = make_population(net, hosts["a"], 1)
    pop.start()
    net.run_to_completion()
    assert len(records) == 1 and records[0].status == "ok"
    seg = CONTENT.segment(0)
    ser_i = len(encode_packet(Interest(seg, 0))) * 8.0 / (mbps * 1000.0)
    ser_d = len(encode_packet(make_data(seg, payload, FRESH, 0))) * 8.0 / (mbps * 1000.0)
    expected = ser_i + ser_d + 2 * lat
    assert records[0].delivery_ms == pytest.approx(expected, abs=1e-9)
    assert records[0].served_by == "b"


def test_three_node_chain_analytic_delivery():
    l1, l2, mbps = 4.0, 9.0, 250.0
    net, hosts = build_chain(
        [("a", 0), ("b", 0), ("c", 1 << 20)],
        [("a", "b", l1, mbps), ("b", "c", l2, mbps)])
    payload = b"q" * 5000
    preload(hosts["c"], payload)
    hosts["a"].fwd.fib_insert(Name.parse("/x"), [(0, 1)])
    hosts["b"].fwd.fib_insert(Name.parse("/x"), [(1, 1)])  # face 1 = toward c
    pop, records = make_population(net, hosts["a"], 1)
    pop.start()
    net.run_to_completion()
    seg = CONTENT.segment(0)
    ser_i = len(encode_packet(Interest(seg, 0))) * 8.0 / (mbps * 1000.0)
    ser_d = len(encode_packet(make_data(seg, payload, FRESH, 0))) * 8.0 / (mbps * 1000.0)
    expected = 2 * ser_i + 2 * ser_d + 2 * (l1 + l2)
    assert records[0].delivery_ms == pytest.approx(expected, abs=1e-9)


def test_zero_request_population_produces_no_records():
    net, hosts = build_chain([("a", 0), ("b", 1 << 20)], [("a", "b", 1.0, 100.0)])
    pop, records = make_population(net, hosts["a"], 1, count=0)
    pop.start()
    assert net.run_to_completion() == 0.0
    assert records == []


def test_multi_segment_window_and_byte_conservation():
    net, hosts = build_chain([("a", 0), ("b", 1 << 20)], [("a", "b", 2.0, 100.0)])
    payload = bytes(range(256)) * 20  # 5120 bytes, 5 segments of 1024
    preload(hosts["b"], payload, chunk=1024)
    hosts["a"].fwd.fib_insert(Name.parse("/x"), [(0, 1)])
    pop, records = make_population(net, hosts["a"], 5, count=3,
                                   interval=1.0, window=4)
    pop.start()
    net.run_to_completion()
    assert len(records) == 3
    assert all(r.status == "ok" for r in records)
    assert all(r.bytes_received == len(payload) for r in records)


def test_concurrent_requests_share_outstanding_interests():
    net, hosts = build_chain([("a", 0), ("b", 1 << 20)], [("a", "b", 50.0, 100.0)])
    payload = b"z" * 100
    preload(hosts["b"], payload)
    hosts["a"].fwd.fib_insert(Name.parse("/x"), [(0, 1)])
    # Ten requests issued while the first is still in flight: one wire interest.
    pop, records = make_population(net, hosts["a"], 1, count=10,
                                   interval=0.5)
    pop.start()
    net.run_to_completion()
    assert len(records) == 10 and all(r.status == "ok" for r in records)
    assert hosts["a"].counters.tx_pkts == 1


def test_corruption_drops_then_retransmission_recovers(monkeypatch):
    corrupted = []

    def corrupt_once(now, src, dst, msg):
        if not corrupted and dst == "b" and isinstance(msg, Data):
            corrupted.append(now)
            bad = bytearray(msg.payload)
            bad[0] ^= 0xFF
            return Data(msg.name, bytes(bad), msg.digest, msg.freshness_ms,
                        msg.final_segment)
        return msg

    filter_deliveries(monkeypatch, corrupt_once)
    net, hosts = build_chain(
        [("a", 0), ("b", 0), ("c", 1 << 20)],
        [("a", "b", 3.0, 100.0), ("b", "c", 4.0, 100.0)])
    payload = b"v" * 2048
    preload(hosts["c"], payload)
    hosts["a"].fwd.fib_insert(Name.parse("/x"), [(0, 1)])
    hosts["b"].fwd.fib_insert(Name.parse("/x"), [(1, 1)])
    pop, records = make_population(net, hosts["a"], 1)
    pop.start()
    net.run_to_completion()
    assert corrupted, "the corruption hook never fired"
    assert hosts["b"].counters.drops["integrity"] == 1
    assert len(records) == 1
    r = records[0]
    assert r.status == "ok"
    assert r.attempts >= 2  # recovery went through a retransmission
    assert r.bytes_received == len(payload)
    assert r.delivery_ms > 4000.0  # paid at least one interest lifetime


def test_mismatched_data_in_own_store_is_a_loss_not_a_reissue_loop(monkeypatch):
    # The consumer's own node answers every interest from its store with a
    # payload that does not match its digest. Each answer must count as a
    # loss, so the request ends once, through the watchdog's attempt limit.
    net, hosts = build_chain([("a", 1 << 20)], [])
    seg = CONTENT.segment(0)
    hosts["a"].fwd.cs.insert(0.0, Data(seg, b"bad", make_data(seg, b"good", FRESH, 0).digest,
                                       FRESH, 0))
    issued = []
    issue = Population._issue_interest

    def capped(self, name):
        issued.append(name)
        if len(issued) > 50:
            raise RuntimeError("interest re-issued %d times" % len(issued))
        issue(self, name)

    monkeypatch.setattr(Population, "_issue_interest", capped)
    pop, records = make_population(net, hosts["a"], 1, retransmit=1000.0)
    pop.start()
    net.run_to_completion()
    assert len(records) == 1
    assert records[0].status == "failed"
    assert records[0].attempts == 5
    assert len(issued) == 5
    assert records[0].t_complete_ms == pytest.approx(5000.0)


def test_retransmission_exhaustion_fails_request():
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 1.0, 100.0)])
    # No route anywhere: every interest drops, the request must fail.
    pop, records = make_population(net, hosts["a"], 1, retransmit=1000.0)
    pop.start()
    net.run_to_completion()
    assert len(records) == 1
    assert records[0].status == "failed"
    assert records[0].attempts == 5
    assert records[0].t_complete_ms == pytest.approx(5000.0)


def test_late_request_refetches_through_local_cache():
    # The attach node itself may cache; a later request is served locally.
    net, hosts = build_chain([("a", 1 << 20), ("b", 1 << 20)], [("a", "b", 5.0, 100.0)])
    payload = b"w" * 300
    preload(hosts["b"], payload)
    hosts["a"].fwd.fib_insert(Name.parse("/x"), [(0, 1)])
    pop, records = make_population(net, hosts["a"], 1, count=2,
                                   interval=100.0)
    pop.start()
    net.run_to_completion()
    assert [r.served_by for r in sorted(records, key=lambda r: r.request_id)] == ["b", "a"]
    assert records[1].delivery_ms == 0.0  # local hit, no wire traffic
