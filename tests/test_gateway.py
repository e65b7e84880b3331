"""The gateway as a producer on a face of its host's forwarder.

Each test builds one ``gw`` host with a plain forwarder, two application
faces that record what the forwarder sends them, and an ``origin`` host
one link away. The gateway takes a face of its own, and the forwarder's
FIB sends ``/cdn`` to it at cost 0, as slice linking sets it up.
"""

from functools import partial

import pytest

from icnsim.forwarder import DROP_LOOP, DROP_NO_ROUTE, Forwarder
from icnsim.gateway import EmptyCandidates, Gateway, select_gateway
from icnsim.ndn import Data, Interest, Name, hash_stream
from icnsim.origin import CdnOrigin
from icnsim.simnet import Host, Network

BASE = Name.parse("/cdn/s1/v42/720p")
PAYLOAD = hash_stream(b"content", 20_000)  # 3 segments of 8192 bytes


def world(chunk=8192, mapped=True):
    """(net, gw host, gateway, the two app faces, the list they record to)."""
    net = Network()
    host = Host(net, "gw", fwd=Forwarder(1 << 20))
    origin = Host(net, "origin", origin=CdnOrigin())
    origin.origin.upload("v42", PAYLOAD, "720p")
    for h in (host, origin):
        net.add_host(h)
    net.add_link("gw", "origin", 1.0, 100.0)
    sent = []
    faces = []

    def record(i, now, packet, served_by):
        sent.append((faces[i], packet))

    faces += [host.attach_app(partial(record, i)) for i in range(2)]
    g = host.gateway = Gateway(host, chunk, publish_freshness_ms=1_000_000)
    host.fwd.fib_insert(Name.parse("/cdn"), [(g.face, 0)])
    if mapped:
        g.configure_origin("origin", {BASE: ("v42", "720p")})
    return net, host, g, faces, sent


def ask(host, now, face, seg, nonce, lifetime_ms=4000, hop_limit=32, name=None):
    """Feed one interest into the host's forwarder on ``face``."""
    it = Interest(name or BASE.segment(seg), nonce, lifetime_ms, hop_limit)
    host._emit(now, host.fwd.on_interest(now, face, it), host.id)


def test_first_interest_triggers_single_fetch():
    net, host, g, (a, b), sent = world()
    ask(host, 0.0, a, 0, nonce=1)
    assert host.counters.origin_fetches == 1 and len(host._ip_waiters) == 1
    assert g.waiting == {BASE: {BASE.segment(0): None}}
    # The forwarder aggregates the same segment: the gateway never sees it.
    ask(host, 0.1, b, 0, nonce=2)
    assert list(host.fwd.pit[BASE.segment(0)].faces) == [a, b]
    # A different segment of the same content joins the fetch.
    ask(host, 0.2, a, 1, nonce=3)
    assert g.waiting == {BASE: {BASE.segment(0): None, BASE.segment(1): None}}
    assert host.counters.origin_fetches == 1 and sent == []


def test_publish_answers_pending_and_is_idempotent():
    net, host, g, (a, b), sent = world()
    ask(host, 0.0, a, 1, nonce=1)
    ask(host, 0.1, b, 0, nonce=2)
    ask(host, 0.2, a, 0, nonce=3)
    net.run_to_completion()
    # Answered in first-ask order, each name fanned out by on_data to the
    # faces of its PIT entry, and each Data kept in the node's store.
    assert [(f, p.name.seg_number()) for f, p in sent] == [(a, 1), (b, 0), (a, 0)]
    assert all(type(p) is Data for _f, p in sent)
    assert not host.fwd.pit and not g.waiting and not host._ip_waiters
    assert set(host.fwd.cs.entries) == {BASE.segment(0), BASE.segment(1)}
    assert [(c, r, n) for c, r, n, _ms in net.publishes] == [("v42", "720p", 20_000)]
    assert g.published == {BASE: 3} and g.repo_bytes == 20_000
    assert g.publish_content_to_icn(net.now, BASE, PAYLOAD) == (3, [])
    assert len(g.repo) == 3


def test_repo_hit_after_publish():
    net, host, g, (a, b), sent = world()
    g.publish_content_to_icn(0.0, BASE, b"x" * 100)
    ask(host, 1.0, a, 0, nonce=1)
    assert [(f, p.payload) for f, p in sent] == [(a, b"x" * 100)]
    # A producer answer is a content-store miss; it enters the store, so
    # the next interest is a hit the gateway does not see.
    assert (host.counters.cs_hits, host.counters.cs_misses) == (0, 1)
    g.repo.clear()
    ask(host, 2.0, b, 0, nonce=2)
    assert [f for f, _p in sent] == [a, b]
    assert (host.counters.cs_hits, host.counters.cs_misses) == (1, 1)


def test_publish_single_byte_payload():
    net, host, g, faces, sent = world()
    count, acts = g.publish_content_to_icn(0.0, BASE, b"q")
    assert (count, acts) == (1, [])
    assert g.repo[BASE.segment(0)].final_segment == 0


def test_translation_losslessness():
    net, host, g, faces, sent = world(chunk=1000)
    payload = hash_stream(b"v", 12_345)
    count, _ = g.publish_content_to_icn(0.0, BASE, payload)
    joined = b"".join(g.repo[BASE.segment(i)].payload for i in range(count))
    assert joined == payload


def test_segment_beyond_final_is_no_route():
    net, host, g, (a, b), sent = world()
    g.publish_content_to_icn(0.0, BASE, b"x" * 100)
    ask(host, 1.0, a, 7, nonce=1)
    assert sent == [] and not host.fwd.pit
    assert host.counters.drops == {DROP_NO_ROUTE: 1}
    assert host.counters.origin_fetches == 0


def test_unserved_names_use_normal_pipeline():
    # Names outside the link prefix follow the node's FIB; the gateway
    # never sees them. A callable face takes an interest as it takes Data.
    net, host, g, (a, b), sent = world()
    host.fwd.fib_insert(Name.parse("/other"), [(b, 1)])
    ask(host, 0.0, a, None, nonce=1, name=Name.parse("/other/name"))
    assert len(sent) == 1 and sent[0][0] == b and type(sent[0][1]) is Interest
    assert g.waiting == {} and host.counters.origin_fetches == 0


def test_loop_suppression_applies_to_served_names():
    net, host, g, (a, b), sent = world()
    ask(host, 0.0, a, 0, nonce=5)
    ask(host, 0.1, b, 0, nonce=5)
    assert host.counters.drops == {DROP_LOOP: 1}


def test_served_interest_at_hop_limit_1_loops():
    # Reaching the producer's face takes one hop, like any other face.
    net, host, g, (a, b), sent = world()
    g.publish_content_to_icn(0.0, BASE, b"x" * 100)
    ask(host, 1.0, a, 0, nonce=1, hop_limit=1)
    assert sent == [] and host.counters.drops == {DROP_LOOP: 1}


def test_fetch_failed_drops_waiters():
    net, host, g, (a, b), sent = world()
    ask(host, 0.0, a, 0, nonce=1)
    ask(host, 0.1, b, 1, nonce=2)
    (rid,) = host._ip_waiters
    host._ip_timeout(rid, 0.2)  # the fetch's timeout fires
    assert host.counters.drops == {DROP_NO_ROUTE: 2}
    assert not host.fwd.pit and not g.waiting and sent == []
    # A later interest may retry the fetch.
    ask(host, 40.0, a, 0, nonce=3)
    assert host.counters.origin_fetches == 2 and BASE in g.waiting


def test_failed_fetch_counts_expired_waiters_as_timeouts():
    net, host, g, (a, b), sent = world()
    ask(host, 0.0, a, 0, nonce=1, lifetime_ms=100)
    ask(host, 50.0, b, 1, nonce=2, lifetime_ms=100)
    (rid,) = host._ip_waiters
    host._ip_timeout(rid, 120.0)
    assert host.counters.pit_timeouts == 1
    assert host.counters.drops == {DROP_NO_ROUTE: 1}
    assert not host.fwd.pit and not g.waiting


def test_publish_skips_waiters_whose_entries_expired():
    net, host, g, (a, b), sent = world()
    ask(host, 0.0, a, 0, nonce=1, lifetime_ms=100)
    ask(host, 50.0, b, 1, nonce=2, lifetime_ms=100)
    count, acts = g.publish_content_to_icn(120.0, BASE, b"x" * 10000)
    assert count == 2
    assert acts == [(b, g.repo[BASE.segment(1)])]
    assert host.counters.pit_timeouts == 1
    assert host.counters.drops == {} and not host.fwd.pit


def test_origin_once_under_interleaving():
    net, host, g, faces, sent = world()
    for i in range(50):
        ask(host, i * 0.01, faces[i // 8 % 2], i % 8, nonce=100 + i)
    assert host.counters.origin_fetches == 1
    assert list(g.waiting[BASE]) == [BASE.segment(k) for k in range(8)]
    net.run_to_completion()
    assert host.counters.origin_fetches == 1
    # Segments 0 to 2 exist: each is answered on both faces; 3 to 7 drop.
    assert sorted((f, p.name.seg_number()) for f, p in sent) == [
        (f, k) for f in faces for k in range(3)]
    assert host.counters.drops == {DROP_NO_ROUTE: 5}


def test_unmapped_names_end_as_no_route():
    net, host, g, (a, b), sent = world(mapped=False)
    ask(host, 0.0, a, 0, nonce=1)
    ask(host, 0.1, a, None, nonce=2, name=BASE)  # a base name has no segment
    assert sent == [] and not host.fwd.pit and g.waiting == {}
    assert host.counters.drops == {DROP_NO_ROUTE: 2}
    assert host.counters.origin_fetches == 0


def test_host_memory_adds_the_repo_to_the_store():
    net, host, g, (a, b), sent = world()
    g.publish_content_to_icn(0.0, BASE, b"y" * 300)
    assert host.mem_bytes() == 300
    ask(host, 1.0, a, 0, nonce=1)  # the answer also enters the store
    assert host.mem_bytes() == 600


# -- gateway selection -------------------------------------------------------------


def test_select_gateway_weighted_argmin():
    cands = [("n1", 10.0, 100.0), ("n2", 50.0, 50.0), ("n3", 100.0, 10.0)]
    assert select_gateway(cands, 0.5) == "n2"


def test_select_gateway_degenerate_weights():
    cands = [("n1", 10.0, 100.0), ("n2", 50.0, 50.0), ("n3", 100.0, 10.0)]
    assert select_gateway(cands, 1.0) == "n1"   # nearest to the cache servers
    assert select_gateway(cands, 0.0) == "n3"   # nearest to demand


def test_select_gateway_single_and_ties():
    assert select_gateway([("only", 5.0, 5.0)], 0.7) == "only"
    cands = [("b", 10.0, 10.0), ("a", 10.0, 10.0)]
    assert select_gateway(cands, 0.5) == "a"  # tie breaks to the lowest id


def test_select_gateway_errors():
    with pytest.raises(EmptyCandidates):
        select_gateway([], 0.5)
    with pytest.raises(ValueError):
        select_gateway([("a", 1.0, 1.0)], 1.5)
