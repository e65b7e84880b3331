import pytest

from icnsim.forwarder import DROP_LOOP, DROP_NO_ROUTE, Forwarder
from icnsim.gateway import EmptyCandidates, Gateway, PendingFetch, select_gateway
from icnsim.ndn import Data, Interest, Name, hash_stream

BASE = Name.parse("/cdn/s1/v42/720p")


def gw(chunk=8192):
    g = Gateway(cs_capacity_bytes=0, chunk_size=chunk, publish_freshness_ms=1_000_000)
    for f in (1, 2, 9):
        g.register_face(f)
    g.configure_origin("origin", {BASE: ("v42", "720p")})
    return g


def test_first_interest_triggers_single_fetch():
    g = gw()
    acts = g.on_interest(0.0, 1, Interest(BASE.segment(0), nonce=1))
    assert acts == [(1, PendingFetch("v42", "720p", BASE))]
    assert BASE in g.pending
    # Aggregation on the same segment: no data, no second fetch.
    assert g.on_interest(0.1, 2, Interest(BASE.segment(0), nonce=2)) == []
    # A different segment of the same content must not refetch either.
    assert g.on_interest(0.2, 1, Interest(BASE.segment(1), nonce=3)) == []


def test_publish_answers_pending_and_is_idempotent():
    g = gw()
    g.on_interest(0.0, 1, Interest(BASE.segment(0), nonce=1))
    g.on_interest(0.1, 2, Interest(BASE.segment(0), nonce=2))
    g.on_interest(0.2, 1, Interest(BASE.segment(1), nonce=3))
    payload = hash_stream(b"content", 2_097_152)
    count, acts = g.publish_content_to_icn(5.0, BASE, payload)
    assert count == 256
    sends = [(face, p.name.seg_number()) for face, p in acts if type(p) is Data]
    assert sorted(sends) == [(1, 0), (1, 1), (2, 0)]
    assert not g.pending and not g.pit
    count2, acts2 = g.publish_content_to_icn(6.0, BASE, payload)
    assert count2 == 256 and acts2 == []
    assert len(g.repo) == 256


def test_repo_hit_after_publish():
    g = gw()
    g.publish_content_to_icn(0.0, BASE, b"x" * 100)
    acts = g.on_interest(1.0, 1, Interest(BASE.segment(0), nonce=1))
    assert len(acts) == 1 and type(acts[0][1]) is Data
    assert acts[0][1].payload == b"x" * 100


def test_publish_single_byte_payload():
    g = gw()
    count, _ = g.publish_content_to_icn(0.0, BASE, b"q")
    assert count == 1
    assert g.repo[BASE.segment(0)].final_segment == 0


def test_translation_losslessness():
    g = gw(chunk=1000)
    payload = hash_stream(b"v", 12_345)
    count, _ = g.publish_content_to_icn(0.0, BASE, payload)
    joined = b"".join(g.repo[BASE.segment(i)].payload for i in range(count))
    assert joined == payload


def test_segment_beyond_final_is_no_route():
    g = gw()
    g.publish_content_to_icn(0.0, BASE, b"x" * 100)
    acts = g.on_interest(1.0, 1, Interest(BASE.segment(7), nonce=1))
    assert acts == []
    assert g.counters.drops == {DROP_NO_ROUTE: 1}


def test_unserved_names_use_normal_pipeline():
    g = gw()
    g.fib_insert(Name.parse("/other"), [(9, 1)])
    acts = g.on_interest(0.0, 1, Interest(Name.parse("/other/name"), nonce=1))
    assert len(acts) == 1 and type(acts[0][1]) is Interest and acts[0][0] == 9


def test_loop_suppression_applies_to_served_names():
    g = gw()
    g.on_interest(0.0, 1, Interest(BASE.segment(0), nonce=5))
    acts = g.on_interest(0.1, 2, Interest(BASE.segment(0), nonce=5))
    assert acts == []
    assert g.counters.drops == {DROP_LOOP: 1}


def test_fetch_failed_drops_waiters():
    g = gw()
    g.on_interest(0.0, 1, Interest(BASE.segment(0), nonce=1))
    g.on_interest(0.1, 2, Interest(BASE.segment(1), nonce=2))
    assert g.fetch_failed(0.2, BASE) is None
    assert g.counters.drops == {DROP_NO_ROUTE: 2}
    assert not g.pit and BASE not in g.pending
    # A later interest may retry the fetch.
    acts = g.on_interest(40.0, 1, Interest(BASE.segment(0), nonce=3))
    assert acts == [(1, PendingFetch("v42", "720p", BASE))]


def test_publish_skips_waiters_whose_entries_expired():
    g = gw()
    g.on_interest(0.0, 1, Interest(BASE.segment(0), nonce=1, lifetime_ms=100))
    g.on_interest(50.0, 2, Interest(BASE.segment(1), nonce=2, lifetime_ms=100))
    count, acts = g.publish_content_to_icn(120.0, BASE, b"x" * 10000)
    assert count == 2
    assert acts == [(2, g.repo[BASE.segment(1)])]
    assert g.counters.pit_timeouts == 1
    assert g.counters.drops == {} and not g.pit


def test_origin_once_under_interleaving():
    g = gw()
    fetches = 0
    for i in range(50):
        for _face, p in g.on_interest(i * 0.01, 1 + (i % 2),
                                      Interest(BASE.segment(i % 8), nonce=100 + i)):
            if isinstance(p, PendingFetch):
                fetches += 1
    assert fetches == 1


def test_unconfigured_gateway_is_a_plain_forwarder():
    g = Gateway(cs_capacity_bytes=0)
    g.register_face(1)
    acts = g.on_interest(0.0, 1, Interest(BASE.segment(0), nonce=1))
    assert acts == []
    assert g.counters.drops == {DROP_NO_ROUTE: 1}


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


def test_take_over_keeps_the_forwarders_faces_tables_and_counters():
    f = Forwarder(1 << 20)
    for face in (1, 9):
        f.register_face(face)
    f.fib_insert(Name.parse("/other"), [(9, 1)])
    other = Interest(Name.parse("/other/x"), nonce=1)
    assert f.on_interest(0.0, 1, other) == [(9, other.decremented())]
    g = Gateway.take_over(f, chunk_size=100, publish_freshness_ms=5)
    for attr in ("faces", "cs", "pit", "_fib", "_lpm_cache", "counters"):
        assert getattr(g, attr) is getattr(f, attr), attr
    assert (g.chunk_size, g.publish_freshness_ms, g.origin_node, g.prefix_map) == (
        100, 5, None, {})
    g.configure_origin("origin", {BASE: ("v42", "720p")})
    acts = g.on_interest(0.1, 1, Interest(BASE.segment(0), nonce=2))
    assert acts == [(1, PendingFetch("v42", "720p", BASE))]
    count, acts = g.publish_content_to_icn(0.2, BASE, b"y" * 250)
    assert count == 3 and acts == [(1, g.repo[BASE.segment(0)])]
    assert g.counters.cs_misses == 1 and g.counters.cs_hits == 0
