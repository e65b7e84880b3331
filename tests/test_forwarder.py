import dataclasses
import random
from collections import OrderedDict

import pytest
from hypothesis import example, given, settings, strategies as st

from icnsim.forwarder import (DROP_INTEGRITY, DROP_LOOP, DROP_NO_ROUTE,
                              DROP_UNSOLICITED, ContentStore, DuplicateFace,
                              Forwarder, UnknownFace)
from icnsim.ndn import Data, Interest, Name, make_data

V0 = Name.parse("/v/seg=0")
FRESH = 1_000_000


def node(cs=1 << 20, faces=(1, 2, 9)):
    f = Forwarder(cs)
    for face in faces:
        f.register_face(face)
    return f


def test_cs_hit_answers_without_pit():
    f = node()
    f.cs.insert(0.0, make_data(V0, b"p" * 10, FRESH, 0))
    acts = f.on_interest(1.0, 1, Interest(V0, nonce=1))
    assert len(acts) == 1 and type(acts[0][1]) is Data
    assert acts[0][0] == 1
    assert V0 not in f.pit
    assert f.counters.cs_hits == 1


def test_aggregation_same_name_new_face():
    f = node()
    f.fib_insert(Name.parse("/v"), [(9, 1)])
    first = f.on_interest(0.0, 1, Interest(V0, nonce=1))
    assert [type(p) for _face, p in first] == [Interest]
    second = f.on_interest(0.5, 2, Interest(V0, nonce=2))
    assert second == []
    assert set(f.pit[V0].faces) == {1, 2}


def test_forwarding_decrements_hop_and_creates_pit():
    f = node()
    f.fib_insert(Name.parse("/v"), [(9, 1)])
    acts = f.on_interest(0.0, 1, Interest(Name.parse("/v/seg=3"), nonce=7, hop_limit=32))
    assert len(acts) == 1
    face, interest = acts[0]
    assert type(interest) is Interest and face == 9
    assert interest.hop_limit == 31
    assert Name.parse("/v/seg=3") in f.pit


def test_duplicate_nonce_drops_as_loop():
    f = node()
    f.fib_insert(Name.parse("/v"), [(9, 1)])
    f.on_interest(0.0, 1, Interest(V0, nonce=5))
    acts = f.on_interest(0.1, 2, Interest(V0, nonce=5))
    assert acts == []
    assert f.counters.drops == {DROP_LOOP: 1}


def test_hop_limit_zero_drops():
    f = node()
    acts = f.on_interest(0.0, 1, Interest(V0, nonce=1, hop_limit=0))
    assert acts == []
    assert f.counters.drops == {DROP_LOOP: 1}


def test_hop_limit_one_cannot_be_forwarded_but_cs_still_answers():
    f = node()
    f.fib_insert(Name.parse("/v"), [(9, 1)])
    assert f.on_interest(0.0, 1, Interest(V0, nonce=1, hop_limit=1)) == []
    assert f.counters.drops == {DROP_LOOP: 1}
    f.cs.insert(0.0, make_data(V0, b"x", FRESH, 0))
    acts = f.on_interest(1.0, 1, Interest(V0, nonce=2, hop_limit=1))
    assert type(acts[0][1]) is Data


def test_no_route_drop():
    f = node()
    acts = f.on_interest(0.0, 1, Interest(Name.parse("/z"), nonce=1))
    assert acts == []
    assert f.counters.drops == {DROP_NO_ROUTE: 1}
    assert Name.parse("/z") not in f.pit


def test_arrival_face_excluded_from_next_hops():
    f = node()
    f.fib_insert(Name.parse("/v"), [(1, 1), (2, 5)])
    acts = f.on_interest(0.0, 1, Interest(V0, nonce=1))
    assert type(acts[0][1]) is Interest and acts[0][0] == 2
    # Only hop is the arrival face: no route.
    f2 = node()
    f2.fib_insert(Name.parse("/v"), [(1, 1)])
    assert f2.on_interest(0.0, 1, Interest(V0, nonce=1)) == []
    assert f2.counters.drops == {DROP_NO_ROUTE: 1}


def test_lowest_cost_then_lowest_face():
    f = node(faces=(1, 2, 3, 9))
    f.fib_insert(Name.parse("/v"), [(9, 3), (3, 2), (2, 2)])
    acts = f.on_interest(0.0, 1, Interest(V0, nonce=1))
    assert acts[0][0] == 2


def test_data_fans_out_to_all_infaces_and_consumes_pit():
    f = node()
    f.fib_insert(Name.parse("/v"), [(9, 1)])
    f.on_interest(0.0, 1, Interest(V0, nonce=1))
    f.on_interest(0.1, 2, Interest(V0, nonce=2))
    d = make_data(V0, b"pay", FRESH, 0)
    acts = f.on_data(1.0, 9, d)
    assert acts == [(1, d), (2, d)]
    assert V0 not in f.pit
    assert f.cs.lookup(1.0, V0) is d


def test_unsolicited_data_dropped():
    f = node()
    acts = f.on_data(0.0, 9, make_data(V0, b"p", FRESH, 0))
    assert acts == []
    assert f.counters.drops == {DROP_UNSOLICITED: 1}


def test_integrity_drop_leaves_state_unchanged():
    f = node()
    f.fib_insert(Name.parse("/v"), [(9, 1)])
    f.on_interest(0.0, 1, Interest(V0, nonce=1))
    bad = Data(V0, b"corrupted", b"\x11" * 32, FRESH, 0)
    acts = f.on_data(1.0, 9, bad)
    assert acts == []
    assert f.counters.drops == {DROP_INTEGRITY: 1}
    assert V0 in f.pit
    assert len(f.cs) == 0


def test_data_is_frozen():
    d = make_data(V0, b"p", FRESH, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.payload = b"q"
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.digest = b"\x00" * 32


def test_integrity_drop_then_intact_data_of_same_name_accepted():
    # The corrupt copies carry the true digest, so a check remembered by
    # name or by digest rather than per Data object would let them through.
    f = node(cs=0)
    f.fib_insert(Name.parse("/v"), [(9, 1)])
    good = make_data(V0, b"payload", FRESH, 0)
    assert good.intact()
    f.on_interest(0.0, 1, Interest(V0, nonce=1))
    assert f.on_data(1.0, 9, Data(V0, b"corrupted", good.digest, FRESH, 0)) == []
    assert f.counters.drops == {DROP_INTEGRITY: 1}
    assert f.on_data(2.0, 9, good) == [(1, good)]
    assert V0 not in f.pit
    f.on_interest(3.0, 2, Interest(V0, nonce=2))
    assert f.on_data(4.0, 9, dataclasses.replace(good, payload=b"payloaD")) == []
    assert f.counters.drops == {DROP_INTEGRITY: 2}
    assert f.on_data(5.0, 9, good) == [(2, good)]


def test_same_face_duplicates_collapse_to_one_send():
    f = node()
    f.fib_insert(Name.parse("/v"), [(9, 1)])
    f.on_interest(0.0, 1, Interest(V0, nonce=1))
    f.on_interest(0.1, 1, Interest(V0, nonce=2))
    acts = f.on_data(1.0, 9, make_data(V0, b"p", FRESH, 0))
    assert len(acts) == 1 and acts[0][0] == 1


def test_aggregation_bound_burst():
    # k simultaneous same-name interests: one upstream send, k data sends.
    for k in (2, 16, 64):
        f = Forwarder(1 << 20)
        upstream = 1000
        f.register_face(upstream)
        for i in range(k):
            f.register_face(i)
        f.fib_insert(Name.parse("/v"), [(upstream, 1)])
        sends = []
        for i in range(k):
            sends += f.on_interest(0.0, i, Interest(V0, nonce=i + 1))
        assert sum(type(p) is Interest for _face, p in sends) == 1
        acts = f.on_data(1.0, upstream, make_data(V0, b"p", FRESH, 0))
        assert sum(type(p) is Data for _face, p in acts) == k


# -- content store -----------------------------------------------------------


def test_cs_lru_eviction():
    f = Forwarder(16384)
    a = make_data(Name.parse("/a/seg=0"), b"a" * 8192, FRESH, 0)
    b = make_data(Name.parse("/b/seg=0"), b"b" * 8192, FRESH, 0)
    c = make_data(Name.parse("/c/seg=0"), b"c" * 8192, FRESH, 0)
    f.cs.insert(0.0, a)
    f.cs.insert(1.0, b)
    f.cs.lookup(2.0, a.name)  # a is now most recently used
    assert f.cs.insert(3.0, c) == (True, [b.name])
    assert f.cs.bytes == 16384


def test_cs_reinsert_same_name_refreshes_without_double_count():
    f = Forwarder(16384)
    a = make_data(Name.parse("/a/seg=0"), b"a" * 8192, FRESH, 0)
    f.cs.insert(0.0, a)
    f.cs.insert(1.0, a)
    assert f.cs.bytes == 8192
    b = make_data(Name.parse("/b/seg=0"), b"b" * 8192, FRESH, 0)
    c = make_data(Name.parse("/c/seg=0"), b"c" * 8192, FRESH, 0)
    f.cs.insert(2.0, b)
    f.cs.insert(3.0, a)  # refresh recency: b becomes LRU
    assert f.cs.insert(4.0, c) == (True, [b.name])


def test_cs_stale_evicted_before_fresh_lru():
    f = Forwarder(16384)
    stale = make_data(Name.parse("/stale/seg=0"), b"s" * 8192, 100, 0)
    fresh = make_data(Name.parse("/fresh/seg=0"), b"f" * 8192, FRESH, 0)
    f.cs.insert(0.0, stale)
    f.cs.insert(10.0, fresh)
    # Touch stale so plain LRU would evict fresh instead.
    assert f.cs.lookup(50.0, stale.name) is not None
    # Clock-stepped: at t=200 stale has expired.
    assert f.cs.lookup(200.0, fresh.name) is not None
    incoming = make_data(Name.parse("/new/seg=0"), b"n" * 8192, FRESH, 0)
    f2 = Forwarder(16384)
    f2.cs.insert(0.0, stale)
    f2.cs.insert(10.0, fresh)
    f2.cs.lookup(50.0, stale.name)
    assert f2.cs.insert(200.0, incoming) == (True, [stale.name])
    assert f2.cs.lookup(200.0, fresh.name) is not None


def test_cs_stale_never_returned_by_lookup():
    f = Forwarder(1 << 20)
    d = make_data(V0, b"p", 100, 0)
    f.cs.insert(0.0, d)
    assert f.cs.lookup(99.0, V0) is not None
    f2 = Forwarder(1 << 20)
    f2.cs.insert(0.0, d)
    assert f2.cs.lookup(100.0, V0) is None


def test_cs_payload_too_large_counted_not_raised():
    f = node(cs=10)
    f.fib_insert(Name.parse("/v"), [(2, 1)])
    f.on_interest(0.0, 1, Interest(V0, nonce=1))
    d = make_data(V0, b"x" * 11, FRESH, 0)
    assert f.on_data(1.0, 2, d) == [(1, d)]
    assert len(f.cs) == 0
    assert f.counters.cs_rejections == 1
    assert f.cs.insert(2.0, d) == (False, [])


def test_cs_capacity_never_exceeded_random_ops():
    rng = random.Random(4)
    f = Forwarder(40_000)
    names = [Name.parse("/n%d/seg=0" % i) for i in range(30)]
    for step in range(600):
        n = rng.choice(names)
        if rng.random() < 0.7:
            size = rng.randrange(0, 12_000)
            f.cs.insert(float(step), make_data(n, b"z" * size, rng.choice((50, FRESH)), 0))
        else:
            f.cs.lookup(float(step), n)
        assert f.cs.bytes <= 40_000
        assert f.cs.bytes == sum(len(e.data.payload) for e in f.cs.entries.values())


class ScanningStore:
    """The content store without the skip rule: every eviction scans all
    entries for stale ones, then evicts least recently used."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries = OrderedDict()  # name -> (data, inserted_at)
        self.bytes = 0

    def lookup(self, now, name):
        e = self.entries.get(name)
        if e is None:
            return None
        if now - e[1] >= e[0].freshness_ms:
            del self.entries[name]
            self.bytes -= len(e[0].payload)
            return None
        self.entries.move_to_end(name)
        return e[0]

    def insert(self, now, d):
        size = len(d.payload)
        if size > self.capacity:
            return False, []
        old = self.entries.get(d.name)
        if old is not None:
            self.bytes += size - len(old[0].payload)
            self.entries[d.name] = (d, now)
            self.entries.move_to_end(d.name)
            return True, self._evict(now, 0)
        evicted = self._evict(now, size)
        self.entries[d.name] = (d, now)
        self.bytes += size
        return True, evicted

    def _evict(self, now, incoming):
        evicted = []
        if self.bytes + incoming <= self.capacity:
            return evicted
        for name in [n for n, (d, at) in self.entries.items() if now - at >= d.freshness_ms]:
            self.bytes -= len(self.entries.pop(name)[0].payload)
            evicted.append(name)
            if self.bytes + incoming <= self.capacity:
                return evicted
        while self.bytes + incoming > self.capacity and self.entries:
            name, (d, _at) = self.entries.popitem(last=False)
            self.bytes -= len(d.payload)
            evicted.append(name)
        return evicted


BIG = 3_600_000
CS_NAMES = [Name.parse("/cs%d/seg=0" % i) for i in range(5)]
_cs_ops = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(0, len(CS_NAMES) - 1), st.integers(0, 4),
              st.sampled_from((0, 1, 3, BIG))),
    st.tuples(st.just("lookup"), st.integers(0, len(CS_NAMES) - 1)),
    st.tuples(st.just("wait"), st.sampled_from((0.1, 0.2, 0.3, 1.0))),
    # Jump to the float sum inserted_at + freshness_ms of one entry, where
    # rounding decides whether it is stale.
    st.tuples(st.just("to-boundary"), st.integers(0, len(CS_NAMES) - 1)),
), max_size=60)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(_cs_ops)
# An eviction that leaves a stale entry behind.
@example([("insert", 0, 1, 0), ("insert", 1, 1, BIG), ("insert", 2, 1, 0), ("wait", 1.0),
          ("insert", 3, 1, BIG), ("wait", 1.0), ("insert", 4, 1, BIG)])
# An in-place replace that shortens freshness.
@example([("insert", 0, 1, BIG), ("insert", 1, 1, BIG), ("wait", 1.0), ("insert", 1, 1, 0),
          ("insert", 2, 1, BIG), ("wait", 1.0), ("insert", 3, 1, BIG)])
# A new entry inserted by an eviction that scanned.
@example([("insert", 0, 1, 0), ("insert", 1, 1, BIG), ("insert", 2, 1, BIG), ("wait", 1.0),
          ("insert", 3, 1, 1), ("wait", 1.0), ("wait", 1.0), ("insert", 4, 1, BIG)])
# Stale at 3.6999999999999997 ms, below the float sum 0.7 + 3 = 3.7.
@example([("insert", 0, 1, BIG), ("wait", 0.1), ("wait", 0.3), ("wait", 0.3),
          ("insert", 1, 1, 3), ("insert", 2, 1, BIG)]
         + [("wait", w) for w in (0.1, 0.3, 0.3, 1.0, 0.3, 1.0)] + [("insert", 3, 1, BIG)])
def test_cs_insert_matches_a_store_that_always_scans(ops):
    store, ref = ContentStore(3000), ScanningStore(3000)
    now = 0.0
    for op in ops:
        if op[0] == "insert":
            d = make_data(CS_NAMES[op[1]], bytes(op[2] * 1000), op[3], 0)
            assert store.insert(now, d) == ref.insert(now, d)
        elif op[0] == "lookup":
            assert store.lookup(now, CS_NAMES[op[1]]) == ref.lookup(now, CS_NAMES[op[1]])
        elif op[0] == "wait":
            now += op[1]
        elif ref.entries:
            d, at = list(ref.entries.values())[op[1] % len(ref.entries)]
            now = max(now, at + d.freshness_ms)
        assert [(n, e.data, e.inserted_at) for n, e in store.entries.items()] == [
            (n, d, at) for n, (d, at) in ref.entries.items()]
        assert store.bytes == ref.bytes


# -- FIB ------------------------------------------------------------------------


def test_lpm_examples():
    f = node()
    f.fib_insert(Name.parse("/a"), [(1, 1)])
    f.fib_insert(Name.parse("/a/b"), [(2, 1)])
    assert f.fib_longest_prefix_match(Name.parse("/a/b/c")).prefix == Name.parse("/a/b")
    assert f.fib_longest_prefix_match(Name.parse("/a/x")).prefix == Name.parse("/a")
    assert f.fib_longest_prefix_match(Name.parse("/z")) is None


def test_root_prefix_is_default_route():
    f = node()
    f.fib_insert(Name.parse("/"), [(9, 1)])
    assert f.fib_longest_prefix_match(Name.parse("/anything")).prefix == Name.parse("/")


def brute_force_lpm(entries, name):
    best = None
    for prefix in entries:
        if prefix.is_prefix_of(name) and (best is None or len(prefix) > len(best)):
            best = prefix
    return best


def test_lpm_equals_brute_force_on_random_instances():
    rng = random.Random(2024)
    alphabet = [b"a", b"b", b"c", b"d"]
    for _ in range(1000):
        f = Forwarder(0)
        f.register_face(1)
        prefixes = set()
        for _ in range(rng.randrange(1, 10)):
            depth = rng.randrange(0, 5)
            prefixes.add(Name(tuple(rng.choice(alphabet) for _ in range(depth))))
        for p in prefixes:
            f.fib_insert(p, [(1, 1)])
        name = Name(tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 6))))
        got = f.fib_longest_prefix_match(name)
        want = brute_force_lpm(prefixes, name)
        assert (got.prefix if got else None) == want


# -- PIT expiry -------------------------------------------------------------------


def test_pit_expiry_boundary_closed():
    f = node()
    f.fib_insert(Name.parse("/v"), [(9, 1)])
    f.on_interest(0.0, 1, Interest(V0, nonce=1, lifetime_ms=4000))
    assert f.pit_expire(3999.0) == []
    assert V0 in f.pit
    assert f.pit_expire(4000.0) == [V0]
    assert f.counters.pit_timeouts == 1


def test_pit_expire_on_empty_pit_returns_nothing_and_counts_nothing():
    f = node()
    assert f.pit_expire(10.0) == []
    assert f.counters.pit_timeouts == 0
    f.fib_insert(Name.parse("/v"), [(9, 1)])
    f.on_interest(0.0, 1, Interest(V0, nonce=1, lifetime_ms=5))
    assert f.on_data(1.0, 9, make_data(V0, b"p", FRESH, 0)) == [(1, make_data(V0, b"p", FRESH, 0))]
    assert not f.pit
    assert f.pit_expire(10.0) == []
    assert f.counters.pit_timeouts == 0


def test_expiry_then_rearrival_forwards_again():
    f = node()
    f.fib_insert(Name.parse("/v"), [(9, 1)])
    f.on_interest(0.0, 1, Interest(V0, nonce=1, lifetime_ms=4000))
    f.pit_expire(4000.0)
    acts = f.on_interest(4500.0, 1, Interest(V0, nonce=2, lifetime_ms=4000))
    assert [type(p) for _face, p in acts] == [Interest]


# No test below sweeps: an entry must expire at its deadline when it is read.


def test_expired_entry_is_not_used_without_a_sweep():
    f = node()
    f.fib_insert(Name.parse("/v"), [(9, 1)])
    f.on_interest(0.0, 1, Interest(V0, nonce=1, lifetime_ms=100))
    fresh = Interest(V0, nonce=2, lifetime_ms=100)
    assert f.on_interest(5000.0, 2, fresh) == [(9, fresh.decremented())]
    assert f.counters.pit_timeouts == 1
    assert f.counters.drops == {}
    assert f.pit[V0].faces == {2: 2}


def test_data_for_expired_unswept_entry_is_unsolicited():
    f = node()
    f.fib_insert(Name.parse("/v"), [(9, 1)])
    f.on_interest(0.0, 1, Interest(V0, nonce=1, lifetime_ms=100))
    assert f.on_data(100.0, 9, make_data(V0, b"p", FRESH, 0)) == []
    assert f.counters.drops == {DROP_UNSOLICITED: 1}
    assert f.counters.pit_timeouts == 1
    assert V0 not in f.pit


def test_nonce_of_satisfied_entry_is_answered_from_store():
    # Only a live PIT entry remembers a nonce; once satisfied, the same
    # nonce from another face is a fresh request that the store answers.
    f = node()
    f.fib_insert(Name.parse("/v"), [(9, 1)])
    d = make_data(V0, b"p", FRESH, 0)
    f.on_interest(0.0, 1, Interest(V0, nonce=5))
    assert f.on_data(1.0, 9, d) == [(1, d)]
    assert f.on_interest(2.0, 2, Interest(V0, nonce=5)) == [(2, d)]
    assert f.counters.drops == {}
    assert f.counters.cs_hits == 1


def test_aggregation_keeps_latest_nonce_per_face():
    f = node()
    f.fib_insert(Name.parse("/v"), [(9, 1)])
    f.on_interest(0.0, 1, Interest(V0, nonce=1))
    f.on_interest(0.1, 2, Interest(V0, nonce=2))
    assert f.on_interest(0.2, 1, Interest(V0, nonce=3)) == []
    assert list(f.pit[V0].faces.items()) == [(1, 3), (2, 2)]
    assert f.on_interest(0.3, 2, Interest(V0, nonce=3)) == []
    assert f.counters.drops == {DROP_LOOP: 1}


# -- configuration -----------------------------------------------------------------


def test_face_and_fib_config_errors():
    f = node()
    with pytest.raises(DuplicateFace):
        f.register_face(1)
    with pytest.raises(ValueError):
        f.fib_insert(Name.parse("/a"), [])
    with pytest.raises(UnknownFace):
        f.on_interest(0.0, 404, Interest(V0, nonce=1))
    with pytest.raises(UnknownFace):
        f.on_data(0.0, 404, make_data(V0, b"p", FRESH, 0))


def test_replay_determinism():
    def run():
        f = node()
        f.fib_insert(Name.parse("/v"), [(9, 1)])
        log = []
        log += f.on_interest(0.0, 1, Interest(V0, nonce=1))
        log += f.on_interest(0.2, 2, Interest(V0, nonce=2))
        log += f.on_data(1.0, 9, make_data(V0, b"pp", FRESH, 0))
        log += f.on_interest(2.0, 2, Interest(V0, nonce=3))
        return log

    assert run() == run()
