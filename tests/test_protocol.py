"""The forwarder action protocol, checked against a brute-force PIT model.

A forwarder or gateway returns only work for its host and records a drop
once, in ``Counters.drop``. Random interest, data and sweep sequences over
a few names, faces and lifetimes must give the actions, drops, timeouts
and PIT of a model that keeps the PIT as a flat list of (name, face,
nonce, deadline) records and rescans it. The model knows no other nonce
memory: an interest loops only if its nonce is the latest one of some face
on the name's live records. A name's records expire when they are read at
or after their deadline, or when a sweep finds them past it; either way
they count one timeout. An empty ``on_interest`` or ``on_data`` result is
exactly one of: one new drop, an aggregation into a PIT entry that was
live before the call, or a segment of a content whose origin fetch is
already pending. A non-empty result never adds a drop.
"""

from hypothesis import given, settings, strategies as st

from icnsim.forwarder import (DROP_INTEGRITY, DROP_LOOP, DROP_NO_ROUTE,
                              DROP_UNSOLICITED, Forwarder)
from icnsim.gateway import Gateway, PendingFetch
from icnsim.ndn import Data, Interest, Name, chunk_content, make_data

FRESH = 10_000_000
DOWN = (1, 2, 3)
UP = 9
# /v goes upstream; /w's only next hop is face 1; /z has no route.
FIB = {Name.parse("/v"): UP, Name.parse("/w"): 1}
ROUTED = [Name.parse(p).segment(0) for p in ("/v", "/w")]
UNROUTED = [Name.parse("/z").segment(0)]
CHUNK = 4
CONTENTS = {Name.parse("/cdn/a/r"): ("a", "r", b"abcdefgh"),   # segments 0 and 1
            Name.parse("/cdn/b/r"): ("b", "r", b"xyz")}        # segment 0 only
SERVED = [base.segment(k) for base in CONTENTS for k in (0, 1, 2)]


def route(name: Name) -> int | None:
    return next((hop for prefix, hop in FIB.items() if prefix.is_prefix_of(name)), None)


class Model:
    """The tables a forwarder or gateway should hold, kept the slow way."""

    def __init__(self, gateway: bool):
        self.gateway = gateway
        self.records: list[tuple[Name, int, int, float]] = []  # PIT, in arrival order
        self.timeouts = 0
        self.cs: dict[Name, Data] = {}
        self.repo: dict[Name, Data] = {}
        self.published: dict[Name, int] = {}
        self.pending: set[Name] = set()
        self.drops: dict[str, int] = {}

    def drop(self, reason: str) -> list:
        self.drops[reason] = self.drops.get(reason, 0) + 1
        return []

    def pit(self) -> dict[Name, list[tuple[int, int]]]:
        """Each pending name's (face, latest nonce) pairs, faces in order
        of first arrival."""
        latest: dict[Name, list[tuple[int, int]]] = {}
        for name, face, nonce, _deadline in self.records:
            pairs = latest.setdefault(name, [])
            pairs[:] = [(f, nonce if f == face else n) for f, n in pairs]
            if face not in [f for f, _n in pairs]:
                pairs.append((face, nonce))
        return latest

    def deadline(self, name: Name) -> float:
        return next(r[3] for r in self.records if r[0] == name)

    def take(self, name: Name) -> list[int]:
        faces = [f for f, _n in self.pit().get(name, [])]
        self.records = [r for r in self.records if r[0] != name]
        return faces

    def live(self, now: float, name: Name) -> bool:
        """Whether ``name`` is pending; its records expire when read late."""
        if name not in self.pit():
            return False
        if self.deadline(name) <= now:
            self.take(name)
            self.timeouts += 1
            return False
        return True

    def sweep(self, now: float) -> list[Name]:
        expired = [n for n in self.pit() if self.deadline(n) <= now]
        for name in expired:
            self.take(name)
        self.timeouts += len(expired)
        return expired

    def served_base(self, name: Name) -> Name | None:
        if self.gateway and name.seg_number() is not None and name.parent() in CONTENTS:
            return name.parent()
        return None

    def interest(self, now: float, face: int, it: Interest) -> list:
        name = it.name
        pending = self.live(now, name)
        if it.hop_limit == 0 or it.nonce in [n for _f, n in self.pit().get(name, [])]:
            return self.drop(DROP_LOOP)
        base = self.served_base(name)
        store = self.repo if base is not None else self.cs
        if name in store:
            return [(face, store[name])]
        if base is not None and base in self.published:
            return self.drop(DROP_NO_ROUTE)
        if pending:
            self.records.append((name, face, it.nonce, self.deadline(name)))
            return []
        deadline = now + it.lifetime_ms
        if base is not None:
            self.records.append((name, face, it.nonce, deadline))
            if base in self.pending:
                return []
            self.pending.add(base)
            cid, res, _payload = CONTENTS[base]
            return [(face, PendingFetch(cid, res, base))]
        hop = route(name)
        if hop is None or hop == face:
            return self.drop(DROP_NO_ROUTE)
        if it.hop_limit <= 1:
            return self.drop(DROP_LOOP)
        self.records.append((name, face, it.nonce, deadline))
        return [(hop, Interest(name, it.nonce, it.lifetime_ms, it.hop_limit - 1))]

    def data(self, now: float, face: int, d: Data, intact: bool) -> list:
        if not intact:
            return self.drop(DROP_INTEGRITY)
        if not self.live(now, d.name):
            return self.drop(DROP_UNSOLICITED)
        self.cs[d.name] = d
        return [(f, d) for f in self.take(d.name) if f != face]

    def drain(self, now: float, base: Name) -> list:
        self.pending.discard(base)
        actions = []
        for name in [n for n in self.pit() if base.is_prefix_of(n)]:
            if not self.live(now, name):
                continue
            faces = self.take(name)
            if name in self.repo:
                actions += [(f, self.repo[name]) for f in faces]
            else:
                self.drop(DROP_NO_ROUTE)
        return actions

    def publish(self, now: float, base: Name) -> tuple[int, list]:
        if base in self.published:
            return self.published[base], []
        segments = chunk_content(base, CONTENTS[base][2], CHUNK, FRESH)
        self.repo.update((d.name, d) for d in segments)
        self.published[base] = len(segments)
        return len(segments), self.drain(now, base)


def build(gateway: bool) -> Forwarder:
    if gateway:
        node = Gateway(1 << 20, chunk_size=CHUNK, publish_freshness_ms=FRESH)
    else:
        node = Forwarder(1 << 20)
    for face in DOWN + (UP,):
        node.register_face(face)
    for prefix, hop in FIB.items():
        node.fib_insert(prefix, [(hop, 1)])
    if gateway:
        node.configure_origin("origin", {base: (cid, res) for base, (cid, res, _p)
                                         in CONTENTS.items()})
    return node


def interests(names):
    # Steps are 1 ms apart, so lifetimes of 1 and 2 ms expire within a
    # sequence and 4000 ms never does.
    return st.tuples(st.just("interest"), st.sampled_from(names), st.sampled_from(DOWN),
                     st.integers(0, 4), st.sampled_from([0, 1, 2, 64]),
                     st.sampled_from([1, 2, 4000]))


DATA = st.tuples(st.just("data"), st.sampled_from(ROUTED + UNROUTED), st.booleans())
SWEEP = st.tuples(st.just("sweep"), st.none())
FORWARDER_OPS = st.lists(st.one_of(interests(ROUTED + UNROUTED), DATA, SWEEP), max_size=40)
GATEWAY_OPS = st.lists(st.one_of(
    interests(ROUTED + UNROUTED), interests(SERVED), interests(SERVED), DATA, SWEEP,
    st.tuples(st.sampled_from(["publish", "fail"]), st.sampled_from(list(CONTENTS)))),
    max_size=40)


def check_sequence(ops, gateway: bool):
    node, model = build(gateway), Model(gateway)
    for step, op in enumerate(ops):
        now = float(step)
        kind, name = op[0], op[1]
        live_before = {n: dict(e.faces) for n, e in node.pit.items() if e.deadline > now}
        pending_before = set(node.pending) if gateway else set()
        drops_before = sum(node.counters.drops.values())
        if kind == "interest":
            face, nonce, hop, lifetime = op[2:]
            it = Interest(name, nonce, lifetime, hop)
            got, want = node.on_interest(now, face, it), model.interest(now, face, it)
        elif kind == "data":
            intact = op[2]
            face = route(name) or UP  # data comes back from upstream
            d = make_data(name, str(name).encode(), FRESH, 1)
            if not intact:
                d = Data(name, b"corrupted", d.digest, FRESH, 1)
            got, want = node.on_data(now, face, d), model.data(now, face, d, intact)
        elif kind == "sweep":
            got, want = node.pit_expire(now), model.sweep(now)
        elif kind == "publish":
            got = node.publish_content_to_icn(now, name, CONTENTS[name][2])
            want = model.publish(now, name)
        else:
            got, want = node.fetch_failed(now, name), None
            model.drain(now, name)
        assert got == want, (step, op)
        assert node.counters.drops == model.drops, (step, op)
        assert node.counters.pit_timeouts == model.timeouts, (step, op)
        assert {n: list(e.faces.items()) for n, e in node.pit.items()} == model.pit()
        if gateway:
            assert node.pending == model.pending
        if kind not in ("interest", "data"):
            continue
        new_drops = sum(node.counters.drops.values()) - drops_before
        if got:
            assert new_drops == 0, (step, op)
            continue
        entry = node.pit.get(name)
        aggregated = (kind == "interest" and name in live_before and entry is not None
                      and entry.faces.get(face) == nonce != live_before[name].get(face))
        pending_segment = (kind == "interest" and name not in live_before
                           and entry is not None and name.parent() in pending_before)
        assert [new_drops == 1, aggregated, pending_segment].count(True) == 1, (step, op)
        assert new_drops <= 1, (step, op)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(FORWARDER_OPS)
def test_forwarder_protocol_matches_brute_force_pit(ops):
    check_sequence(ops, gateway=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(GATEWAY_OPS)
def test_gateway_protocol_matches_brute_force_pit(ops):
    check_sequence(ops, gateway=True)
