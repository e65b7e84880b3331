"""The forwarder action protocol, checked against a brute-force PIT model.

A forwarder returns only work for its host and records a drop once, in
``Counters.drop``. The node under test is a host whose forwarder has an
application callable on every face, recording what the host sends there;
in the gateway case the gateway producer holds one more face, which the
FIB routes ``/cdn`` to at cost 0. Random interest, data and sweep
sequences over a few names, faces and lifetimes, and publishes and failed
fetches, must give the sends, drops, timeouts, content-store hits and
misses, PIT, waiting names and origin fetches of a model that keeps the
PIT as a flat list of (name, face, nonce, deadline) records and rescans
it. The model knows no other nonce memory: an interest loops only if its
nonce is the latest one of some face on the name's live records. A name's
records expire when they are read at or after their deadline, or when a
sweep finds them past it; either way they count one timeout. A step that
sends nothing is exactly one of: one new drop, an aggregation into a PIT
entry that was live before the step, or an interest whose name now waits
on its content's origin fetch. A step that sends something adds no drop.
"""

from functools import partial

from hypothesis import given, settings, strategies as st

from icnsim.forwarder import (DROP_INTEGRITY, DROP_LOOP, DROP_NO_ROUTE,
                              DROP_UNSOLICITED, Forwarder)
from icnsim.gateway import Gateway
from icnsim.ndn import Data, Interest, Name, chunk_content, make_data
from icnsim.simnet import Host, IpResponse, Network

FRESH = 10_000_000
DOWN = (1, 2, 3)
UP = 9
APP_FACES = 10    # faces 0 to 9 record their sends
PRODUCER = 10     # the gateway's face
# /v goes upstream; /w's only next hop is face 1; /z has no route.
FIB = {Name.parse("/v"): UP, Name.parse("/w"): 1}
GATEWAY_FIB = {**FIB, Name.parse("/cdn"): PRODUCER}
ROUTED = [Name.parse(p).segment(0) for p in ("/v", "/w")]
UNROUTED = [Name.parse("/z").segment(0)]
CHUNK = 4
CONTENTS = {Name.parse("/cdn/a/r"): ("a", "r", b"abcdefgh"),   # segments 0 and 1
            Name.parse("/cdn/b/r"): ("b", "r", b"xyz")}        # segment 0 only
SERVED = [base.segment(k) for base in CONTENTS for k in (0, 1, 2)]


class Model:
    """The tables a forwarder and its gateway should hold, kept the slow way."""

    def __init__(self, gateway: bool):
        self.fib = GATEWAY_FIB if gateway else FIB
        self.records: list[tuple[Name, int, int, float]] = []  # PIT, in arrival order
        self.timeouts = 0
        self.hits = 0
        self.misses = 0
        self.cs: dict[Name, Data] = {}
        self.repo: dict[Name, Data] = {}
        self.published: dict[Name, int] = {}
        self.waiting: dict[Name, list[Name]] = {}  # base -> names, in first-ask order
        self.fetches = 0
        self.drops: dict[str, int] = {}

    def route(self, name: Name) -> int | None:
        return next((hop for prefix, hop in self.fib.items() if prefix.is_prefix_of(name)),
                    None)

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

    def interest(self, now: float, face: int, it: Interest) -> list:
        name = it.name
        pending = self.live(now, name)
        if it.hop_limit == 0 or it.nonce in [n for _f, n in self.pit().get(name, [])]:
            return self.drop(DROP_LOOP)
        if name in self.cs:
            self.hits += 1
            return [(face, self.cs[name])]
        self.misses += 1
        if pending:
            self.records.append((name, face, it.nonce, self.deadline(name)))
            return []
        hop = self.route(name)
        if hop is None or hop == face:
            return self.drop(DROP_NO_ROUTE)
        if it.hop_limit <= 1:
            return self.drop(DROP_LOOP)
        self.records.append((name, face, it.nonce, now + it.lifetime_ms))
        if hop != PRODUCER:
            return [(hop, Interest(name, it.nonce, it.lifetime_ms, it.hop_limit - 1))]
        return self.produce(now, name)

    def produce(self, now: float, name: Name) -> list:
        """The gateway's answer to an interest the forwarder sent it."""
        if name in self.repo:
            return self.data(now, PRODUCER, self.repo[name], True)
        base = name.parent()
        if name.seg_number() is None or base not in CONTENTS or base in self.published:
            return self.refuse(now, name)
        if base not in self.waiting:
            self.waiting[base] = []
            self.fetches += 1
        if name not in self.waiting[base]:
            self.waiting[base].append(name)
        return []

    def refuse(self, now: float, name: Name) -> list:
        """End a name's records: live ones drop as no-route, expired ones
        count a timeout."""
        if self.live(now, name):
            self.take(name)
            self.drop(DROP_NO_ROUTE)
        return []

    def data(self, now: float, face: int, d: Data, intact: bool) -> list:
        if not intact:
            return self.drop(DROP_INTEGRITY)
        if not self.live(now, d.name):
            return self.drop(DROP_UNSOLICITED)
        self.cs[d.name] = d
        return [(f, d) for f in self.take(d.name) if f != face]

    def end(self, now: float, base: Name) -> list:
        actions = []
        for name in self.waiting.pop(base, []):
            if name in self.repo and name in self.pit() and self.deadline(name) > now:
                actions += self.data(now, PRODUCER, self.repo[name], True)
            else:
                self.refuse(now, name)
        return actions

    def publish(self, now: float, base: Name) -> list:
        if base in self.published:
            return []
        segments = chunk_content(base, CONTENTS[base][2], CHUNK, FRESH)
        self.repo.update((d.name, d) for d in segments)
        self.published[base] = len(segments)
        return self.end(now, base)


def build(gateway: bool) -> tuple[Host, Gateway | None, list]:
    """The node under test, its gateway if any, and the list of its sends."""
    net = Network()
    host = Host(net, "n", fwd=Forwarder(1 << 20))
    net.add_host(host)
    sent = []
    for face in range(APP_FACES):
        assert host.attach_app(partial(lambda f, now, p, served_by: sent.append((f, p)),
                                       face)) == face
    gw = None
    if gateway:
        gw = Gateway(host, chunk_size=CHUNK, publish_freshness_ms=FRESH)
        assert gw.face == PRODUCER
        gw.configure_origin("origin", {base: (cid, res) for base, (cid, res, _p)
                                       in CONTENTS.items()})
        # An origin one link away, so a fetch sends its request; the
        # network never runs, so it is never answered.
        net.add_host(Host(net, "origin"))
        net.add_link("n", "origin", 1.0, 100.0)
    for prefix, hop in (GATEWAY_FIB if gateway else FIB).items():
        host.fwd.fib_insert(prefix, [(hop, 0 if hop == PRODUCER else 1)])
    return host, gw, sent


def fetch_of(host: Host, base: Name) -> int | None:
    """The request id of the origin fetch waiting for ``base``, if any."""
    return next((rid for rid, (cb, _t) in host._ip_waiters.items() if cb.args[0] == base),
                None)


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
    (host, gw, sent), model = build(gateway), Model(gateway)
    node, counters = host.fwd, host.counters
    for step, op in enumerate(ops):
        now = float(step)
        kind, name = op[0], op[1]
        live_before = {n: dict(e.faces) for n, e in node.pit.items() if e.deadline > now}
        drops_before = sum(counters.drops.values())
        sent.clear()
        if kind == "interest":
            face, nonce, hop, lifetime = op[2:]
            it = Interest(name, nonce, lifetime, hop)
            host._emit(now, node.on_interest(now, face, it), host.id)
            want = model.interest(now, face, it)
        elif kind == "data":
            intact = op[2]
            face = model.route(name) or UP  # data comes back from upstream
            d = make_data(name, str(name).encode(), FRESH, 1)
            if not intact:
                d = Data(name, b"corrupted", d.digest, FRESH, 1)
            host._emit(now, node.on_data(now, face, d), host.id)
            want = model.data(now, face, d, intact)
        elif kind == "sweep":
            assert node.pit_expire(now) == model.sweep(now), (step, op)
            want = []
        else:
            rid = fetch_of(host, name)
            if kind == "publish":
                payload = CONTENTS[name][2]
                if rid is None:
                    count, actions = gw.publish_content_to_icn(now, name, payload)
                    assert count == -(-len(payload) // CHUNK), (step, op)
                    host._emit(now, actions, host.id)
                else:  # the fetch succeeds
                    cb, _timeout = host._ip_waiters.pop(rid)
                    cb(now, IpResponse("origin", "n", rid, payload, b"", None))
                want = model.publish(now, name)
            else:
                if rid is not None:
                    host._ip_timeout(rid, now)
                want = model.end(now, name) if rid is not None else []
        assert sent == want, (step, op)
        assert counters.drops == model.drops, (step, op)
        assert counters.pit_timeouts == model.timeouts, (step, op)
        assert (counters.cs_hits, counters.cs_misses) == (model.hits, model.misses), (step, op)
        assert {n: list(e.faces.items()) for n, e in node.pit.items()} == model.pit()
        if gateway:
            assert {b: list(names) for b, names in gw.waiting.items()} == model.waiting
            assert counters.origin_fetches == model.fetches, (step, op)
        if kind not in ("interest", "data"):
            continue
        new_drops = sum(counters.drops.values()) - drops_before
        if sent:
            assert new_drops == 0, (step, op)
            continue
        entry = node.pit.get(name)
        aggregated = (kind == "interest" and name in live_before and entry is not None
                      and entry.faces.get(face) == nonce != live_before[name].get(face))
        fetch_wait = (kind == "interest" and name not in live_before and entry is not None
                      and gateway and name in gw.waiting.get(name.parent(), ()))
        assert [new_drops == 1, aggregated, fetch_wait].count(True) == 1, (step, op)
        assert new_drops <= 1, (step, op)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(FORWARDER_OPS)
def test_forwarder_protocol_matches_brute_force_pit(ops):
    check_sequence(ops, gateway=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(GATEWAY_OPS)
def test_gateway_protocol_matches_brute_force_pit(ops):
    check_sequence(ops, gateway=True)
