import pytest
from hypothesis import example, given, settings, strategies as st

from icnsim.ndn import Interest, Name, make_data
from icnsim.simnet import HorizonExceeded, Host, IpRequest, Network

from conftest import build_chain, filter_deliveries


def first_hop(net, src, dst):
    """The peer at the end of ``src``'s cached outgoing link toward ``dst``."""
    link = net._routes_from(src)[1].get(dst)
    return link and link.dst


def test_equal_time_events_run_in_schedule_order():
    net = Network()
    log = []
    net.schedule(5.0, lambda t: log.append("a"))
    net.schedule(5.0, lambda t: log.append("b"))
    net.schedule(1.0, lambda t: log.append("c"))
    net.run_to_completion()
    assert log == ["c", "a", "b"]


def test_run_to_completion_empty_returns_now():
    net = Network()
    assert net.run_to_completion() == 0.0
    net.schedule(3.0, lambda t: None)
    assert net.run_to_completion() == 3.0
    assert net.run_to_completion() == 3.0


def test_send_delivery_formula(monkeypatch):
    # 8192 bytes over 100 Mbps, 50 ms idle link: 0.65536 ms + 50 ms.
    seen = []
    filter_deliveries(monkeypatch, lambda now, src, dst, msg: (seen.append(now), msg)[1])
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 50.0, 100.0)])
    net.send(hosts["a"].links["b"], 8192, IpRequest("a", "b", 0, "c", "r"))
    net.run_to_completion()
    assert seen == [pytest.approx(50.65536, abs=1e-12)]


def test_fifo_serialization_quantum(monkeypatch):
    seen = []
    filter_deliveries(monkeypatch, lambda now, src, dst, msg: (seen.append(now), msg)[1])
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 50.0, 100.0)])
    net.send(hosts["a"].links["b"], 8192, IpRequest("a", "b", 0, "c", "r"))
    net.send(hosts["a"].links["b"], 8192, IpRequest("a", "b", 1, "c", "r"))
    net.run_to_completion()
    # Queueing by hand: the second transmission starts when the first ends.
    assert seen[0] == pytest.approx(50.65536)
    assert seen[1] == pytest.approx(51.31072)
    assert seen[1] - seen[0] == pytest.approx(0.65536)


def test_directions_do_not_share_serialization(monkeypatch):
    seen = []
    filter_deliveries(monkeypatch,
                      lambda now, src, dst, msg: (seen.append((dst, now)), msg)[1])
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 10.0, 100.0)])
    net.send(hosts["a"].links["b"], 8192, IpRequest("a", "b", 0, "c", "r"))
    net.send(hosts["b"].links["a"], 8192, IpRequest("b", "a", 1, "c", "r"))
    net.run_to_completion()
    assert seen[0][1] == seen[1][1] == pytest.approx(10.65536)


def test_missing_link_counts_drop_and_schedules_nothing():
    net, hosts = build_chain([("a", 0), ("b", 0)], [])
    hosts["a"].send_ip(IpRequest("a", "b", 0, "c", "r"), 100)
    assert hosts["a"].counters.drops["no-route"] == 1
    assert hosts["a"].counters.tx_pkts == 0
    assert net.run_to_completion() == 0.0


def test_tx_rx_counters():
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 1.0, 100.0)])
    net.send(hosts["a"].links["b"], 500, IpRequest("a", "b", 0, "c", "r"))
    net.run_to_completion()
    assert hosts["a"].counters.tx_pkts == 1
    assert hosts["a"].counters.tx_bytes == 500
    assert hosts["b"].counters.rx_pkts == 1
    assert hosts["b"].counters.rx_bytes == 500


def test_message_to_a_removed_host_is_not_received():
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 10.0, 100.0)])
    net.send(hosts["a"].links["b"], 500, IpRequest("a", "b", 0, "c", "r"))
    net.schedule(1.0, lambda t: net.remove_host("b"))
    net.run_to_completion()
    assert hosts["a"].counters.tx_pkts == 1
    assert hosts["b"].counters.rx_pkts == 0
    assert hosts["b"].counters.rx_bytes == 0


def test_message_on_a_removed_link_between_live_hosts_is_delivered(monkeypatch):
    seen = []
    filter_deliveries(monkeypatch,
                      lambda now, src, dst, msg: (seen.append((src, dst)), msg)[1])
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 10.0, 100.0)])
    net.send(hosts["a"].links["b"], 500, IpRequest("a", "b", 0, "c", "r"))
    net.schedule(1.0, lambda t: net.remove_link("a", "b"))
    net.run_to_completion()
    assert "b" not in hosts["a"].links and "a" not in hosts["b"].links
    assert seen == [("a", "b")]
    assert hosts["b"].counters.rx_pkts == 1
    assert hosts["b"].counters.rx_bytes == 500


def test_delivery_dropped_by_the_filter_counts_no_rx(monkeypatch):
    filter_deliveries(monkeypatch, lambda now, src, dst, msg: None)
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 1.0, 100.0)])
    net.send(hosts["a"].links["b"], 500, IpRequest("a", "b", 0, "c", "r"))
    net.run_to_completion()
    assert hosts["a"].counters.tx_pkts == 1
    assert hosts["b"].counters.rx_pkts == 0
    assert hosts["b"].counters.rx_bytes == 0
    assert not hosts["b"].counters.drops


def test_horizon_exceeded():
    net = Network(horizon_ms=10.0)
    net.schedule(5.0, lambda t: None)
    net.schedule(20.0, lambda t: None)
    with pytest.raises(HorizonExceeded):
        net.run_to_completion()


def test_cancelled_events_do_not_run():
    net = Network()
    log = []
    ev = net.schedule(1.0, lambda t: log.append("x"))
    net.cancel(ev)
    net.run_to_completion()
    assert log == []


def test_ip_routing_multi_hop(monkeypatch):
    deliveries = []
    filter_deliveries(monkeypatch,
                      lambda now, src, dst, msg: (deliveries.append((dst, now)), msg)[1])
    net, hosts = build_chain(
        [("a", 0), ("b", 0), ("c", 0)],
        [("a", "b", 5.0, 100.0), ("b", "c", 7.0, 100.0)])
    assert first_hop(net, "a", "c") == "b"
    assert net.shortest_latency("a", "c") == 12.0
    hosts["a"].send_ip(IpRequest("a", "c", 0, "x", "r"), 512)
    net.run_to_completion()
    # Store-and-forward: serialization paid on each hop.
    ser = 512 * 8.0 / (100.0 * 1000.0)
    assert deliveries[-1] == ("c", pytest.approx(2 * ser + 12.0))


def test_route_cache_invalidated_on_topology_change():
    net, hosts = build_chain(
        [("a", 0), ("b", 0), ("c", 0)],
        [("a", "b", 5.0, 100.0), ("b", "c", 7.0, 100.0)])
    assert first_hop(net, "a", "c") == "b"
    a = hosts["a"]
    a.send_ip(IpRequest("a", "c", 0, "x", "r"), 512)  # fills a's routes
    assert len(a.links["b"].in_flight) == 1
    net.remove_link("b", "c")
    assert first_hop(net, "a", "c") is None
    assert net.shortest_latency("a", "c") == float("inf")
    a.send_ip(IpRequest("a", "c", 1, "x", "r"), 512)
    assert a.counters.drops == {"no-route": 1}
    assert len(a.links["b"].in_flight) == 1
    net.add_link("a", "c", 1.0, 100.0)
    req = IpRequest("a", "c", 2, "x", "r")
    a.send_ip(req, 512)
    assert [msg for msg, _nbytes, _by in a.links["c"].in_flight] == [req]
    assert a.counters.drops == {"no-route": 1}


def test_wire_interest_without_forwarder_drops():
    net = Network()
    a = Host(net, "a")
    b = Host(net, "b")
    net.add_host(a)
    net.add_host(b)
    net.add_link("a", "b", 1.0, 100.0)
    net.send(a.links["b"], 60, Interest(Name.parse("/x"), 1))
    net.run_to_completion()
    assert b.counters.drops["no-route"] == 1


# -- link FIFO delivery against a brute-force model -----------------------------

NODES = ("a", "b", "c")
PAIRS = (("a", "b"), ("b", "c"), ("a", "c"))


class _Sink(Host):
    """A host that only logs the messages it receives; each is an int, so
    ``Host.receive`` hands it to the IP handler after its delivery checks."""

    def _handle_ip(self, now, msg, nbytes):
        self.log.append((now, self.id, msg))


def _run_network(links, ops, drop_every_other):
    with pytest.MonkeyPatch.context() as mp:
        if drop_every_other:
            calls = []
            filter_deliveries(mp, lambda now, src, dst, msg: (
                calls.append(msg), None if len(calls) % 2 == 0 else msg)[1])
        return _run_ops(links, ops)


def _run_ops(links, ops):
    net = Network()
    log = []
    for nid in NODES:
        h = _Sink(net, nid)
        h.log = log
        net.add_host(h)
    for (a, b), (lat, mbps) in zip(PAIRS, links):
        net.add_link(a, b, lat, mbps)

    def run_op(t, i):
        op = ops[i]
        if op[0] == "send":
            _, src, dst, nbytes, _t = op
            link = net.hosts[src].links.get(dst) if src in net.hosts else None
            if link is not None:
                net.send(link, nbytes, i)
        elif op[0] == "toggle":
            (a, b), (lat, mbps) = PAIRS[op[1]], links[op[1]]
            if a in net.hosts and b in net.hosts:
                if b in net.hosts[a].links:
                    net.remove_link(a, b)
                else:
                    net.add_link(a, b, lat, mbps)
        else:
            net.remove_host(op[1])

    for i, op in enumerate(ops):
        net.schedule(op[-1], lambda t, i=i: run_op(t, i))
    net.run_to_completion()
    return log


def _model(links, ops, drop_every_other):
    """Each message's (at, seq) from the serialization formula, sorted.

    Ops are scheduled first, so they hold seqs 0..n-1 and run in (time,
    index) order; each successful send then takes the next seq.
    """
    state = {}

    def fresh_link(k):
        a, b = PAIRS[k]
        lat, mbps = links[k]
        state[a, b] = [0.0, lat, mbps]
        state[b, a] = [0.0, lat, mbps]

    for k in range(len(PAIRS)):
        fresh_link(k)
    alive = set(NODES)
    removed_at = {}
    deliveries = []
    seq = len(ops)
    for i, op in sorted(enumerate(ops), key=lambda x: (x[1][-1], x[0])):
        t = op[-1]
        if op[0] == "send":
            _, src, dst, nbytes, _t = op
            link = state.get((src, dst))
            if src not in alive or link is None:
                continue
            start = t if t > link[0] else link[0]
            link[0] = start + nbytes * 8.0 / (link[2] * 1000.0)
            deliveries.append((link[0] + link[1], seq, dst, i))
            seq += 1
        elif op[0] == "toggle":
            a, b = PAIRS[op[1]]
            if a in alive and b in alive:
                if (a, b) in state:
                    del state[a, b], state[b, a]
                else:
                    fresh_link(op[1])
        elif op[1] in alive:
            alive.discard(op[1])
            removed_at[op[1]] = t
            for key in [k for k in state if op[1] in k]:
                del state[key]
    out = [(at, dst, i) for at, _seq, dst, i in sorted(deliveries)
           if not (dst in removed_at and removed_at[dst] <= at)]
    return out[::2] if drop_every_other else out


_times = st.integers(0, 40).map(lambda k: k * 0.25)
_ops = st.lists(st.one_of(
    st.tuples(st.just("send"), st.sampled_from(NODES), st.sampled_from(NODES),
              st.integers(0, 3000), _times).filter(lambda op: op[1] != op[2]),
    st.tuples(st.just("toggle"), st.integers(0, len(PAIRS) - 1), _times),
    st.tuples(st.just("remove"), st.sampled_from(NODES), _times),
), max_size=40)
_links = st.lists(st.tuples(st.sampled_from((0.0, 0.25, 2.0)),
                            st.sampled_from((0.008, 1.0, 100.0))),
                  min_size=len(PAIRS), max_size=len(PAIRS))
_SLOW = [(2.0, 0.008)] * len(PAIRS)  # 1000 bytes take 1000 ms


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_links, _ops, st.booleans())
# A link removed with messages in flight: they still arrive.
@example(_SLOW, [("send", "a", "b", 1000, 0.0), ("send", "a", "b", 1000, 0.0),
                 ("toggle", 0, 0.5), ("send", "a", "b", 10, 1.0)], False)
# Removed and added again: the new link starts idle, so its message
# overtakes the old link's queue.
@example(_SLOW, [("send", "a", "b", 1000, 0.0), ("send", "a", "b", 1000, 0.0),
                 ("toggle", 0, 0.5), ("toggle", 0, 0.75),
                 ("send", "a", "b", 10, 1.0)], False)
# A host removed with messages in flight: they are dropped, and later
# messages on other links are unaffected.
@example(_SLOW, [("send", "a", "b", 1000, 0.0), ("send", "c", "b", 500, 0.0),
                 ("send", "a", "c", 700, 0.0), ("remove", "b", 600.0),
                 ("send", "a", "c", 10, 700.0)], False)
# A filter that drops every other message.
@example(_SLOW, [("send", "a", "b", 100, 0.0), ("send", "a", "b", 100, 0.0),
                 ("send", "b", "a", 100, 0.0), ("send", "c", "a", 100, 1.0),
                 ("send", "b", "c", 100, 1.0)], True)
def test_link_delivery_matches_sorted_formula(links, ops, drop_every_other):
    assert _run_network(links, ops, drop_every_other) == _model(links, ops, drop_every_other)


# -- link tables against a brute-force model ------------------------------------

HOSTS = ("a", "b", "c", "d", "e")
_DEAD = (Interest(Name.parse("/x"), 1), make_data(Name.parse("/x"), b"p", 0, 0))


def _brute_routes(adj: dict, src: str) -> dict:
    """dst -> (latency, first hops) over every simple path from ``src``:
    the shortest latency and the first hop of each path that has it."""
    best = {}

    def walk(node, dist, first, seen):
        for peer, lat in adj[node].items():
            if peer in seen:
                continue
            d, f = dist + lat, first or peer
            if peer not in best or d < best[peer][0]:
                best[peer] = (d, {f})
            elif d == best[peer][0]:
                best[peer][1].add(f)
            walk(peer, d, f, seen | {peer})

    walk(src, 0.0, None, {src})
    return best


class _TopologyModel:
    """Per host: the faces in the order allocated (the peer, or None once
    the link is removed) and the live links as peer -> face, in the order
    added; per live link, its latency."""

    def __init__(self):
        self.alive = set(HOSTS)
        self.faces = {n: [] for n in HOSTS}
        self.links = {n: {} for n in HOSTS}
        self.lat = {}

    def add_link(self, a, b, lat) -> bool:
        if a not in self.alive or b not in self.alive or b in self.links[a]:
            return False
        for x, y in ((a, b), (b, a)):
            self.links[x][y] = len(self.faces[x])
            self.faces[x].append(y)
            self.lat[x, y] = lat
        return True

    def remove_link(self, a, b):
        for x, y in ((a, b), (b, a)):
            face = self.links[x].pop(y, None)
            if face is not None:
                self.faces[x][face] = None
                del self.lat[x, y]

    def remove_host(self, n):
        for peer in list(self.links[n]):
            self.remove_link(n, peer)
        self.alive.discard(n)


def _check_tables(net, model):
    for n in HOSTS:
        host = net.all_hosts[n]
        assert {p: link.face for p, link in host.links.items()} == model.links[n]
        assert list(host.links) == list(model.links[n])
        for peer, link in host.links.items():
            assert (link.src, link.dst, link.latency_ms) == (n, peer, model.lat[n, peer])
            assert link.rx_face == model.links[peer][n]
            assert host.faces[link.face] is link
        assert {f: out and out.dst for f, out in host.faces.items()} == dict(
            enumerate(model.faces[n]))


def _check_dead_faces_drop(net, model):
    """Each removed link's face drops one packet as no-route at its host
    and sends nothing."""
    for n in HOSTS:
        host = net.all_hosts[n]
        for face, peer in enumerate(model.faces[n]):
            if peer is not None:
                continue
            c = host.counters
            before = (c.drops.get("no-route", 0), c.tx_pkts)
            host._emit(net.now, [(face, _DEAD[face % 2])], n)
            assert (c.drops["no-route"], c.tx_pkts) == (before[0] + 1, before[1])


def _check_routes(net, model):
    adj = {n: {} for n in HOSTS}
    for (a, b), lat in model.lat.items():
        adj[a][b] = lat
    for src in HOSTS:
        best = _brute_routes(adj, src)
        for dst in HOSTS:
            if dst == src:
                continue
            lat, firsts = best.get(dst, (float("inf"), {None}))
            assert net.shortest_latency(src, dst) == lat
            assert first_hop(net, src, dst) in firsts


_topology_ops = st.lists(st.tuples(
    st.sampled_from(("add", "add", "add", "remove_link", "remove_host")),
    st.sampled_from(HOSTS), st.sampled_from(HOSTS),
    st.sampled_from((0.0, 1.0, 2.0, 5.0)),
).filter(lambda op: op[1] != op[2]), max_size=30)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(_topology_ops)
# Removed and added again: the new link gets new faces, the old ones stay dead.
@example([("add", "a", "b", 1.0), ("remove_link", "a", "b", 0.0),
          ("add", "b", "a", 2.0)])
# Two equal-latency routes, then the one taken breaks.
@example([("add", "a", "b", 1.0), ("add", "b", "d", 1.0), ("add", "a", "c", 1.0),
          ("add", "c", "d", 1.0), ("remove_host", "b", "a", 0.0)])
def test_link_tables_and_routes_match_the_model(ops):
    net = Network()
    for n in HOSTS:
        net.add_host(Host(net, n))
    model = _TopologyModel()
    for kind, a, b, lat in ops:
        if kind == "add":
            if model.add_link(a, b, lat):
                net.add_link(a, b, lat, 100.0)
            else:
                with pytest.raises(ValueError):
                    net.add_link(a, b, lat, 100.0)
        elif kind == "remove_link":
            if a in model.alive and b in model.alive:
                model.remove_link(a, b)
                net.remove_link(a, b)
        else:
            model.remove_host(a)
            net.remove_host(a)
        _check_tables(net, model)
        _check_dead_faces_drop(net, model)
        _check_routes(net, model)
