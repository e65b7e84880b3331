import pytest
from hypothesis import example, given, settings, strategies as st

from icnsim.ndn import Interest, Name
from icnsim.simnet import HorizonExceeded, Host, IpRequest, Network

from conftest import build_chain


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


def test_send_delivery_formula():
    # 8192 bytes over 100 Mbps, 50 ms idle link: 0.65536 ms + 50 ms.
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 50.0, 100.0)])
    seen = []
    net.delivery_filter = lambda now, src, dst, msg: (seen.append(now), msg)[1]
    net.send("a", "b", 8192, IpRequest("a", "b", 0, "c", "r"))
    net.run_to_completion()
    assert seen == [pytest.approx(50.65536, abs=1e-12)]


def test_fifo_serialization_quantum():
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 50.0, 100.0)])
    seen = []
    net.delivery_filter = lambda now, src, dst, msg: (seen.append(now), msg)[1]
    net.send("a", "b", 8192, IpRequest("a", "b", 0, "c", "r"))
    net.send("a", "b", 8192, IpRequest("a", "b", 1, "c", "r"))
    net.run_to_completion()
    # Queueing by hand: the second transmission starts when the first ends.
    assert seen[0] == pytest.approx(50.65536)
    assert seen[1] == pytest.approx(51.31072)
    assert seen[1] - seen[0] == pytest.approx(0.65536)


def test_directions_do_not_share_serialization():
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 10.0, 100.0)])
    seen = []
    net.delivery_filter = lambda now, src, dst, msg: (seen.append((dst, now)), msg)[1]
    net.send("a", "b", 8192, IpRequest("a", "b", 0, "c", "r"))
    net.send("b", "a", 8192, IpRequest("b", "a", 1, "c", "r"))
    net.run_to_completion()
    assert seen[0][1] == seen[1][1] == pytest.approx(10.65536)


def test_missing_link_counts_drop_and_schedules_nothing():
    net, hosts = build_chain([("a", 0), ("b", 0)], [])
    ok = net.send("a", "b", 100, IpRequest("a", "b", 0, "c", "r"))
    assert not ok
    assert hosts["a"].counters.drops["no-route"] == 1
    assert net.run_to_completion() == 0.0


def test_tx_rx_counters():
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 1.0, 100.0)])
    net.send("a", "b", 500, IpRequest("a", "b", 0, "c", "r"))
    net.run_to_completion()
    assert hosts["a"].counters.tx_pkts == 1
    assert hosts["a"].counters.tx_bytes == 500
    assert hosts["b"].counters.rx_pkts == 1
    assert hosts["b"].counters.rx_bytes == 500


def test_message_to_a_removed_host_is_not_received():
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 10.0, 100.0)])
    net.send("a", "b", 500, IpRequest("a", "b", 0, "c", "r"))
    net.schedule(1.0, lambda t: net.remove_host("b"))
    net.run_to_completion()
    assert hosts["a"].counters.tx_pkts == 1
    assert hosts["b"].counters.rx_pkts == 0
    assert hosts["b"].counters.rx_bytes == 0


def test_message_on_a_removed_link_between_live_hosts_is_delivered():
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 10.0, 100.0)])
    seen = []
    net.delivery_filter = lambda now, src, dst, msg: (seen.append((src, dst)), msg)[1]
    net.send("a", "b", 500, IpRequest("a", "b", 0, "c", "r"))
    net.schedule(1.0, lambda t: net.remove_link("a", "b"))
    net.run_to_completion()
    assert not net.has_link("a", "b")
    assert seen == [("a", "b")]
    assert hosts["b"].counters.rx_pkts == 1
    assert hosts["b"].counters.rx_bytes == 500


def test_delivery_dropped_by_the_filter_counts_no_rx():
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 1.0, 100.0)])
    net.delivery_filter = lambda now, src, dst, msg: None
    net.send("a", "b", 500, IpRequest("a", "b", 0, "c", "r"))
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
    assert not net.active()


def test_ip_routing_multi_hop():
    net, hosts = build_chain(
        [("a", 0), ("b", 0), ("c", 0)],
        [("a", "b", 5.0, 100.0), ("b", "c", 7.0, 100.0)])
    assert net.next_hop("a", "c") == "b"
    assert net.shortest_latency("a", "c") == 12.0
    deliveries = []
    net.delivery_filter = lambda now, src, dst, msg: (deliveries.append((dst, now)), msg)[1]
    hosts["a"].send_ip(IpRequest("a", "c", 0, "x", "r"), 512)
    net.run_to_completion()
    # Store-and-forward: serialization paid on each hop.
    ser = 512 * 8.0 / (100.0 * 1000.0)
    assert deliveries[-1] == ("c", pytest.approx(2 * ser + 12.0))


def test_route_cache_invalidated_on_topology_change():
    net, hosts = build_chain(
        [("a", 0), ("b", 0), ("c", 0)],
        [("a", "b", 5.0, 100.0), ("b", "c", 7.0, 100.0)])
    assert net.next_hop("a", "c") == "b"
    net.remove_link("b", "c")
    assert net.next_hop("a", "c") is None
    assert net.shortest_latency("a", "c") == float("inf")


def test_wire_interest_without_forwarder_drops():
    net = Network()
    a = Host(net, "a")
    b = Host(net, "b")
    net.add_host(a)
    net.add_host(b)
    net.add_link("a", "b", 1.0, 100.0)
    net.send("a", "b", 60, Interest(Name.parse("/x"), 1))
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
    net = Network()
    log = []
    for nid in NODES:
        h = _Sink(net, nid)
        h.log = log
        net.add_host(h)
    for (a, b), (lat, mbps) in zip(PAIRS, links):
        net.add_link(a, b, lat, mbps)
    if drop_every_other:
        calls = []
        net.delivery_filter = lambda now, src, dst, msg: (
            calls.append(msg), None if len(calls) % 2 == 0 else msg)[1]

    def run_op(t, i):
        op = ops[i]
        if op[0] == "send":
            _, src, dst, nbytes, _t = op
            if src in net.hosts:
                net.send(src, dst, nbytes, i)
        elif op[0] == "toggle":
            (a, b), (lat, mbps) = PAIRS[op[1]], links[op[1]]
            if a in net.hosts and b in net.hosts:
                if net.has_link(a, b):
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
