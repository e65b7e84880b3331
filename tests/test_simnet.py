import pytest

from icnsim.forwarder import Forwarder
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


def test_run_until_leaves_future_events():
    net = Network()
    log = []
    net.schedule(1.0, lambda t: log.append(1))
    net.schedule(10.0, lambda t: log.append(10))
    assert net.run_until(5.0) == 5.0
    assert log == [1]
    net.run_to_completion()
    assert log == [1, 10]


def test_send_delivery_formula():
    # 8192 bytes over 100 Mbps, 50 ms idle link: 0.65536 ms + 50 ms.
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 50.0, 100.0)])
    seen = []
    net.delivery_filter = lambda now, src, dst, msg: (seen.append(now), msg)[1]
    net.send("a", "b", 8192, IpRequest("a", "b", 0, "c", "r", None))
    net.run_to_completion()
    assert seen == [pytest.approx(50.65536, abs=1e-12)]


def test_fifo_serialization_quantum():
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 50.0, 100.0)])
    seen = []
    net.delivery_filter = lambda now, src, dst, msg: (seen.append(now), msg)[1]
    net.send("a", "b", 8192, IpRequest("a", "b", 0, "c", "r", None))
    net.send("a", "b", 8192, IpRequest("a", "b", 1, "c", "r", None))
    net.run_to_completion()
    # Queueing by hand: the second transmission starts when the first ends.
    assert seen[0] == pytest.approx(50.65536)
    assert seen[1] == pytest.approx(51.31072)
    assert seen[1] - seen[0] == pytest.approx(0.65536)


def test_directions_do_not_share_serialization():
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 10.0, 100.0)])
    seen = []
    net.delivery_filter = lambda now, src, dst, msg: (seen.append((dst, now)), msg)[1]
    net.send("a", "b", 8192, IpRequest("a", "b", 0, "c", "r", None))
    net.send("b", "a", 8192, IpRequest("b", "a", 1, "c", "r", None))
    net.run_to_completion()
    assert seen[0][1] == seen[1][1] == pytest.approx(10.65536)


def test_missing_link_counts_drop_and_schedules_nothing():
    net, hosts = build_chain([("a", 0), ("b", 0)], [])
    ok = net.send("a", "b", 100, IpRequest("a", "b", 0, "c", "r", None))
    assert not ok
    assert hosts["a"].counters.drops["no-route"] == 1
    assert net.run_to_completion() == 0.0


def test_tx_rx_counters():
    net, hosts = build_chain([("a", 0), ("b", 0)], [("a", "b", 1.0, 100.0)])
    net.send("a", "b", 500, IpRequest("a", "b", 0, "c", "r", None))
    net.run_to_completion()
    assert hosts["a"].counters.tx_pkts == 1
    assert hosts["a"].counters.tx_bytes == 500
    assert hosts["b"].counters.rx_pkts == 1
    assert hosts["b"].counters.rx_bytes == 500


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


def test_trace_digest_replay_identical():
    def run():
        net = Network(trace=True)
        hosts = {}
        for nid in ("a", "b"):
            h = Host(net, nid, fwd=Forwarder(0))
            net.add_host(h)
            hosts[nid] = h
        net.add_link("a", "b", 3.0, 100.0)
        for i in range(5):
            net.schedule(float(i), lambda t, i=i: net.send(
                "a", "b", 100 + i, IpRequest("a", "b", i, "c", "r", None)))
        net.run_to_completion()
        return net.trace_digest()

    assert run() == run()


def test_ip_routing_multi_hop():
    net, hosts = build_chain(
        [("a", 0), ("b", 0), ("c", 0)],
        [("a", "b", 5.0, 100.0), ("b", "c", 7.0, 100.0)])
    assert net.next_hop("a", "c") == "b"
    assert net.shortest_latency("a", "c") == 12.0
    deliveries = []
    net.delivery_filter = lambda now, src, dst, msg: (deliveries.append((dst, now)), msg)[1]
    hosts["a"].send_ip(IpRequest("a", "c", 0, "x", "r", None), 512)
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
