import dataclasses
import random

import pytest

from icnsim.forwarder import Forwarder
from icnsim.gateway import Gateway
from icnsim.harness import run_scenario
from icnsim.ndn import Name
from icnsim.orchestration import (DomainSpec, Flavor, Orchestrator,
                                  QuotaExceeded, SliceSpec, UnknownSlice, Vim,
                                  VnfSpec)
from icnsim.simnet import Network

from conftest import MINI, quota_snapshot

EU = DomainSpec("openstack-eu", "EU", Flavor(16, 32768, 500))
JP = DomainSpec("openstack-jp", "JP", Flavor(8, 16384, 100))
US = DomainSpec("aws-us", "US", Flavor(4, 4096, 50))


def table1_icn_spec(duration=60_000.0):
    return SliceSpec("ICN", duration, [
        VnfSpec("ndn-node", "openstack-jp", Flavor(4, 8192, 54), "ndn-jp"),
        VnfSpec("ndn-node", "openstack-eu", Flavor(4, 4096, 20), "ndn-eu"),
        VnfSpec("ndn-node", "aws-us", Flavor(1, 2048, 8), "ndn-us"),
        VnfSpec("ndn-gateway", "openstack-eu", Flavor(4, 4096, 20), "ndn-gw"),
    ], links=[
        ("ndn-gw", "ndn-jp", 130.0, 1000.0),
        ("ndn-gw", "ndn-eu", 5.0, 1000.0),
        ("ndn-gw", "ndn-us", 90.0, 1000.0),
    ])


def cdn_spec():
    return SliceSpec("CDN", 60_000.0, [
        VnfSpec("cache", "openstack-eu", Flavor(4, 4096, 120), "cdn"),
    ])


def make_orch(domains=(EU, JP, US)):
    net = Network()
    return net, Orchestrator(net, list(domains))


# -- VIM quota accounting ---------------------------------------------------------


def test_vim_componentwise_subtraction():
    vim = Vim(DomainSpec("d", "", Flavor(8, 16384, 200)))
    a1 = vim.allocate(Flavor(4, 8192, 54))
    a2 = vim.allocate(Flavor(4, 8192, 54))
    assert vim.remaining == [0, 0, 92]
    with pytest.raises(QuotaExceeded):
        vim.allocate(Flavor(1, 1, 1))
    vim.release(a1)
    vim.release(a2)
    assert vim.remaining == [8, 16384, 200]


def test_vim_release_is_exact_inverse():
    vim = Vim(DomainSpec("d", "", Flavor(7, 1000, 33)))
    before = list(vim.remaining)
    a = vim.allocate(Flavor(3, 999, 32))
    vim.release(a)
    assert vim.remaining == before
    with pytest.raises(ValueError):
        vim.release(a)


def test_quota_exceeded_names_domain():
    vim = Vim(DomainSpec("tokyo", "", Flavor(1, 1, 1)))
    with pytest.raises(QuotaExceeded) as e:
        vim.allocate(Flavor(2, 1, 1))
    assert e.value.domain == "tokyo"


# -- slice lifecycle ------------------------------------------------------------


def test_table1_slice_fits_default_quotas():
    net, orch = make_orch()
    sid = orch.create_slice(table1_icn_spec())
    assert sid == 0
    assert set(net.hosts) == {"ndn-jp", "ndn-eu", "ndn-us", "ndn-gw"}
    assert net.has_link("ndn-gw", "ndn-jp")
    assert all(type(net.hosts[n].fwd) is Forwarder for n in net.hosts)


def test_create_slice_atomic_rollback():
    net, orch = make_orch([DomainSpec("small", "", Flavor(6, 32768, 500))])
    spec = SliceSpec("ICN", 1000.0, [
        VnfSpec("ndn-node", "small", Flavor(4, 1024, 10), "n1"),
        VnfSpec("ndn-node", "small", Flavor(4, 1024, 10), "n2"),
    ])
    with pytest.raises(QuotaExceeded):
        orch.create_slice(spec)
    assert orch.vims["small"].remaining == [6, 32768, 500]
    assert not net.hosts
    assert not orch.slices


def test_empty_and_invalid_slices_rejected():
    net, orch = make_orch()
    with pytest.raises(ValueError):
        orch.create_slice(SliceSpec("ICN", 1.0, []))
    with pytest.raises(ValueError):
        orch.create_slice(SliceSpec("ICN", 1.0, [
            VnfSpec("ndn-gateway", "openstack-eu", Flavor(1, 1, 1), "g")]))
    with pytest.raises(ValueError):
        orch.create_slice(SliceSpec("CDN", 1.0, [
            VnfSpec("streamer", "openstack-eu", Flavor(1, 1, 1), "s")]))


def test_slice_ids_monotone():
    net, orch = make_orch()
    a = orch.create_slice(cdn_spec())
    orch.destroy_slice(a)
    b = orch.create_slice(SliceSpec("CDN", 60_000.0, [
        VnfSpec("cache", "openstack-eu", Flavor(4, 4096, 120), "cdn-2"),
    ]))
    assert b == a + 1


def test_destroyed_slice_node_ids_stay_taken():
    net, orch = make_orch()
    sid = orch.create_slice(cdn_spec())
    old = net.all_hosts["cdn"]
    orch.destroy_slice(sid)
    before = quota_snapshot(orch)
    remaining = list(orch.vims["openstack-eu"].remaining)
    with pytest.raises(ValueError):
        orch.create_slice(cdn_spec())
    assert quota_snapshot(orch) == before
    assert orch.vims["openstack-eu"].remaining == remaining
    assert net.all_hosts["cdn"] is old


def test_destroy_restores_quota_and_removes_nodes():
    net, orch = make_orch()
    before = quota_snapshot(orch)
    sid = orch.create_slice(table1_icn_spec())
    orch.destroy_slice(sid)
    assert quota_snapshot(orch) == before
    assert orch.vims["openstack-jp"].remaining == [8, 16384, 100]
    assert not net.hosts
    with pytest.raises(UnknownSlice):
        orch.destroy_slice(sid)


def test_interests_after_expiry_drop_no_route():
    # mini's ICN slice (northbound.2) ends at 30 ms; requests go out every 10 ms.
    run = run_scenario(MINI, None, ["northbound.2.duration_ms=30"])
    status = {r.t_issue_ms: r.status for r in run.records}
    assert status == {0.0: "ok", 10.0: "ok", 20.0: "ok",
                      30.0: "failed", 40.0: "failed", 50.0: "failed"}
    assert "edge" not in run.net.hosts


def test_expiry_drops_traffic_toward_removed_nodes(rng):
    net, orch = make_orch()
    sid = orch.create_slice(table1_icn_spec())
    from icnsim.forwarder import Forwarder
    from icnsim.simnet import Host
    from icnsim.ndn import Interest
    edge = Host(net, "edge", fwd=Forwarder(0))
    net.add_host(edge)
    net.add_link("edge", "ndn-jp", 1.0, 100.0)
    orch.destroy_slice(sid)
    ok = net.send("edge", "ndn-jp", 100, Interest(Name.parse("/x"), 1))
    assert not ok
    assert edge.counters.drops["no-route"] == 1


# -- linking ----------------------------------------------------------------------


def linked_world(w=1.0, demand=()):
    net, orch = make_orch()
    cdn = orch.create_slice(cdn_spec())
    icn = orch.create_slice(table1_icn_spec())
    net.add_link("cdn", "ndn-gw", 5.0, 100.0)
    orch.upload(cdn, "v42", b"z" * 1000, "1080p")
    gw = orch.link_slices(cdn, icn, w, list(demand), Name.parse("/cdn"))
    return net, orch, cdn, icn, gw


def test_link_selects_node_nearest_cache_with_w1():
    # Shortest latencies to the cache: gw 5, eu 10, us 95, jp 135.
    net, orch, cdn, icn, gw = linked_world(w=1.0)
    assert gw == "ndn-gw"
    assert orch.slices[icn].gateway_node == "ndn-gw"


def test_link_gives_the_gateway_role_to_the_selected_node_only():
    net, orch = make_orch()
    cdn = orch.create_slice(cdn_spec())
    icn = orch.create_slice(table1_icn_spec())
    net.add_link("cdn", "ndn-gw", 5.0, 100.0)
    orch.upload(cdn, "v42", b"z" * 1000, "1080p")
    before = net.hosts["ndn-gw"].fwd
    gw = orch.link_slices(cdn, icn, 1.0, [], Name.parse("/cdn"))
    host = net.hosts[gw]
    assert type(host.fwd) is Gateway and host.fwd is not before
    # The gateway keeps the node's faces, tables and counters.
    for attr in ("faces", "cs", "pit", "_fib", "counters"):
        assert getattr(host.fwd, attr) is getattr(before, attr), attr
    assert host.counters is host.fwd.counters
    others = [n for n in net.hosts if n.startswith("ndn-") and n != gw]
    assert others and all(type(net.hosts[n].fwd) is Forwarder for n in others)
    # A second link keeps the gateway it gave.
    assert orch.link_slices(cdn, icn, 1.0, [], Name.parse("/cdn")) == gw
    assert net.hosts[gw].fwd is host.fwd


def test_link_installs_routes_on_every_ndn_node():
    net, orch, cdn, icn, gw = linked_world()
    prefix = Name.parse("/cdn")
    for node in ("ndn-jp", "ndn-eu", "ndn-us"):
        host = net.hosts[node]
        e = host.fwd.fib_longest_prefix_match(Name.parse("/cdn/v42/1080p/seg=0"))
        assert e is not None and e.prefix == prefix
        face, cost = e.next_hops[0]
        assert host.faces[face] == "ndn-gw"
    # Graph closure: following FIB next hops reaches the gateway.
    for node in ("ndn-jp", "ndn-eu", "ndn-us"):
        cur = node
        for _ in range(5):
            host = net.hosts[cur]
            e = host.fwd.fib_longest_prefix_match(Name.parse("/cdn/v42/1080p/seg=0"))
            if e is None:
                break
            cur = host.faces[e.next_hops[0][0]]
            if cur == gw:
                break
        assert cur == gw


def test_link_configures_prefix_map_from_catalog():
    net, orch, cdn, icn, gw = linked_world()
    gwf = net.hosts[gw].fwd
    assert gwf.origin_ref.node == "cdn"
    assert gwf.origin_ref.prefix_map == {
        Name.parse("/cdn/v42/1080p"): ("v42", "1080p")}


def test_upload_after_link_extends_prefix_map():
    net, orch, cdn, icn, gw = linked_world()
    orch.upload(cdn, "v7", b"q" * 10, "480p")
    assert net.hosts[gw].fwd.origin_ref.prefix_map == {
        Name.parse("/cdn/v42/1080p"): ("v42", "1080p"),
        Name.parse("/cdn/v7/480p"): ("v7", "480p")}


def test_relink_is_idempotent():
    net, orch, cdn, icn, gw = linked_world()
    gw2 = orch.link_slices(cdn, icn, 1.0, [], Name.parse("/cdn"))
    assert gw2 == gw


def test_link_unknown_slice():
    net, orch, cdn, icn, gw = linked_world()
    with pytest.raises(UnknownSlice):
        orch.link_slices(cdn, 99, 0.5, [], Name.parse("/cdn"))


def test_demand_weight_moves_gateway():
    net, orch = make_orch()
    cdn = orch.create_slice(cdn_spec())
    icn = orch.create_slice(table1_icn_spec())
    net.add_link("cdn", "ndn-gw", 5.0, 100.0)
    orch.upload(cdn, "v42", b"z", "1080p")
    gw = orch.link_slices(cdn, icn, 0.0, [("ndn-jp", 100)], Name.parse("/cdn"))
    assert gw == "ndn-jp"  # all demand sits on ndn-jp and w ignores the cache


def test_transcode_charges_cache_host_when_no_transcoder():
    net, orch = make_orch()
    cdn = orch.create_slice(cdn_spec())
    orch.upload(cdn, "v", b"y" * 2_000_000, "hd")
    from icnsim.origin import ResolutionProfile
    orch.transcode(cdn, "v", ResolutionProfile("sd", 0.5))
    assert net.hosts["cdn"].busy_ms_total == pytest.approx(100.0)


# -- scaling -----------------------------------------------------------------------


def test_scale_check_threshold_rule():
    net, orch = make_orch()
    sid = orch.create_slice(table1_icn_spec())
    inst = orch.slices[sid].instances[0]
    assert orch.scale_check(sid, 10_000.0) is None  # 0 utilization
    inst.host.charge_ms(8100.0)
    assert orch.scale_check(sid, 20_000.0) is inst
    inst.host.charge_ms(5000.0)  # 0.5 over the next window
    assert orch.scale_check(sid, 30_000.0) is None


def test_scale_out_adds_instance_and_equal_cost_hop():
    net, orch = make_orch()
    cdn = orch.create_slice(cdn_spec())
    icn = orch.create_slice(table1_icn_spec())
    net.add_link("cdn", "ndn-gw", 5.0, 100.0)
    orch.upload(cdn, "v42", b"z", "1080p")
    orch.link_slices(cdn, icn, 1.0, [], Name.parse("/cdn"))
    target = next(i for i in orch.slices[icn].instances if i.host.id == "ndn-eu")
    target.host.charge_ms(9000.0)
    assert orch.scale_check(icn, 10_000.0) is target
    inst = orch.handle_scale(icn, target)
    assert inst is not None and inst.host.id == "ndn-eu-s1"
    assert "ndn-eu-s1" in net.hosts
    assert net.has_link("ndn-eu-s1", "ndn-gw")
    # The clone inherited the content route.
    e = net.hosts["ndn-eu-s1"].fwd.fib_longest_prefix_match(Name.parse("/cdn/x/seg=0"))
    assert e is not None


def test_scale_denied_on_quota_is_logged_not_raised():
    net, orch = make_orch([DomainSpec("tight", "", Flavor(2, 2048, 20))])
    sid = orch.create_slice(SliceSpec("ICN", 1000.0, [
        VnfSpec("ndn-node", "tight", Flavor(2, 2048, 20), "n1")]))
    inst = orch.slices[sid].instances[0]
    inst.host.charge_ms(9999.0)
    assert orch.scale_check(sid, 10_000.0) is inst
    assert orch.handle_scale(sid, inst) is None
    assert any("scale denied" in line for line in orch.log)
    assert len(orch.slices[sid].instances) == 1


def test_scale_check_tells_apart_instances_with_equal_allocation_ids():
    # Each VIM numbers its allocations from 0, so both instances hold
    # allocation 0; only the second one is loaded.
    net, orch = make_orch()
    sid = orch.create_slice(SliceSpec("ICN", 1000.0, [
        VnfSpec("ndn-node", "openstack-eu", Flavor(1, 1024, 10), "n-eu"),
        VnfSpec("ndn-node", "openstack-jp", Flavor(1, 1024, 10), "n-jp")]))
    first, second = orch.slices[sid].instances
    assert first.allocation.id == second.allocation.id == 0
    assert orch.scale_check(sid, 10_000.0) is None
    second.host.charge_ms(9000.0)
    assert orch.scale_check(sid, 20_000.0) is second


def test_scale_out_clone_copies_the_whole_spec():
    net, orch = make_orch()
    sid = orch.create_slice(SliceSpec("ICN", 1000.0, [
        VnfSpec("ndn-node", "openstack-eu", Flavor(2, 2048, 20), "n1", cs_capacity_bytes=1024)]))
    original = orch.slices[sid].instances[0]
    clone = orch.handle_scale(sid, original)
    assert clone.spec == dataclasses.replace(original.spec, node="n1-s1")
    assert clone.host.fwd.cs.capacity == 1024


def test_scale_out_skips_a_taken_clone_name():
    net, orch = make_orch()
    sid = orch.create_slice(SliceSpec("ICN", 1000.0, [
        VnfSpec("ndn-node", "openstack-eu", Flavor(2, 2048, 20), "n1")]))
    orch.create_slice(SliceSpec("ICN", 1000.0, [
        VnfSpec("ndn-node", "openstack-jp", Flavor(2, 2048, 20), "n1-s1")]))
    original = orch.slices[sid].instances[0]
    clone = orch.handle_scale(sid, original)
    assert clone.host.id == "n1-s2" and "n1-s2" in net.hosts
    for name, vim in orch.vims.items():
        held = [i for st in orch.slices.values() for i in st.instances
                if i.allocation.domain == name]
        assert len(vim.live) == len(held)


# -- quota conservation property ------------------------------------------------------


def test_quota_conservation_random_ops():
    rng = random.Random(77)
    net, orch = make_orch()
    initial = quota_snapshot(orch)
    live = []
    counter = 0
    domains = ["openstack-eu", "openstack-jp", "aws-us"]
    for _ in range(10_000):
        action = rng.random()
        if action < 0.55 or not live:
            vnfs = []
            for _ in range(rng.randrange(1, 3)):
                counter += 1
                vnfs.append(VnfSpec("ndn-node", rng.choice(domains),
                                    Flavor(rng.randrange(1, 6),
                                           rng.randrange(1, 4096),
                                           rng.randrange(1, 40)),
                                    "node-%d" % counter))
            try:
                live.append(orch.create_slice(SliceSpec("ICN", 1e9, vnfs)))
            except QuotaExceeded:
                pass
        else:
            orch.destroy_slice(live.pop(rng.randrange(len(live))))
        assert quota_snapshot(orch) == initial
    for sid in live:
        orch.destroy_slice(sid)
    assert quota_snapshot(orch) == initial
    for vim in orch.vims.values():
        assert not vim.live
