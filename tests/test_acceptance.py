"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1, 3, 4, 7 and 9 share a single full run of the reference
scenario (3000 requests split 1000 per region over one 2 MB content).
"""

import csv
import hashlib
import itertools
import random
import statistics
import time
from pathlib import Path

import pytest

from icnsim.forwarder import Forwarder
from icnsim.harness import publish_bench, run_scenario
from icnsim.metrics import region_stats
from icnsim.ndn import Data, Interest, Name, chunk_content, make_data
from icnsim.orchestration import (DomainSpec, Flavor, Orchestrator, QuotaExceeded,
                                  SliceSpec, VnfSpec)
from icnsim.simnet import Network, Population, WireData

from conftest import REFERENCE, assert_timeseries_adds_up, build_chain, quota_snapshot
from ndn_codec import encode_packet

NDN_ROLES = ("ndn-node", "ndn-gateway")
CDN_ROLES = ("cache", "streamer", "transcoder")


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference-out")
    t0 = time.monotonic()
    run = run_scenario(REFERENCE, out)
    wall = time.monotonic() - t0
    return run, wall, out


def _passed(n, text):
    print("ACCEPTANCE %d PASS: %s" % (n, text))


def test_criterion_1_origin_once(reference_run):
    run, wall, _out = reference_run
    assert run.origin_fetch_total() == 1
    ndn_tx = {n: h.counters.tx_bytes for n, h in run.hosts.items()
              if h.role in NDN_ROLES}
    cdn_tx = {n: h.counters.tx_bytes for n, h in run.hosts.items()
              if h.role in CDN_ROLES}
    max_ndn = max(ndn_tx.values())
    for node, tx in cdn_tx.items():
        assert tx < 0.01 * max_ndn, (node, tx, max_ndn)
    assert len(run.records) == 3000
    assert wall < 60.0, "reference run took %.1f s" % wall
    _passed(1, "origin_fetches=1, CDN tx %.3f%% of max NDN tx, %.1f s runtime"
            % (100.0 * max(cdn_tx.values()) / max_ndn, wall))


def test_criterion_2_aggregation_exhaustive():
    t0 = time.monotonic()
    name = Name.parse("/v/seg=0")
    for k in range(2, 65):
        f = Forwarder(1 << 20)
        upstream = 1000
        f.register_face(upstream)
        f.fib_insert(Name.parse("/v"), [(upstream, 1)])
        upstream_sends = 0
        for i in range(k):
            f.register_face(i)
            for _face, p in f.on_interest(0.0, i, Interest(name, nonce=i + 1)):
                upstream_sends += type(p) is Interest
        assert upstream_sends == 1, k
        acts = f.on_data(1.0, upstream, make_data(name, b"p", 10_000, 0))
        downstream = [face for face, p in acts if type(p) is Data]
        assert len(downstream) == k and len(set(downstream)) == k
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _passed(2, "k=2..64 bursts: 1 upstream interest, k data sends (%.2f s)" % elapsed)


def test_criterion_3_delivery_time_decay(reference_run):
    run, _wall, _out = reference_run
    stats = region_stats(run.records)
    assert set(stats) == {"JP", "EU", "US"}
    for region, st in sorted(stats.items()):
        first, last = st["first_decile_mean_ms"], st["last_decile_mean_ms"]
        assert last < first, region
        assert last <= 0.8 * first, (region, first, last)
    _passed(3, "last-decile mean below 0.8x first-decile mean in every region: "
            + ", ".join("%s %.0f->%.0f ms" % (r, s["first_decile_mean_ms"],
                                              s["last_decile_mean_ms"])
                        for r, s in sorted(stats.items())))


def test_criterion_4_locality_beats_origin_proximity(reference_run):
    run, _wall, _out = reference_run
    # Precondition from the reference latency config: JP users sit closer
    # to ndn-JP than EU users sit to ndn-EU.
    lat = {(l.a, l.b): l.latency_ms for l in run.scenario.links}
    jp_access = lat[("consumer-jp", "ndn-jp")]
    eu_access = lat[("consumer-eu", "ndn-eu")]
    assert jp_access < eu_access
    stats = region_stats(run.records)
    jp_steady = stats["JP"]["last_decile_mean_ms"]
    eu_steady = stats["EU"]["last_decile_mean_ms"]
    assert jp_steady < eu_steady, (jp_steady, eu_steady)
    _passed(4, "steady-state JP %.1f ms < EU %.1f ms despite the CDN in EU"
            % (jp_steady, eu_steady))


def test_criterion_5_publish_time_linearity(tmp_path):
    rows = publish_bench(REFERENCE, [1, 2, 4, 8], tmp_path / "bench")
    sizes = [r[0] for r in rows]
    times = [r[1] for r in rows]
    assert sizes == [1 * 2**20, 2 * 2**20, 4 * 2**20, 8 * 2**20]
    assert all(a < b for a, b in zip(times, times[1:])), times
    r2 = statistics.correlation(sizes, times) ** 2
    assert r2 >= 0.99, r2
    csv_path = tmp_path / "bench" / "publish.csv"
    assert csv_path.exists()
    _passed(5, "publish_ms strictly increasing over 1,2,4,8 MiB, R^2=%.6f" % r2)


def test_criterion_6_analytic_oracle_equivalence():
    # Two-node chain: consumer host plus a caching node.
    content = Name.parse("/x/clip/hd")
    for lats, mbps in (((7.0,), 100.0), ((4.0, 9.0), 250.0)):
        specs = [("n%d" % i, 0) for i in range(len(lats))] + [("cache", 1 << 20)]
        ids = [s[0] for s in specs]
        links = [(ids[i], ids[i + 1], lats[i], mbps) for i in range(len(lats))]
        net, hosts = build_chain(specs, links)
        payload = b"p" * 1200
        for d in chunk_content(content, payload, 8192, 10_000_000):
            hosts["cache"].fwd.cs.insert(0.0, d)
        for i in range(len(lats)):
            nxt_face = hosts[ids[i]].face_by_peer[ids[i + 1]]
            hosts[ids[i]].fwd.fib_insert(Name.parse("/x"), [(nxt_face, 1)])
        records = []
        pop = Population(net, hosts[ids[0]], "T", content, "hd", 1, 1,
                         ("uniform", 0.0), 4500.0, random.Random(3), records,
                         itertools.count(0))
        pop.start()
        net.run_to_completion()
        seg = content.segment(0)
        ser_i = len(encode_packet(Interest(seg, 0))) * 8.0 / (mbps * 1000.0)
        ser_d = len(encode_packet(make_data(seg, payload, 10_000_000, 0))) * 8.0 / (mbps * 1000.0)
        hops = len(lats)
        expected = hops * ser_i + hops * ser_d + 2 * sum(lats)
        assert abs(records[0].delivery_ms - expected) <= 1e-9, (lats, records[0])
    # FIB longest-prefix match equals a brute-force scan on 1000 instances.
    rng = random.Random(555)
    alphabet = [b"a", b"b", b"c", b"d"]
    for _ in range(1000):
        f = Forwarder(0)
        f.register_face(1)
        prefixes = {Name(tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 5))))
                    for _ in range(rng.randrange(1, 10))}
        for p in prefixes:
            f.fib_insert(p, [(1, 1)])
        name = Name(tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 6))))
        want = None
        for p in prefixes:
            if p.is_prefix_of(name) and (want is None or len(p) > len(want)):
                want = p
        got = f.fib_longest_prefix_match(name)
        assert (got.prefix if got else None) == want
    _passed(6, "chain delivery within 1e-9 ms of closed form; LPM matches "
            "brute force on 1000 instances")


def test_criterion_7_conservation_and_integrity(reference_run):
    run, _wall, _out = reference_run
    size = run.scenario.contents[0].size_bytes
    ok = [r for r in run.records if r.status == "ok"]
    assert len(ok) == 3000
    assert all(r.bytes_received == size for r in ok)
    assert_timeseries_adds_up(run)
    # Injected single-byte corruption: integrity drop plus retransmission,
    # never a corrupted delivery.
    content = Name.parse("/x/clip/hd")
    net, hosts = build_chain(
        [("a", 0), ("b", 0), ("c", 1 << 20)],
        [("a", "b", 3.0, 100.0), ("b", "c", 4.0, 100.0)])
    payload = b"v" * 2048
    for d in chunk_content(content, payload, 8192, 10_000_000):
        hosts["c"].fwd.cs.insert(0.0, d)
    hosts["a"].fwd.fib_insert(Name.parse("/x"), [(0, 1)])
    hosts["b"].fwd.fib_insert(Name.parse("/x"), [(1, 1)])
    fired = []

    def corrupt_once(now, src, dst, msg):
        if not fired and dst == "b" and isinstance(msg, WireData):
            fired.append(now)
            bad = bytearray(msg.data.payload)
            bad[0] ^= 0xFF
            return WireData(type(msg.data)(msg.data.name, bytes(bad),
                                           msg.data.digest, msg.data.freshness_ms,
                                           msg.data.final_segment), msg.served_by)
        return msg

    net.delivery_filter = corrupt_once
    records = []
    pop = Population(net, hosts["a"], "T", content, "hd", 1, 1,
                     ("uniform", 0.0), 4500.0, random.Random(5), records,
                     itertools.count(0))
    pop.start()
    net.run_to_completion()
    assert fired and hosts["b"].counters.drops["integrity"] == 1
    assert records[0].status == "ok" and records[0].attempts >= 2
    assert records[0].bytes_received == len(payload)
    _passed(7, "3000/3000 requests reassembled %d bytes; corruption dropped "
            "and recovered by retransmission" % size)


def test_criterion_8_determinism(tmp_path):
    sets = ["populations.0.request_count=20", "populations.1.request_count=20",
            "populations.2.request_count=20"]
    hashes = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        run_scenario(REFERENCE, out, sets)
        h = hashlib.sha256()
        for p in sorted(Path(out).iterdir()):
            h.update(p.name.encode())
            h.update(p.read_bytes())
        hashes.append(h.hexdigest())
    assert hashes[0] == hashes[1]
    _passed(8, "equal seeds give byte-identical CSV trees (%s)" % hashes[0][:12])


def test_criterion_9_resource_model(reference_run):
    run, _wall, out = reference_run
    vcpus = {}
    for op in run.scenario.northbound:
        if op["op"].startswith("create_"):
            for v in op["spec"].vnfs:
                vcpus[v.node] = v.flavor.vcpus
    assert vcpus["ndn-us"] == 1
    four_cpu = [n for n, c in vcpus.items() if c == 4]
    assert set(four_cpu) >= {"ndn-jp", "ndn-eu", "ndn-gw", "cdn"}
    above = {n: 0.0 for n in vcpus}
    with open(out / "timeseries.csv") as fh:
        rows = list(csv.DictReader(fh))
    buckets = {}
    for r in rows:
        buckets.setdefault(r["node"], []).append(
            (float(r["t_bucket_ms"]), float(r["cpu_util"])))
    width = run.scenario.knobs.bucket_ms
    for node, bs in buckets.items():
        if node in above:
            above[node] = sum(width for _t, u in bs if u > 0.5)
    us = above["ndn-us"]
    assert us > 0
    for node in four_cpu:
        assert us > above[node], (node, above[node], us)
    _passed(9, "ndn-us above 50%% cpu for %.0f ms; every 4-vcpu node: %s"
            % (us, ", ".join("%s %.0f" % (n, above[n]) for n in sorted(four_cpu))))


def test_criterion_10_quota_conservation():
    rng = random.Random(4242)
    net = Network()
    domains = [DomainSpec("d%d" % i, "", Flavor(64, 65536, 1000)) for i in range(3)]
    orch = Orchestrator(net, domains)
    initial = quota_snapshot(orch)
    live = []
    counter = 0
    for _ in range(10_000):
        if rng.random() < 0.55 or not live:
            vnfs = []
            for _ in range(rng.randrange(1, 3)):
                counter += 1
                vnfs.append(VnfSpec("ndn-node", rng.choice(domains).name,
                                    Flavor(rng.randrange(1, 20),
                                           rng.randrange(1, 20000),
                                           rng.randrange(1, 300)),
                                    "q%d" % counter))
            try:
                live.append(orch.create_slice(SliceSpec("ICN", 1e12, vnfs)))
            except QuotaExceeded:
                pass
        else:
            orch.destroy_slice(live.pop(rng.randrange(len(live))))
        assert quota_snapshot(orch) == initial
    _passed(10, "quota ledger exact over 10000 random create/destroy ops")


# SHA-256 of each reference output file. A change that alters one changes
# simulation output and must say which bytes changed and why.
REFERENCE_DIGESTS = {
    "requests.csv": "321ada8efca155cba45b0e5d5eed20fead73b0281b9e8b4aaf2a91564d1ef34c",
    "node_counters.csv": "9641d22bddf54ba4be6c9c6a304cb19bced1f771ac6e6541ab3a3e1140307afa",
    "timeseries.csv": "bb5231dda53aded7774ffaa9e97922b3f66975e0d8320b55f077d0f413e983c6",
    "summary.txt": "9ad9015d3fa113afc6b84c51181ed69777f95f4aecae467dc85edcee77e6c85a",
}


def test_reference_output_digests(reference_run):
    _run, _wall, out = reference_run
    got = {name: hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
           for name in REFERENCE_DIGESTS}
    assert got == REFERENCE_DIGESTS
