import dataclasses
import gc
import json
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from icnsim import forwarder, harness, ndn, origin, simnet
from icnsim.harness import build_and_run, publish_bench, run_scenario
from icnsim.ndn import Name
from icnsim.origin import synthesize_payload
from icnsim.scenario import ScenarioError, load_scenario
from icnsim.simnet import IpResponse

from conftest import MINI, assert_timeseries_adds_up, filter_deliveries


def load_mini_doc():
    return json.loads(MINI.read_text())


def run_doc(doc, tmp_path, name="case.json", sets=()):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return run_scenario(p, None, list(sets))


def test_mini_records_single_publish():
    run = run_scenario(MINI)
    assert len(run.publishes) == 1
    cid, res, size, ms = run.publishes[0]
    assert (cid, res, size) == ("clip", "720p", 16384)
    assert ms > 0


def test_served_by_transitions_from_gateway_to_edge():
    run = run_scenario(MINI)
    servers = [r.served_by for r in sorted(run.records, key=lambda r: r.request_id)]
    assert servers[0] == "gw"
    assert servers[-1] == "edge"


def test_destroyed_slice_fails_requests(tmp_path):
    doc = load_mini_doc()
    doc["northbound"].append({"op": "destroy", "slice": "i1"})
    run = run_doc(doc, tmp_path)
    assert len(run.records) == 6
    assert all(r.status == "failed" for r in run.records)
    assert run.hosts["client"].counters.drops["no-route"] > 0


def test_poisson_pattern_runs_and_replays(tmp_path):
    doc = load_mini_doc()
    doc["populations"][0]["pattern"] = {"kind": "poisson", "rate_per_s": 200}
    a = run_doc(doc, tmp_path, "a.json")
    b = run_doc(doc, tmp_path, "b.json")
    assert [r.t_issue_ms for r in a.records] == [r.t_issue_ms for r in b.records]
    issues = sorted(r.t_issue_ms for r in a.records)
    assert len(set(issues)) == len(issues)  # exponential gaps, not a grid


def test_only_uniform_populations_start_at_zero(tmp_path):
    doc = load_mini_doc()
    assert min(r.t_issue_ms for r in run_doc(doc, tmp_path, "u.json").records) == 0.0
    doc["populations"][0]["pattern"] = {"kind": "poisson", "rate_per_s": 200}
    assert min(r.t_issue_ms for r in run_doc(doc, tmp_path, "p.json").records) > 0.0


@pytest.mark.parametrize("mode", ["icn", "cdn-only"])
def test_timeseries_keeps_bucket_of_removed_hosts(mode):
    # The ICN slice expires at 40 ms, within the first bucket.
    run = run_scenario(MINI, None, ["mode=%s" % mode, "northbound.2.duration_ms=40"])
    assert "edge" not in run.net.hosts
    assert run.hosts["edge"].counters.rx_bytes > 0
    assert_timeseries_adds_up(run)


def flush_oracle(self, now, width):
    """``_Sampler._flush`` as a brute-force reference: it sorts every host
    seen, sweeps every forwarder's PIT and meters every host afresh."""
    start = now - width
    hosts = self.net.all_hosts
    for node in sorted(hosts):
        h = hosts[node]
        if h.fwd is not None:
            h.fwd.pit_expire(now)
        meters = (h.busy_ms_total, h.counters.rx_bytes, h.counters.tx_bytes)
        busy, rx, tx = self._marks.get(node, (0.0, 0, 0))
        if node not in self.net.hosts and meters == (busy, rx, tx):
            continue
        self._marks[node] = meters
        util = min(1.0, (meters[0] - busy) / width) if width > 0 else 0.0
        self.samples.append((start, node, util, h.mem_bytes(),
                             meters[1] - rx, meters[2] - tx))
    self._last = now


# Mini variants where hosts leave (the ICN slice expires mid-run), where
# PIT entries expire between ticks (short lifetime) and where a host joins
# (scale-out on every window).
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["icn", "cdn-only"]), st.sampled_from([5, 13, 50, 100]),
       st.sampled_from([6, 20, 4000]), st.one_of(st.none(), st.integers(10, 400)),
       st.booleans(), st.integers(1, 12), st.sampled_from([0, 4, 10]))
@example("icn", 5, 6, 40, True, 6, 10)
@example("cdn-only", 5, 4000, 40, True, 6, 10)
@example("icn", 13, 6, None, False, 12, 0)
def test_sampler_rows_equal_brute_force_oracle(mode, bucket_ms, lifetime_ms, icn_ms,
                                               scale, requests, interval_ms):
    sets = ["mode=%s" % mode, "knobs.bucket_ms=%d" % bucket_ms,
            "knobs.interest_lifetime_ms=%d" % lifetime_ms,
            "populations.0.request_count=%d" % requests,
            "populations.0.pattern.interval_ms=%d" % interval_ms]
    if icn_ms is not None:
        sets.append("northbound.2.duration_ms=%d" % icn_ms)
    if scale:
        sets += ["knobs.scale_threshold=0", "knobs.scale_window_ms=5"]
    run = run_scenario(MINI, None, sets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness._Sampler, "_flush", flush_oracle)
        want = run_scenario(MINI, None, sets)
    assert run.samples == want.samples
    assert len(run.samples) > 0


@pytest.mark.parametrize("mode", ["icn", "cdn-only"])
def test_samples_are_taken_in_bucket_and_node_order(mode):
    # timeseries.csv keeps the order samples are taken in. A scale-out adds
    # a node and the ICN slice expires at 40 ms, so nodes join and leave
    # between buckets.
    run = run_scenario(MINI, None, ["mode=%s" % mode, "knobs.bucket_ms=5",
                                    "knobs.scale_threshold=0", "knobs.scale_window_ms=5",
                                    "northbound.2.duration_ms=40"])
    assert any("scale out" in line for line in run.orchestrator.log)
    assert "edge" not in run.net.hosts
    keys = [(t, node) for t, node, *_meters in run.samples]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_transcoded_variant_served_through_gateway(tmp_path):
    doc = load_mini_doc()
    doc["northbound"].insert(2, {"op": "transcode", "slice": "c1",
                                 "content_id": "clip", "tag": "360p"})
    doc["populations"][0]["content"] = "/cdn/clip/360p"
    run = run_doc(doc, tmp_path)
    assert all(r.status == "ok" for r in run.records)
    assert all(r.bytes_received == 4096 for r in run.records)
    assert all(r.resolution == "360p" for r in run.records)


def test_unknown_resolution_request_times_out_as_failed():
    # The variant was never transcoded, which validation rejects, so the
    # population is pointed at it after parsing. The gateway has no
    # mapping for it: interests fall through to no-route and
    # retransmission exhausts.
    scenario, diags = load_scenario(MINI)
    assert diags == []
    scenario.populations[0] = dataclasses.replace(
        scenario.populations[0], content=Name.parse("/cdn/clip/360p"),
        resolution="360p", content_size=4096, request_count=1, retransmit_ms=50.0)
    run = build_and_run(scenario)
    assert [r.status for r in run.records] == ["failed"]


def test_corrupted_origin_response_is_refetched(monkeypatch):
    # Flip byte 0 of the first origin response that reaches the gateway.
    # The gateway must not publish it: its waiters drop, the consumer
    # retransmits and a second fetch publishes the true bytes.
    corrupted = []

    def corrupt_first(now, src, dst, msg):
        if not corrupted and dst == "gw" and type(msg) is IpResponse:
            corrupted.append(now)
            bad = bytearray(msg.payload)
            bad[0] ^= 0xFF
            return dataclasses.replace(msg, payload=bytes(bad))
        return msg

    filter_deliveries(monkeypatch, corrupt_first)
    run = run_scenario(MINI)
    assert corrupted, "the corruption hook never fired"
    assert [r.status for r in run.records] == ["ok"] * 6
    gw = run.hosts["gw"].gateway
    (base, count), = gw.published.items()
    published = b"".join(gw.repo[base.segment(i)].payload for i in range(count))
    assert published == synthesize_payload(run.scenario.seed, "clip", 16384)
    assert run.origin_fetch_total() == 2


def test_corrupted_response_to_ip_consumer_fails_that_request(monkeypatch):
    # cdn-only: flip byte 0 of the second response to reach the client. It
    # carries the true digest of the very bytes the first response carried,
    # so a check remembered by digest alone would pass it.
    seen = []

    def corrupt_second(now, src, dst, msg):
        if dst == "client" and type(msg) is IpResponse:
            seen.append(now)
            if len(seen) == 2:
                bad = bytearray(msg.payload)
                bad[0] ^= 0xFF
                return dataclasses.replace(msg, payload=bytes(bad))
        return msg

    filter_deliveries(monkeypatch, corrupt_second)
    run = run_scenario(MINI, None, ["mode=cdn-only"])
    assert len(seen) == 6
    failed = [r for r in run.records if r.status == "failed"]
    assert [r.t_complete_ms for r in failed] == [seen[1]]
    assert sum(r.status == "ok" for r in run.records) == 5


def test_corrupted_copy_at_second_host_fails_after_first_host_verified(monkeypatch, tmp_path):
    # cdn-only with IP consumers at client and edge. The network remembers
    # the payload object one host found intact; a corrupted copy of it, with
    # the same digest, that then reaches the other host is still an
    # integrity error there.
    doc = load_mini_doc()
    doc["populations"].append(dict(doc["populations"][0], attach_node="edge"))
    first, corrupted = [], []

    def corrupt_at_second_host(now, src, dst, msg):
        if type(msg) is IpResponse and msg.dst == dst:
            if not first:
                first.append(dst)
            if not corrupted and dst != first[0]:
                corrupted.append((dst, now))
                bad = bytearray(msg.payload)
                bad[0] ^= 0xFF
                return dataclasses.replace(msg, payload=bytes(bad))
        return msg

    filter_deliveries(monkeypatch, corrupt_at_second_host)
    run = run_doc(doc, tmp_path, sets=["mode=cdn-only"])
    assert corrupted, "the corruption hook never fired"
    failed = [(r.consumer_node, r.t_complete_ms) for r in run.records if r.status == "failed"]
    assert failed == corrupted
    assert sum(r.status == "ok" for r in run.records) == 11


def test_ip_consumer_fails_each_request_at_its_timeout():
    # Every origin response arrives after the 1 ms timeout: each request
    # fails exactly then, once, and the late response is dropped.
    run = run_scenario(MINI, None, ["mode=cdn-only", "knobs.origin_timeout_ms=1"])
    assert sorted(r.request_id for r in run.records) == list(range(6))
    for r in run.records:
        assert (r.status, r.served_by, r.bytes_received) == ("failed", "", 0)
        assert r.t_complete_ms == r.t_issue_ms + 1
    assert not any(h._ip_waiters for h in run.hosts.values())


def test_gateway_fetch_fails_at_its_timeout():
    # Each origin fetch times out: its interests drop, every retransmission
    # fetches again, and the requests fail at the attempt limit.
    run = run_scenario(MINI, None, ["knobs.origin_timeout_ms=1"])
    assert sorted(r.request_id for r in run.records) == list(range(6))
    assert [(r.status, r.attempts) for r in run.records] == [("failed", 5)] * 6
    assert run.origin_fetch_total() == 5
    assert run.publishes == []
    assert not any(h._ip_waiters for h in run.hosts.values())


@pytest.mark.parametrize("mode, want", [
    ("icn", {"ndn": 2, "simnet": 0, "origin": 1}),
    ("cdn-only", {"ndn": 0, "simnet": 0, "origin": 1}),
])
def test_mini_hash_counts(monkeypatch, mode, want):
    # Calls to compute_digest, by the module that makes them. ndn: one to
    # build each published segment; the Data is intact by construction, so
    # no node hashes it again (4 before: one more check per segment).
    # simnet: none, since an origin records the digest of the object it
    # sends, which it computed from that very object (1 before: the first
    # receiver of each distinct payload object hashed it). origin: each
    # stored object's digest, kept after first use.
    calls = dict.fromkeys(want, 0)
    real = ndn.compute_digest
    for mod in (ndn, simnet, origin):
        def counted(payload, key=mod.__name__.rsplit(".", 1)[1]):
            calls[key] += 1
            return real(payload)
        monkeypatch.setattr(mod, "compute_digest", counted)
    run = run_scenario(MINI, None, ["mode=%s" % mode])
    assert [r.status for r in run.records] == ["ok"] * 6
    assert calls == want
    assert calls["origin"] <= len(run.hosts["origin-node"].origin.catalog())
    if mode == "icn":
        segments = sum(run.hosts["gw"].gateway.published.values())
        assert calls["ndn"] == segments


def test_gateway_weight_zero_moves_gateway_toward_demand(tmp_path):
    doc = load_mini_doc()
    doc["northbound"][-1]["weight"] = 0.0
    run = run_doc(doc, tmp_path)
    # With all demand behind "edge", the edge node becomes the gateway and
    # serves the cold phase itself.
    assert run.records[0].served_by == "edge"


def test_scenario_error_carries_diagnostics(tmp_path):
    doc = load_mini_doc()
    doc["populations"][0]["attach_node"] = "ghost"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError) as e:
        run_scenario(p)
    assert any(d.code == "bad-reference" for d in e.value.diagnostics)


def test_publish_bench_parallel_jobs_match_sequential(tmp_path):
    seq = publish_bench(MINI, [0.25, 0.5], None, jobs=1)
    par = publish_bench(MINI, [0.25, 0.5], None, jobs=2)
    assert seq == par


def test_scale_checks_do_not_fire_in_mini():
    run = run_scenario(MINI)
    assert not any("scale" in line for line in run.orchestrator.log)


def test_build_and_run_accepts_parsed_scenario():
    scenario, diags = load_scenario(MINI)
    assert diags == []
    run = build_and_run(scenario)
    assert len(run.records) == 6


def test_bucket_width_does_not_change_results(tmp_path):
    # Every interest outlives its 8 ms lifetime before its Data comes back,
    # so each PIT read must find the entry expired, whenever the sampler
    # reclaims expired entries.
    outputs = []
    for bucket_ms in (5, 100, 1000):
        out = tmp_path / str(bucket_ms)
        run_scenario(MINI, out, ["knobs.interest_lifetime_ms=8",
                                 "knobs.bucket_ms=%d" % bucket_ms])
        outputs.append({name: (out / name).read_bytes()
                        for name in ("requests.csv", "node_counters.csv", "summary.txt")})
    assert outputs[0] == outputs[1] == outputs[2]


def test_mem_bytes_counts_only_live_pit_entries(monkeypatch):
    # client has no content store, so its mem_bytes is its PIT. An entry
    # inserted at t lives until t + 8 ms, so a sample at T can count only
    # the entries inserted in (T - 8, T].
    inserts = []
    real_insert = forwarder.Forwarder._pit_insert

    def recording_insert(self, now, face, interest):
        inserts.append((self, now))
        real_insert(self, now, face, interest)

    monkeypatch.setattr(forwarder.Forwarder, "_pit_insert", recording_insert)
    run = run_scenario(MINI, None, ["knobs.interest_lifetime_ms=8",
                                    "knobs.bucket_ms=100"])
    client = run.hosts["client"].fwd
    times = [t for fwd, t in inserts if fwd is client]
    rows = [row for row in run.samples if row[1] == "client"]
    sampled_at = [t for t, *_rest in rows[1:]] + [run.final_ms]
    assert times and len(rows) > 1
    for row, at in zip(rows, sampled_at):
        _t, _node, _util, mem, _rx, _tx = row
        live = sum(1 for t in times if at - 8 < t <= at)
        assert mem <= forwarder.PIT_ENTRY_MEM_BYTES * live, row


TABLES = (dict, set, list, deque)


def element_count(value, levels: int = 1) -> int:
    """Elements of the dicts, sets, lists and deques that ``value`` holds,
    directly or through object fields, and ``levels`` deep in their values."""
    if isinstance(value, TABLES):
        n = len(value)
        if levels:
            items = value.values() if isinstance(value, dict) else value
            n += sum(element_count(v, levels - 1) for v in items)
        return n
    fields = list(getattr(value, "__dict__", {}).values())
    for cls in type(value).__mro__:
        fields += [getattr(value, f) for f in getattr(cls, "__slots__", ())
                   if hasattr(value, f)]
    return sum(element_count(v, levels) for v in fields)


def table_sizes(run) -> dict[tuple[str, str], int]:
    sizes = {}
    for node, host in run.hosts.items():
        for field, value in getattr(host.fwd, "__dict__", {}).items():
            sizes[node, "fwd." + field] = element_count(value)
        sizes[node, "_ip_waiters"] = element_count(host._ip_waiters)
        if host.gateway is not None:
            sizes[node, "gateway.waiting"] = element_count(host.gateway.waiting)
        for face, app in host.faces.items():
            # An application's face, not a link's: a population or the gateway.
            if callable(app) and app.__self__ is not host.gateway:
                sizes[node, "outstanding@%d" % face] = element_count(app.__self__.outstanding)
    return sizes


def live_names() -> int:
    gc.collect()
    return len(ndn._NAMES)


def test_table_sizes_do_not_grow_with_run_length():
    short = run_scenario(MINI, None, ["populations.0.request_count=6"])
    short_names = live_names()
    long = run_scenario(MINI, None, ["populations.0.request_count=60"])
    assert [r.status for r in long.records] == ["ok"] * 60
    assert table_sizes(short) == table_sizes(long)
    assert live_names() == short_names


def catalog_doc(contents: int, populations: int = 40) -> dict:
    """Mini with ``contents`` contents of two segments each, and the same
    ``populations`` at ``client``, one request each, spread over them."""
    doc = load_mini_doc()
    doc["contents"] = [{"content_id": "c%02d" % k, "size_bytes": 16384,
                        "source_resolution": "720p", "resolutions": []}
                       for k in range(contents)]
    doc["northbound"][1:2] = [{"op": "upload", "slice": "c1", "content_id": "c%02d" % k}
                              for k in range(contents)]
    pop = doc["populations"][0]
    doc["populations"] = [dict(pop, request_count=1, content="/cdn/c%02d/720p" % (j % contents))
                          for j in range(populations)]
    return doc


def test_table_sizes_do_not_grow_with_catalog_size(tmp_path):
    # The catalog may fill the content stores and the gateway's and the
    # origin's own stores, which ``table_sizes`` leaves out; every other
    # table is bound by live state, which is the same in both runs.
    small = run_doc(catalog_doc(10), tmp_path, "small.json")
    large = run_doc(catalog_doc(40), tmp_path, "large.json")
    assert [r.status for r in large.records] == ["ok"] * 40
    assert {r.content for r in large.records} > {r.content for r in small.records}
    assert {k: v for k, v in table_sizes(small).items() if k[1] != "fwd.cs"} == \
           {k: v for k, v in table_sizes(large).items() if k[1] != "fwd.cs"}
