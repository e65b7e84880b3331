"""Scenario execution: build the network, run the workload, collect outputs.

``build_and_run`` turns a parsed scenario into a finished simulation;
``run_scenario`` additionally writes the CSV suite and summary into an
output directory, removing partial outputs on failure. ``publish_bench``
re-runs a scenario once per content size and reports the time from the
first origin fetch to publish completion.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import metrics
from .ndn import Name
from .orchestration import Orchestrator
from .origin import synthesize_payload
from .scenario import (Diagnostic, PopulationDef, Scenario, ScenarioError,
                       load_scenario)
from .forwarder import Forwarder
from .simnet import Host, IpPopulation, Network, Population, RequestRecord

OUTPUT_FILES = ("requests.csv", "node_counters.csv", "timeseries.csv", "summary.txt")


@dataclass(slots=True)
class SimRun:
    scenario: Scenario
    net: Network
    orchestrator: Orchestrator
    records: list[RequestRecord]
    samples: list[tuple]  # timeseries rows, in metrics.TIMESERIES_HEADER order
    final_ms: float

    @property
    def hosts(self) -> dict[str, Host]:
        return self.net.all_hosts

    @property
    def publishes(self) -> list[tuple[str, str, int, float]]:
        """(content_id, resolution, bytes, ms) per gateway publish, in order."""
        return self.net.publishes

    def origin_fetch_total(self) -> int:
        return sum(h.counters.origin_fetches for h in self.hosts.values())


class _Sampler:
    """Periodic meter snapshot: one row per (bucket, node), a tuple in
    ``metrics.TIMESERIES_HEADER`` order, with the change of the node's
    cumulative meters; a removed host gets one last row. Hosts are visited
    in node order, sorted again only when a host has been added
    (``Network.all_hosts`` only grows). A host whose meters have not moved
    takes a short row. Expired PIT entries are reclaimed before each
    snapshot, so ``mem_bytes`` counts only live ones."""

    def __init__(self, net: Network, bucket_ms: float, samples: list[tuple],
                 live: Callable[[], bool]):
        self.net = net
        self.bucket_ms = bucket_ms
        self.samples = samples
        self.live = live
        self._last = 0.0
        self._order: list[tuple[str, Host]] = []  # all_hosts in node order
        self._marks: dict[str, tuple[float, int, int]] = {}  # node -> (busy, rx, tx)

    def start(self):
        self.net.schedule(self.bucket_ms, self._tick, real=False)

    def _flush(self, now: float, width: float):
        start = now - width
        hosts = self.net.all_hosts
        if len(hosts) != len(self._order):
            self._order = sorted(hosts.items())
            for node in hosts:
                self._marks.setdefault(node, (0.0, 0, 0))
        marks = self._marks
        append = self.samples.append
        for node, h in self._order:
            fwd = h.fwd
            if fwd is not None and fwd.pit:
                fwd.pit_expire(now)
            c = h.counters
            meters = (h.busy_ms_total, c.rx_bytes, c.tx_bytes)
            last = marks[node]
            if meters == last:
                if not h.removed:
                    append((start, node, 0.0, h.mem_bytes(), 0, 0))
                continue
            marks[node] = meters
            busy, rx, tx = last
            util = min(1.0, (meters[0] - busy) / width) if width > 0 else 0.0
            append((start, node, util, h.mem_bytes(), meters[1] - rx, meters[2] - tx))
        self._last = now

    def _tick(self, now: float):
        self._flush(now, self.bucket_ms)
        if self.live():
            self.net.schedule(now + self.bucket_ms, self._tick, real=False)

    def final_flush(self, now: float):
        if now > self._last:
            self._flush(now, now - self._last)


def build_and_run(scenario: Scenario) -> SimRun:
    knobs = scenario.knobs
    rng = random.Random(scenario.seed)
    net = Network(horizon_ms=knobs.horizon_ms)
    records: list[RequestRecord] = []
    samples: list[tuple] = []
    rid_counter = itertools.count(0)

    for nd in scenario.nodes:
        net.add_host(Host(net, nd.id, "host", fwd=Forwarder(nd.cs_capacity_bytes),
                          per_packet_cost_ms=knobs.per_packet_cost_ms))

    orch = Orchestrator(net, scenario.domains, knobs, scenario.mode)

    pending_links = list(scenario.links)

    def flush_links():
        nonlocal pending_links
        left = []
        for l in pending_links:
            if l.a in net.hosts and l.b in net.hosts:
                net.add_link(l.a, l.b, l.latency_ms, l.bandwidth_mbps)
            else:
                left.append(l)
        pending_links = left

    flush_links()
    contents = {c.content_id: c for c in scenario.contents}
    slices: dict[str, int] = {}
    demand = [(p.attach_node, p.request_count) for p in scenario.populations]

    for op in scenario.northbound:
        kind = op["op"]
        if kind in ("create_cdn_slice", "create_icn_slice"):
            sid = orch.create_slice(op["spec"])
            slices[op["slice"]] = sid

            def expire(now, sid=sid):
                if sid in orch.slices:
                    orch.destroy_slice(sid)

            net.schedule(op["spec"].duration_ms, expire, real=False)
            flush_links()
        elif kind == "upload":
            cd = contents[op["content_id"]]
            payload = synthesize_payload(scenario.seed, cd.content_id, cd.size_bytes)
            orch.upload(slices[op["slice"]], cd.content_id, payload, cd.source_resolution)
        elif kind == "transcode":
            cd = contents[op["content_id"]]
            scale = next(s for t, s in cd.resolutions if t == op["tag"])
            orch.transcode(slices[op["slice"]], cd.content_id, op["tag"], scale)
        elif kind == "link":
            if scenario.mode == "cdn-only":
                continue
            w = op["weight"] if op["weight"] is not None else knobs.gateway_weight
            orch.link_slices(slices[op["cdn"]], slices[op["icn"]], w, demand,
                             Name.parse(op["prefix"]))
        elif kind == "destroy":
            orch.destroy_slice(slices.pop(op["slice"]))

    populations = []
    for p in scenario.populations:
        host = net.hosts[p.attach_node]
        if scenario.mode == "cdn-only":
            cdn_sids = [sid for sid, st in orch.slices.items() if st.spec.kind == "CDN"]
            target = orch.serving_node(cdn_sids[0]) if cdn_sids else p.attach_node
            pop = IpPopulation(net, host, p.region, p.content, p.content_id,
                               p.resolution, target,
                               p.request_count, p.pattern, rng, records,
                               rid_counter, timeout_ms=knobs.origin_timeout_ms)
        else:
            seg_count = max(1, -(-p.content_size // knobs.chunk_size))
            pop = Population(net, host, p.region, p.content, p.resolution,
                             seg_count, p.request_count, p.pattern,
                             p.retransmit_ms, rng, records,
                             rid_counter, window=knobs.window,
                             lifetime_ms=knobs.interest_lifetime_ms,
                             max_attempts=knobs.retransmit_max)
        populations.append(pop)

    def live() -> bool:
        """Traffic is in flight or a population has requests left; the
        periodic ticks reschedule themselves only while this holds."""
        return net.active() or any(not p.finished() for p in populations)

    sampler = _Sampler(net, knobs.bucket_ms, samples, live)

    def scale_tick(now):
        for sid in list(orch.slices):
            inst = orch.scale_check(sid, now)
            if inst is not None:
                orch.handle_scale(sid, inst)
        if live():
            net.schedule(now + knobs.scale_window_ms, scale_tick, real=False)

    for pop in populations:
        pop.start()
    sampler.start()
    net.schedule(knobs.scale_window_ms, scale_tick, real=False)

    final = net.run_to_completion()
    sampler.final_flush(final)
    return SimRun(scenario, net, orch, records, samples, final)


def write_outputs(run: SimRun, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        p = out_dir / "requests.csv"
        metrics.write_requests_csv(p, run.records)
        written.append(p)
        p = out_dir / "node_counters.csv"
        metrics.write_node_counters_csv(p, run.hosts)
        written.append(p)
        p = out_dir / "timeseries.csv"
        metrics.write_timeseries_csv(p, run.samples)
        written.append(p)
        p = out_dir / "summary.txt"
        lines = metrics.summary_lines(run.scenario.name, run.scenario.seed,
                                      run.scenario.mode, run.final_ms,
                                      run.records, run.hosts)
        p.write_text("\n".join(lines) + "\n")
        written.append(p)
    except BaseException:
        for p in written:
            try:
                p.unlink()
            except OSError:
                pass
        raise


def run_scenario(path: str | Path, out_dir: str | Path | None = None,
                 sets: list[str] = ()) -> SimRun:
    scenario, diags = load_scenario(path, sets)
    if scenario is None:
        raise ScenarioError(diags)
    run = build_and_run(scenario)
    if out_dir is not None:
        write_outputs(run, Path(out_dir))
    return run


# -- publish benchmark ----------------------------------------------------------

MIB = 1024 * 1024


def _bench_doc_sets(size_bytes: int) -> list[str]:
    return ["contents.0.size_bytes=%d" % size_bytes]


def _bench_one(path: str, size_bytes: int, sets: list[str]) -> tuple[int, float]:
    scenario, diags = load_scenario(path, list(sets) + _bench_doc_sets(size_bytes))
    if scenario is None:
        raise ScenarioError(diags)
    if scenario.mode != "icn":
        raise ScenarioError([Diagnostic("bad-value", "mode",
                                        "publish-bench needs an icn scenario")])
    if not scenario.populations:
        raise ScenarioError([Diagnostic("invariant", "populations",
                                        "publish-bench needs at least one population")])
    if not any(op["op"] == "link" for op in scenario.northbound):
        raise ScenarioError([Diagnostic("invariant", "northbound",
                                        "publish-bench needs a link op (gateway + origin)")])
    # One request for the source-resolution content is enough to trigger
    # the fetch; the publish time is measured at the gateway.
    cd = scenario.contents[0]
    first = scenario.populations[0]
    prefix = next(Name.parse(op["prefix"]) for op in scenario.northbound
                  if op["op"] == "link")
    cname = Name(prefix.components + (cd.content_id.encode(),
                                      cd.source_resolution.encode()))
    scenario.populations = [PopulationDef(
        first.region, first.attach_node, 1, cname, ("uniform", 0.0),
        first.retransmit_ms, cd.content_id, cd.source_resolution, size_bytes)]
    run = build_and_run(scenario)
    for cid, res, size, ms in run.publishes:
        if cid == cd.content_id and res == cd.source_resolution:
            return size, ms
    raise ScenarioError([Diagnostic("runtime", "publishes",
                                    "no publish recorded for the bench content")])


def publish_bench(path: str | Path, sizes_mb: list[float],
                  out_dir: str | Path | None = None, jobs: int = 1,
                  sets: list[str] = ()) -> list[tuple[int, float]]:
    if not sizes_mb:
        raise ScenarioError([Diagnostic("bad-value", "sizes", "size list is empty")])
    scenario, diags = load_scenario(path, sets)
    if scenario is None:
        raise ScenarioError(diags)
    if not all(1 <= s * MIB < math.inf for s in sizes_mb):  # NaN fails every comparison
        raise ScenarioError([Diagnostic("bad-value", "sizes", "sizes must be finite, >= 1 byte")])
    sizes = [int(s * MIB) for s in sizes_mb]
    if jobs > 1:
        # Imported here: the pool's modules add about 2.8 MiB to every run.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_bench_one, [str(path)] * len(sizes), sizes,
                                 [list(sets)] * len(sizes)))
    else:
        rows = [_bench_one(str(path), s, list(sets)) for s in sizes]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        metrics.write_publish_csv(out / "publish.csv", rows)
    return rows
