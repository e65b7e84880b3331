"""One simulation in a fresh interpreter, so that peak RSS belongs to it.

    python3 perfbench/child.py --root ROOT --scenario FILE --result FILE.json
        [--out DIR] [--mode run|setup|trace] [--chunks FILE.json]

``run`` times one ``run_scenario`` call. ``setup`` repeats only the set-up
(from ``load_scenario`` to the first simulated event) at least
``SETUP_MIN_REPS`` times and for at least ``SETUP_MIN_SECONDS``.
``trace`` is ``run`` with every layer wrapped in spans and every chunk
handed to a consumer kept for the payload check; ``--chunks`` also writes
those chunks out. The result is written as JSON to ``--result``.
Each interval is taken on two clocks: ``time.process_time`` (CPU seconds
of this single-threaded process, the clock the end-to-end metrics use)
and ``time.perf_counter`` (wall seconds, which span times use). Imports
are not timed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path


SETUP_MIN_SECONDS = 5.0
SETUP_MIN_REPS = 3


class _SetupDone(Exception):
    """Raised at entry into the event loop to end a set-up measurement."""


def _import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import icnsim
    if Path(icnsim.__file__).resolve().parent != (src / "icnsim").resolve():
        raise SystemExit("icnsim imported from %s, not from %s" % (icnsim.__file__, src))


def _now() -> tuple[float, float]:
    return time.process_time(), time.perf_counter()


def _hook_engine(marks: dict):
    """Record CPU time at entry to and exit from the event loop."""
    from icnsim.simnet import Network
    engine = Network.run_to_completion

    def run_to_completion(self):
        marks["enter"] = time.process_time()
        try:
            return engine(self)
        finally:
            marks["exit"] = time.process_time()

    Network.run_to_completion = run_to_completion


def measure_setup(scenario: Path) -> list[float]:
    """CPU seconds of each repeated set-up."""
    from icnsim import harness
    from icnsim.simnet import Network

    marks = {}

    def stop(self):
        marks["enter"] = time.process_time()
        raise _SetupDone

    Network.run_to_completion = stop
    times: list[float] = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS:
        gc.collect()
        t0 = time.process_time()
        try:
            harness.run_scenario(scenario, None)
        except _SetupDone:
            pass
        times.append(marks["enter"] - t0)
    return times


def install_tracer(tracer, chunks: dict):
    """Wrap every traced layer at its module or class attribute."""
    from icnsim import forwarder, gateway, harness, ndn, orchestration, origin, simnet

    def count_aggregation(result, args, parent):
        if not result and parent not in ("forwarder.on_interest", "gateway.on_interest"):
            tracer.count("forwarder.pit_aggregations")

    def record_icn_chunk(result, args, parent):
        data = args[1]
        comps = data.name.components
        chunks.setdefault((comps, id(data.payload)), data.payload)

    def consumer_callback(args):
        return tracer.span("simnet.consumer", args[1], after=record_icn_chunk)

    def ip_consumer_callback(args):
        owner = args[2].__self__
        pair = (owner.content_id.encode(), owner.resolution.encode())

        def record_object(result, cb_args, parent):
            payload = cb_args[1].payload
            if payload is not None:
                chunks.setdefault((pair, id(payload)), payload)

        return tracer.span("simnet.consumer", args[2], after=record_object)

    def count_rows(result, args, parent):
        run = args[0]
        tracer.count("metrics.rows", len(run.records) + len(run.hosts) + len(run.samples))

    Net, Host = simnet.Network, simnet.Host
    tracer.wrap(harness, "load_scenario", "scenario.load")
    tracer.wrap(harness, "write_outputs", "metrics.write", after=count_rows)
    tracer.wrap(Net, "run_to_completion", "simnet.engine")
    tracer.wrap(Net, "send", "simnet.send")
    tracer.wrap_counter(Net, "schedule", "events.scheduled")
    tracer.wrap_counter(Net, "cancel", "events.cancelled", when=lambda a: not a[1].cancelled)
    tracer.wrap(Host, "receive", "simnet.receive")
    tracer.wrap(Host, "send_ip", "simnet.ip")
    tracer.wrap_argument(Host, "attach_app", 1, consumer_callback)
    tracer.wrap_argument(Host, "await_ip_response", 2, ip_consumer_callback)
    tracer.wrap(forwarder.Forwarder, "on_interest", "forwarder.on_interest",
                after=count_aggregation)
    tracer.wrap(forwarder.Forwarder, "on_data", "forwarder.on_data")
    tracer.wrap(forwarder.ContentStore, "insert", "forwarder.cs_insert",
                after=lambda r, a, p: tracer.count("forwarder.cs_evictions", len(r[1])))
    tracer.wrap(forwarder.Forwarder, "pit_expire", "forwarder.pit_expire",
                after=lambda r, a, p: tracer.count("forwarder.pit_timeouts", len(r)))
    tracer.wrap(gateway.Gateway, "on_interest", "gateway.on_interest", after=count_aggregation)
    tracer.wrap(gateway.Gateway, "publish_content_to_icn", "gateway.publish",
                after=lambda r, a, p: tracer.count("gateway.segments", r[0]))
    for mod in (ndn, forwarder, simnet, origin):
        if "compute_digest" in mod.__dict__:
            tracer.wrap(mod, "compute_digest", "ndn.digest",
                        after=lambda r, a, p: tracer.count("ndn.digest.bytes", len(a[0])))
    for mod in (ndn, origin):
        if "hash_stream" in mod.__dict__:
            tracer.wrap(mod, "hash_stream", "ndn.hash_stream")
    tracer.wrap(ndn.Interest, "decremented", "ndn.decremented")
    tracer.wrap(origin.CdnOrigin, "stream", "origin.stream",
                after=lambda r, a, p: tracer.count("origin.stream.bytes", len(r)))
    tracer.wrap(origin.CdnOrigin, "transcode", "origin.transcode")
    for attr in ("create_slice", "upload", "transcode", "link_slices"):
        tracer.wrap(orchestration.Orchestrator, attr, "orchestration")


def run_once(scenario: Path, out: Path, trace: bool, chunks_file: Path | None) -> dict:
    from icnsim import harness
    marks: dict = {}
    _hook_engine(marks)
    tracer = None
    chunks: dict = {}
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        install_tracer(tracer, chunks)
    gc.collect()
    c0, w0 = _now()
    run = harness.run_scenario(scenario, out)
    c1, w1 = _now()
    if tracer is not None:
        tracer.restore()
    result = {
        "cpu_s": c1 - c0,
        "wall_s": w1 - w0,
        "engine_cpu_s": marks["exit"] - marks["enter"],
        "requests": len(run.records),
        "ok": sum(1 for r in run.records if r.status == "ok"),
        "received": sorted([r.request_id, r.bytes_received] for r in run.records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result.update(trace_result(tracer, run, chunks, scenario, chunks_file))
    return result


def trace_result(tracer, run, chunks: dict, scenario: Path, chunks_file: Path | None) -> dict:
    from checks import check_chunks
    ndn_hosts = [h for h in run.hosts.values() if h.role in ("ndn-node", "ndn-gateway")]
    hits = sum(h.counters.cs_hits for h in ndn_hosts)
    misses = sum(h.counters.cs_misses for h in ndn_hosts)
    counts = dict(tracer.counts)
    counts["cs_hits"], counts["cs_misses"] = hits, misses
    counts["origin_fetches"] = run.origin_fetch_total()
    delivered = []
    for (comps, _id), payload in chunks.items():
        seg = None
        if len(comps) > 2:
            seg = int(comps[-1].decode().split("=", 1)[1])
            comps = comps[-3:-1]
        delivered.append((comps[0].decode(), comps[1].decode(), seg, payload))
    if chunks_file is not None:
        chunks_file.write_text(json.dumps([[c, r, s, p.hex()] for c, r, s, p in delivered]))
    doc = json.loads(Path(scenario).read_text())
    return {
        "spans": tracer.totals(),
        "spans_by_parent": [[n, p, *agg] for (n, p), agg in sorted(tracer.spans.items())],
        "counts": counts,
        "chunks_checked": len(delivered),
        "chunk_errors": check_chunks(doc, delivered),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--scenario", required=True, type=Path)
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--mode", choices=["run", "setup", "trace"], default="run")
    ap.add_argument("--chunks", type=Path)
    args = ap.parse_args(argv)
    _import_program(args.root)
    if args.mode == "setup":
        result = {"setup_s": measure_setup(args.scenario)}
    else:
        result = run_once(args.scenario, args.out, args.mode == "trace", args.chunks)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
