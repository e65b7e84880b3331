"""Measurement collection and the CSV/summary output surface.

Three CSV schemas (requests, node counters, time series) plus the
publish benchmark CSV and a human-readable summary. All files are
written with fixed field order, fixed float formatting and LF newlines
so equal runs produce byte-identical trees.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .simnet import Host, RequestRecord

REQUESTS_HEADER = ["request_id", "region", "consumer_node", "content", "resolution",
                   "t_issue_ms", "t_complete_ms", "delivery_ms", "served_by", "status"]
NODE_COUNTERS_HEADER = ["node", "role", "rx_pkts", "tx_pkts", "rx_bytes", "tx_bytes",
                        "cs_hits", "cs_misses", "origin_fetches"]
TIMESERIES_HEADER = ["t_bucket_ms", "node", "cpu_util", "mem_bytes",
                     "link_in_bytes", "link_out_bytes"]
PUBLISH_HEADER = ["size_bytes", "publish_ms"]


def _fmt(x: float) -> str:
    return "%.6f" % x


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def write_requests_csv(path: Path, records: list[RequestRecord]):
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(REQUESTS_HEADER)
        for r in sorted(records, key=lambda r: r.request_id):
            w.writerow([r.request_id, r.region, r.consumer_node, r.content,
                        r.resolution, _fmt(r.t_issue_ms), _fmt(r.t_complete_ms),
                        _fmt(r.delivery_ms), r.served_by, r.status])


def write_node_counters_csv(path: Path, hosts: dict[str, Host]):
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(NODE_COUNTERS_HEADER)
        for node in sorted(hosts):
            h = hosts[node]
            c = h.counters
            w.writerow([node, h.role, c.rx_pkts, c.tx_pkts, c.rx_bytes, c.tx_bytes,
                        c.cs_hits, c.cs_misses, c.origin_fetches])


def write_timeseries_csv(path: Path, samples: list[tuple]):
    """One row per sample tuple, in ``TIMESERIES_HEADER`` order, kept in the
    order sampled, which is ``(t_bucket_ms, node)`` order."""
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(TIMESERIES_HEADER)
        for t, node, util, mem, rx, tx in samples:
            w.writerow([_fmt(t), node, _fmt(util), mem, rx, tx])


def write_publish_csv(path: Path, rows: list[tuple[int, float]]):
    with open(path, "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(PUBLISH_HEADER)
        for size, ms in rows:
            w.writerow([size, _fmt(ms)])


def mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def median(xs: list[float]) -> float:
    if not xs:
        return 0.0
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


def p95(xs: list[float]) -> float:
    # Nearest-rank definition.
    if not xs:
        return 0.0
    s = sorted(xs)
    rank = max(1, -(-len(s) * 95 // 100))
    return s[rank - 1]


def decile_means(deliveries_by_issue: list[float]) -> tuple[float, float]:
    """Mean delivery of the first and last request deciles (issue order)."""
    n = len(deliveries_by_issue)
    if n == 0:
        return 0.0, 0.0
    k = max(1, n // 10)
    return mean(deliveries_by_issue[:k]), mean(deliveries_by_issue[-k:])


def region_stats(records: list[RequestRecord]) -> dict[str, dict[str, float]]:
    regions: dict[str, list[RequestRecord]] = {}
    for r in records:
        regions.setdefault(r.region, []).append(r)
    out = {}
    for region, rs in regions.items():
        rs.sort(key=lambda r: (r.t_issue_ms, r.request_id))
        ok = [r.delivery_ms for r in rs if r.status == "ok"]  # issue order
        first, last = decile_means(ok)
        out[region] = {
            "requests": len(rs),
            "ok": len(ok),
            "failed": len(rs) - len(ok),
            "mean_ms": mean(ok),
            "median_ms": median(ok),
            "p95_ms": p95(ok),
            "first_decile_mean_ms": first,
            "last_decile_mean_ms": last,
        }
    return out


def summary_lines(scenario_name: str, seed: int, mode: str, final_ms: float,
                  records: list[RequestRecord], hosts: dict[str, Host]) -> list[str]:
    ok = sum(1 for r in records if r.status == "ok")
    fetches = sum(h.counters.origin_fetches for h in hosts.values())
    lines = [
        "scenario=%s seed=%d mode=%s" % (scenario_name, seed, mode),
        "final_time_ms=%s" % _fmt(final_ms),
        "requests_total=%d ok=%d failed=%d" % (len(records), ok, len(records) - ok),
        "origin_fetches=%d" % fetches,
    ]
    for region, st in sorted(region_stats(records).items()):
        lines.append(
            "region=%s requests=%d ok=%d mean_ms=%s median_ms=%s p95_ms=%s "
            "first_decile_mean_ms=%s last_decile_mean_ms=%s"
            % (region, st["requests"], st["ok"], _fmt(st["mean_ms"]),
               _fmt(st["median_ms"]), _fmt(st["p95_ms"]),
               _fmt(st["first_decile_mean_ms"]), _fmt(st["last_decile_mean_ms"])))
    for node in sorted(hosts):
        h = hosts[node]
        c = h.counters
        drops = ",".join("%s=%d" % (k, v) for k, v in sorted(c.drops.items()))
        lines.append(
            "node=%s role=%s rx_pkts=%d tx_pkts=%d rx_bytes=%d tx_bytes=%d "
            "cs_hits=%d cs_misses=%d pit_timeouts=%d origin_fetches=%d drops=%s"
            % (node, h.role, c.rx_pkts, c.tx_pkts, c.rx_bytes, c.tx_bytes,
               c.cs_hits, c.cs_misses, c.pit_timeouts, c.origin_fetches,
               drops or "-"))
    return lines
