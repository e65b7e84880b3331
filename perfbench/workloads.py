"""Scenario generation for the benchmark workloads.

Every workload is a scenario file made here from ``--seed``; the program
only ever reads that file. The same seed always gives the same file.

* ``flash-crowd``: ``scenarios/reference.json`` as committed, with the
  seed replaced.
* ``catalog``: the reference topology and slices with a generated Zipf
  catalog, Poisson arrivals and edge content stores far below the
  catalog size.
* ``cdn-only``: the reference scenario in ``cdn-only`` mode, with arrivals
  spaced below the capacity of the 25 Mbps origin link and slices that
  outlive the last arrival.
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction
from pathlib import Path

REFERENCE = Path("scenarios") / "reference.json"
KIB = 1024
MIB = 1024 * KIB

WORKLOADS = ("flash-crowd", "catalog", "cdn-only")

# catalog make-up. The seed only draws the Poisson arrival times (through
# the scenario seed) and the payload bytes: sizes, popularity and request
# counts are fixed, so that every seed asks for the same amount of work.
CATALOG_CONTENTS = 40
CATALOG_MIN_BYTES = 256 * KIB          # source sizes: a geometric ladder from min to max
CATALOG_MAX_BYTES = 1 * MIB
CATALOG_SIZE_STRIDE = 17               # rank k gets ladder step k*17 mod 40: sizes mixed over ranks
CATALOG_VARIANT = ("540p", "1/2")      # every content has one transcoded variant
CATALOG_ZIPF_S = 0.9                   # popularity exponent over contents
CATALOG_REQUESTS = 1200                # split over 3 regions x 2 resolutions per content
CATALOG_ARRIVAL_SPAN_S = 120.0         # Poisson rate of a population = its count / span
CATALOG_EDGE_CS_BYTES = 8 * MIB
# Slices outlive the Poisson tail: a population of two has a mean gap of
# 60 s, and a request issued after the slices expire fails.
CATALOG_SLICE_MS = 3_000_000

# cdn-only make-up: one 2 MiB object takes 671 ms on the 25 Mbps origin
# link, and three regions arriving together every 2400 ms need 2013 ms.
CDN_ONLY_INTERVAL_MS = 2400
CDN_ONLY_REQUESTS_PER_REGION = 400
CDN_ONLY_SLICE_MS = 3_000_000


def _reference(root: Path) -> dict:
    return json.loads((root / REFERENCE).read_text())


def flash_crowd(root: Path, seed: int) -> dict:
    doc = _reference(root)
    doc["seed"] = seed
    return doc


def cdn_only(root: Path, seed: int) -> dict:
    doc = _reference(root)
    doc["seed"] = seed
    doc["mode"] = "cdn-only"
    for op in doc["northbound"]:
        if op["op"] in ("create_cdn_slice", "create_icn_slice"):
            op["duration_ms"] = CDN_ONLY_SLICE_MS
    for p in doc["populations"]:
        p["request_count"] = CDN_ONLY_REQUESTS_PER_REGION
        p["pattern"] = {"kind": "uniform", "interval_ms": CDN_ONLY_INTERVAL_MS}
    return doc


def _zipf_weights(n: int, s: float) -> list[float]:
    w = [1.0 / (k + 1) ** s for k in range(n)]
    total = sum(w)
    return [x / total for x in w]


def _apportion(total: int, weights: list[float]) -> list[int]:
    """Integer counts summing to ``total`` in proportion to ``weights``
    (largest remainder; ties to the lower index)."""
    exact = [total * w for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(len(exact)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:total - sum(counts)]:
        counts[i] += 1
    return counts


def catalog(root: Path, seed: int) -> dict:
    ref = _reference(root)
    tag, scale = CATALOG_VARIANT
    n = CATALOG_CONTENTS
    ratio = (CATALOG_MAX_BYTES / CATALOG_MIN_BYTES) ** (1.0 / (n - 1))
    ladder = [int(CATALOG_MIN_BYTES * ratio ** k) for k in range(n)]
    contents = [{"content_id": "c%02d" % k,
                 "size_bytes": ladder[k * CATALOG_SIZE_STRIDE % n],
                 "source_resolution": "1080p",
                 "resolutions": [{"tag": tag, "scale": scale}]} for k in range(n)]
    regions = [(p["region"], p["attach_node"]) for p in ref["populations"]]
    cells = [(k, region, res) for k in range(n) for region in range(len(regions))
             for res in ("1080p", tag)]
    zipf = _zipf_weights(n, CATALOG_ZIPF_S)
    per_cell = len(regions) * 2
    counts = _apportion(CATALOG_REQUESTS, [zipf[k] / per_cell for k, _r, _res in cells])

    cdn_create = next(op for op in ref["northbound"] if op["op"] == "create_cdn_slice")
    icn_create = next(op for op in ref["northbound"] if op["op"] == "create_icn_slice")
    link = next(op for op in ref["northbound"] if op["op"] == "link")
    cdn_create = dict(cdn_create, duration_ms=CATALOG_SLICE_MS)
    icn_create = dict(icn_create, duration_ms=CATALOG_SLICE_MS)
    northbound = [copy.deepcopy(cdn_create)]
    for c in contents:
        northbound.append({"op": "upload", "slice": cdn_create["slice"],
                           "content_id": c["content_id"]})
        northbound.append({"op": "transcode", "slice": cdn_create["slice"],
                           "content_id": c["content_id"], "tag": tag})
    northbound += [copy.deepcopy(icn_create), copy.deepcopy(link)]

    populations = []
    for (k, region, res), count in zip(cells, counts):
        if count == 0:
            continue
        name, node = regions[region]
        populations.append({
            "region": name, "attach_node": node, "request_count": count,
            "content": "%s/%s/%s" % (link["prefix"], contents[k]["content_id"], res),
            "pattern": {"kind": "poisson", "rate_per_s": count / CATALOG_ARRIVAL_SPAN_S},
            "retransmit_ms": 4500})
    knobs = dict(ref["knobs"], cs_capacity_bytes=CATALOG_EDGE_CS_BYTES)
    return {"name": "catalog", "seed": seed, "mode": "icn",
            "domains": ref["domains"], "topology": ref["topology"],
            "contents": contents, "northbound": northbound,
            "populations": populations, "knobs": knobs}


GENERATORS = {"flash-crowd": flash_crowd, "catalog": catalog, "cdn-only": cdn_only}


def size_at(doc: dict, content_id: str, resolution: str) -> int | None:
    """Bytes of one (content, resolution) pair, from the scenario document."""
    for c in doc["contents"]:
        if c["content_id"] != content_id:
            continue
        if resolution == c["source_resolution"]:
            return c["size_bytes"]
        for r in c.get("resolutions", []):
            if r["tag"] == resolution:
                f = Fraction(str(r["scale"]))
                return c["size_bytes"] * f.numerator // f.denominator
    return None


def requested_pairs(doc: dict) -> set[tuple[str, str]]:
    """Distinct (content_id, resolution) pairs that some population requests."""
    out = set()
    for p in doc["populations"]:
        if p["request_count"] > 0:
            cid, res = p["content"].rstrip("/").split("/")[-2:]
            out.add((cid, res))
    return out


def produced_pairs(doc: dict) -> set[tuple[str, str]]:
    """Pairs that an ``upload`` or ``transcode`` operation makes available."""
    source = {c["content_id"]: c["source_resolution"] for c in doc["contents"]}
    out = set()
    for op in doc["northbound"]:
        if op["op"] == "upload":
            out.add((op["content_id"], source[op["content_id"]]))
        elif op["op"] == "transcode":
            out.add((op["content_id"], op["tag"]))
    return out


def generate(workload: str, root: Path, seed: int) -> dict:
    """The scenario document of ``workload`` for ``seed``. Refuses a
    document that requests a pair no upload or transcode produces, which
    the scenario validator accepts."""
    doc = GENERATORS[workload](root, seed)
    missing = requested_pairs(doc) - produced_pairs(doc)
    if missing:
        raise ValueError("%s requests pairs no upload or transcode produces: %s"
                         % (workload, sorted(missing)))
    return doc
