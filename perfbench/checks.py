"""Correctness checks computed apart from the program.

Each check takes the generated scenario document and what a run left
behind (its output files, the bytes each request received, the chunks
its consumers were handed) and returns a list of error strings; an empty
list means the check passed. Nothing here calls into ``icnsim``: sizes,
topology distances and expected payload bytes are all derived from the
scenario document by this module.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

from workloads import requested_pairs, size_at

OUTPUT_FILES = ("requests.csv", "node_counters.csv", "timeseries.csv", "summary.txt")
DEFAULT_CHUNK = 8192


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def chunk_size(doc: dict) -> int:
    return int(doc.get("knobs", {}).get("chunk_size", DEFAULT_CHUNK))


def pair_of(content: str) -> tuple[str, str]:
    """(content_id, resolution) of a ``/prefix/<id>/<resolution>`` name."""
    cid, res = content.rstrip("/").split("/")[-2:]
    return cid, res


# -- request records -------------------------------------------------------------

def check_request_ids(doc: dict, rows: list[dict]) -> list[str]:
    """Every issued request ends exactly once: ids are exactly 0..N-1."""
    n = sum(p["request_count"] for p in doc["populations"])
    ids = [int(r["request_id"]) for r in rows]
    errors = []
    if len(ids) != n:
        errors.append("requests.csv has %d rows, the scenario issues %d" % (len(ids), n))
    if sorted(ids) != list(range(n)):
        seen, dup = set(), set()
        for i in ids:
            (dup if i in seen else seen).add(i)
        missing = sorted(set(range(n)) - seen)
        errors.append("request ids are not 0..%d: %d missing (first %s), %d duplicated (first %s)"
                      % (n - 1, len(missing), missing[:3], len(dup), sorted(dup)[:3]))
    bad = [r["request_id"] for r in rows if r["status"] not in ("ok", "failed")]
    if bad:
        errors.append("requests with an unknown status: %s" % bad[:3])
    return errors


def check_bytes(doc: dict, rows: list[dict], received: dict[int, int]) -> list[str]:
    """Each ok request received exactly ``size_at(resolution)`` bytes."""
    errors = []
    for r in rows:
        if r["status"] != "ok":
            continue
        cid, res = pair_of(r["content"])
        want = size_at(doc, cid, res)
        got = received.get(int(r["request_id"]))
        if want is None or got != want:
            errors.append("request %s (%s) received %s bytes, expected %s"
                          % (r["request_id"], r["content"], got, want))
    return errors[:5]


def check_origin_fetches(doc: dict, counters: list[dict]) -> list[str]:
    """ICN mode fetches each requested pair from the origin exactly once;
    the cdn-only baseline has no gateway and fetches nothing."""
    fetches = sum(int(c["origin_fetches"]) for c in counters)
    want = len(requested_pairs(doc)) if doc.get("mode", "icn") == "icn" else 0
    if fetches != want:
        return ["origin fetched %d times, expected %d (one per requested pair)"
                % (fetches, want)]
    return []


# -- delivery lower bound --------------------------------------------------------

def topology(doc: dict) -> dict[str, dict[str, tuple[float, float]]]:
    """Adjacency ``node -> peer -> (latency_ms, bandwidth_mbps)`` of every
    link the scenario brings up: underlay links plus intra-slice links."""
    links = [(l["a"], l["b"], l["latency_ms"], l["bandwidth_mbps"])
             for l in doc["topology"]["links"]]
    for op in doc["northbound"]:
        if op["op"] in ("create_cdn_slice", "create_icn_slice"):
            links += [(l["a"], l["b"], l["latency_ms"], l["bandwidth_mbps"])
                      for l in op.get("links", [])]
    adj: dict[str, dict[str, tuple[float, float]]] = {}
    for a, b, lat, bw in links:
        adj.setdefault(a, {})[b] = (float(lat), float(bw))
        adj.setdefault(b, {})[a] = (float(lat), float(bw))
    return adj


def shortest_path(adj, src: str, dst: str) -> tuple[float, float] | None:
    """(latency_ms, bottleneck_mbps) of the lowest-latency simple path;
    among equal-latency paths the widest bottleneck, so the bound stays
    a lower bound whichever of them the program routes over."""
    best: tuple[float, float] | None = None

    def walk(node, seen, lat, bw):
        nonlocal best
        if node == dst:
            if best is None or lat < best[0] or (lat == best[0] and bw > best[1]):
                best = (lat, bw)
            return
        for peer, (l, b) in adj.get(node, {}).items():
            if peer not in seen:
                walk(peer, seen | {peer}, lat + l, min(bw, b))

    walk(src, {src}, 0.0, float("inf"))
    return best


def serialization_ms(nbytes: int, mbps: float) -> float:
    return nbytes * 8.0 / (mbps * 1000.0)


def lower_bounds(doc: dict, rows: list[dict]) -> dict[int, float]:
    """Closed-form lower bound on ``delivery_ms`` of each ok request.

    cdn-only: the whole object is one message from the serving node, so
    the bound is the round-trip propagation to it plus serialization of
    the content over the bottleneck link of the path.

    icn: a request can ride on segment interests that an earlier request
    of the same consumer node and content still has in flight, and later
    segments can come from a nearer cache than segment 0. So every request
    is bound by the serialization of all but one chunk over its access
    link, since all of them arrive after it was issued; a request with no
    such earlier request in flight also sent its own segment-0 interest,
    and is bound by the round trip to the node that served segment 0 plus
    serialization of that chunk over the path's bottleneck.
    """
    adj = topology(doc)
    icn = doc.get("mode", "icn") == "icn"
    chunk = chunk_size(doc)
    path_cache: dict[tuple[str, str], tuple[float, float] | None] = {}

    def path(a, b):
        if (a, b) not in path_cache:
            path_cache[(a, b)] = shortest_path(adj, a, b)
        return path_cache[(a, b)]

    shared: set[int] = set()
    if icn:
        groups: dict[tuple[str, str], list[dict]] = {}
        for r in rows:
            groups.setdefault((r["consumer_node"], r["content"]), []).append(r)
        for group in groups.values():
            group.sort(key=lambda r: (float(r["t_issue_ms"]), int(r["request_id"])))
            busy_until = float("-inf")
            for r in group:
                t = float(r["t_issue_ms"])
                if busy_until >= t:
                    shared.add(int(r["request_id"]))
                busy_until = max(busy_until, float(r["t_complete_ms"]))

    out: dict[int, float] = {}
    for r in rows:
        if r["status"] != "ok":
            continue
        rid = int(r["request_id"])
        node, server = r["consumer_node"], r["served_by"]
        size = size_at(doc, *pair_of(r["content"])) or 0
        p = path(node, server)
        if p is None:
            out[rid] = float("inf")  # unreachable server: always reported
            continue
        lat, bottleneck = p
        if not icn:
            out[rid] = 2.0 * lat + serialization_ms(size, bottleneck)
            continue
        access = max(bw for _lat, bw in adj[node].values())
        bound = serialization_ms(max(0, size - chunk), access)
        if rid not in shared:
            bound = max(bound, 2.0 * lat + serialization_ms(min(size, chunk), bottleneck))
        out[rid] = bound
    return out


def check_delivery_bounds(doc: dict, rows: list[dict]) -> list[str]:
    bounds = lower_bounds(doc, rows)
    errors = []
    for r in rows:
        rid = int(r["request_id"])
        if rid in bounds and float(r["delivery_ms"]) < bounds[rid]:
            errors.append("request %d delivered in %s ms, below its lower bound %.6f ms"
                          " (%s from %s)" % (rid, r["delivery_ms"], bounds[rid],
                                             r["consumer_node"], r["served_by"]))
    return errors[:5]


def check_run(doc: dict, out_dir: Path, received: dict[int, int]) -> list[str]:
    """All record-level checks on one run's output directory."""
    rows = read_csv(out_dir / "requests.csv")
    counters = read_csv(out_dir / "node_counters.csv")
    return (check_request_ids(doc, rows) + check_bytes(doc, rows, received)
            + check_origin_fetches(doc, counters) + check_delivery_bounds(doc, rows))


# -- payload bytes ------------------------------------------------------------------

def synthetic_stream(key: bytes, length: int) -> bytes:
    """The documented synthetic byte stream: SHA-256 of ``key`` followed by
    an 8-byte big-endian counter 0, 1, 2, ..., concatenated and cut to
    ``length`` bytes."""
    blocks = -(-length // 32)
    return b"".join(hashlib.sha256(key + i.to_bytes(8, "big")).digest()
                    for i in range(blocks))[:length]


class ExpectedPayloads:
    """Expected bytes of every (content, resolution) pair of a scenario.

    A source upload is the stream keyed ``"<seed>:<content_id>:<size>"``;
    a transcoded variant is the stream keyed by the SHA-256 of the source
    bytes followed by the variant tag, cut to the variant size.
    """

    def __init__(self, doc: dict):
        self.doc = doc
        self.seed = int(doc.get("seed", 0))
        self._cache: dict[tuple[str, str], bytes] = {}

    def source(self, cid: str) -> bytes:
        c = next(c for c in self.doc["contents"] if c["content_id"] == cid)
        return self.get(cid, c["source_resolution"])

    def get(self, cid: str, res: str) -> bytes:
        key = (cid, res)
        if key not in self._cache:
            c = next(c for c in self.doc["contents"] if c["content_id"] == cid)
            size = size_at(self.doc, cid, res)
            if res == c["source_resolution"]:
                data = synthetic_stream(("%d:%s:%d" % (self.seed, cid, size)).encode(), size)
            else:
                data = synthetic_stream(hashlib.sha256(self.source(cid)).digest()
                                        + res.encode(), size)
            self._cache[key] = data
        return self._cache[key]


def check_chunks(doc: dict, chunks: list[tuple[str, str, int | None, bytes]]) -> list[str]:
    """Every chunk handed to a consumer hashes like the matching slice of
    the expected payload. Each chunk is (content_id, resolution, segment,
    payload); segment None marks a whole object (cdn-only)."""
    expected = ExpectedPayloads(doc)
    step = chunk_size(doc)
    errors = []
    for cid, res, seg, payload in chunks:
        if size_at(doc, cid, res) is None:
            errors.append("chunk of undeclared pair %s/%s" % (cid, res))
            continue
        full = expected.get(cid, res)
        want = full if seg is None else full[seg * step:(seg + 1) * step]
        if hashlib.sha256(payload).digest() != hashlib.sha256(want).digest():
            errors.append("chunk %s/%s seg=%s does not match the expected payload"
                          % (cid, res, seg))
    return errors[:5]


def compare_outputs(a: Path, b: Path) -> list[str]:
    """The four output files of two runs are byte-identical."""
    errors = []
    for name in OUTPUT_FILES:
        pa, pb = a / name, b / name
        if not pa.exists() or not pb.exists():
            errors.append("%s missing from one run" % name)
        elif pa.read_bytes() != pb.read_bytes():
            errors.append("%s differs between the untraced and the traced run" % name)
    return errors
