"""Scenario files: schema, overrides, static validation.

A scenario is one JSON document that fully determines a run: seed,
domains, underlay topology, content catalog, the ordered northbound
request list, consumer populations and tuning knobs. ``validate_doc``
performs the full static check (references, invariants, static quota
feasibility) without running anything and returns machine-readable
diagnostics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from .ndn import MalformedUri, Name
from .orchestration import (DomainSpec, Flavor, Knobs, QuotaExceeded, SliceSpec,
                            Vim, VnfSpec, allocate_all, slice_faults)

NORTHBOUND_OPS = ("create_cdn_slice", "create_icn_slice", "upload",
                  "transcode", "link", "destroy")


@dataclass(slots=True)
class Diagnostic:
    code: str
    path: str
    message: str

    def as_json(self) -> str:
        return json.dumps({"code": self.code, "path": self.path,
                           "message": self.message}, sort_keys=True)


@dataclass(slots=True)
class NodeDef:
    id: str
    cs_capacity_bytes: int = 0


@dataclass(slots=True)
class LinkDef:
    a: str
    b: str
    latency_ms: float
    bandwidth_mbps: float


@dataclass(slots=True)
class ContentDef:
    content_id: str
    size_bytes: int
    source_resolution: str
    resolutions: list[tuple[str, Fraction]] = field(default_factory=list)

    def size_at(self, resolution: str) -> int | None:
        if resolution == self.source_resolution:
            return self.size_bytes
        for tag, scale in self.resolutions:
            if tag == resolution:
                return self.size_bytes * scale.numerator // scale.denominator
        return None


@dataclass(slots=True)
class PopulationDef:
    region: str
    attach_node: str
    request_count: int
    content: Name
    pattern: tuple
    retransmit_ms: float
    content_id: str = ""
    resolution: str = ""
    content_size: int = 0


@dataclass(slots=True)
class Scenario:
    seed: int
    mode: str
    domains: list[DomainSpec]
    nodes: list[NodeDef]
    links: list[LinkDef]
    contents: list[ContentDef]
    northbound: list[dict]
    populations: list[PopulationDef]
    knobs: Knobs
    name: str = "scenario"


class ScenarioError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(d.message for d in diagnostics[:3]))
        self.diagnostics = diagnostics


def apply_overrides(doc: dict, sets: list[str]) -> list[Diagnostic]:
    """Apply ``key.path=value`` overrides in place; dotted path, numeric
    path parts index lists, values parsed as JSON with string fallback."""
    diags = []
    for item in sets:
        if "=" not in item:
            diags.append(Diagnostic("bad-override", item, "override needs key=value"))
            continue
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = key.split(".")
        target = doc
        ok = True
        for i, part in enumerate(parts[:-1]):
            if isinstance(target, list):
                try:
                    target = target[int(part)]
                except (ValueError, IndexError):
                    ok = False
                    break
            elif isinstance(target, dict):
                if part not in target:
                    target[part] = {}
                target = target[part]
            else:
                ok = False
                break
        if not ok:
            diags.append(Diagnostic("bad-override", key, "override path does not resolve"))
            continue
        last = parts[-1]
        if isinstance(target, list):
            try:
                target[int(last)] = value
            except (ValueError, IndexError):
                diags.append(Diagnostic("bad-override", key, "override index out of range"))
        elif isinstance(target, dict):
            target[last] = value
        else:
            diags.append(Diagnostic("bad-override", key, "override path does not resolve"))
    return diags


def _want(diags, doc, key, types, path, default=None, required=False):
    v = doc.get(key, default)
    if v is None and required:
        diags.append(Diagnostic("missing-field", "%s.%s" % (path, key),
                                "required field %r missing" % key))
        return None
    if v is not None and not isinstance(v, types):
        diags.append(Diagnostic("bad-value", "%s.%s" % (path, key),
                                "field %r has wrong type" % key))
        return None
    return v


def _parse_flavor(diags, doc, path) -> Flavor | None:
    if not isinstance(doc, dict):
        diags.append(Diagnostic("bad-value", path, "flavor must be an object"))
        return None
    vals = []
    for k in ("vcpus", "ram_mb", "disk_gb"):
        v = doc.get(k)
        if not isinstance(v, int) or v < 1:
            diags.append(Diagnostic("bad-value", "%s.%s" % (path, k),
                                    "%s must be an integer >= 1" % k))
            return None
        vals.append(v)
    return Flavor(*vals)


def _parse_pattern(diags, doc, path) -> tuple | None:
    if not isinstance(doc, dict):
        diags.append(Diagnostic("bad-value", path, "pattern must be an object"))
        return None
    kind = doc.get("kind", "uniform" if "interval_ms" in doc else None)
    if kind == "uniform":
        iv = doc.get("interval_ms")
        if not isinstance(iv, (int, float)) or iv < 0:
            diags.append(Diagnostic("bad-value", path + ".interval_ms",
                                    "interval_ms must be a number >= 0"))
            return None
        return ("uniform", float(iv))
    if kind == "poisson":
        rate = doc.get("rate_per_s")
        if not isinstance(rate, (int, float)) or rate <= 0:
            diags.append(Diagnostic("bad-value", path + ".rate_per_s",
                                    "rate_per_s must be a number > 0"))
            return None
        return ("poisson", float(rate))
    diags.append(Diagnostic("bad-value", path + ".kind",
                            "pattern kind must be uniform or poisson"))
    return None


def parse_doc(doc: dict, name: str = "scenario") -> tuple[Scenario | None, list[Diagnostic]]:
    diags: list[Diagnostic] = []
    if not isinstance(doc, dict):
        return None, [Diagnostic("parse-error", "", "scenario must be a JSON object")]

    seed = _want(diags, doc, "seed", int, "", default=0)
    mode = _want(diags, doc, "mode", str, "", default="icn")
    if mode not in ("icn", "cdn-only"):
        diags.append(Diagnostic("bad-value", "mode", "mode must be icn or cdn-only"))

    knobs = Knobs()
    kdoc = doc.get("knobs", {})
    if not isinstance(kdoc, dict):
        diags.append(Diagnostic("bad-value", "knobs", "knobs must be an object"))
        kdoc = {}
    known = {f.name: f.type for f in fields(Knobs)}
    for k, v in kdoc.items():
        if k not in known:
            diags.append(Diagnostic("unknown-field", "knobs.%s" % k, "unknown knob %r" % k))
            continue
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            diags.append(Diagnostic("bad-value", "knobs.%s" % k, "knob %r must be numeric" % k))
            continue
        cur = getattr(knobs, k)
        setattr(knobs, k, int(v) if isinstance(cur, int) else float(v))
    if knobs.chunk_size < 1:
        diags.append(Diagnostic("bad-value", "knobs.chunk_size", "chunk_size must be >= 1"))
    if knobs.window < 1:
        diags.append(Diagnostic("bad-value", "knobs.window", "window must be >= 1"))
    if not 0.0 <= knobs.gateway_weight <= 1.0:
        diags.append(Diagnostic("bad-value", "knobs.gateway_weight",
                                "gateway_weight must be in [0, 1]"))

    domains: list[DomainSpec] = []
    seen_domains = set()
    for i, d in enumerate(doc.get("domains", [])):
        path = "domains.%d" % i
        dname = _want(diags, d, "name", str, path, required=True)
        region = _want(diags, d, "region", str, path, default="")
        quota = _parse_flavor(diags, d.get("quota", {}), path + ".quota")
        if dname is None or quota is None:
            continue
        if dname in seen_domains:
            diags.append(Diagnostic("duplicate", path + ".name", "duplicate domain %r" % dname))
            continue
        seen_domains.add(dname)
        domains.append(DomainSpec(dname, region or "", quota))

    topo = doc.get("topology", {})
    if not isinstance(topo, dict):
        diags.append(Diagnostic("bad-value", "topology", "topology must be an object"))
        topo = {}
    nodes: list[NodeDef] = []
    node_ids: set[str] = set()
    for i, n in enumerate(topo.get("nodes", [])):
        path = "topology.nodes.%d" % i
        nid = _want(diags, n, "id", str, path, required=True)
        cs = _want(diags, n, "cs_capacity_bytes", int, path, default=0)
        if nid is None:
            continue
        if nid in node_ids:
            diags.append(Diagnostic("duplicate", path + ".id", "duplicate node %r" % nid))
            continue
        node_ids.add(nid)
        nodes.append(NodeDef(nid, cs or 0))

    contents: list[ContentDef] = []
    content_by_id: dict[str, ContentDef] = {}
    for i, c in enumerate(doc.get("contents", [])):
        path = "contents.%d" % i
        cid = _want(diags, c, "content_id", str, path, required=True)
        size = _want(diags, c, "size_bytes", int, path, required=True)
        src = _want(diags, c, "source_resolution", str, path, required=True)
        if cid is None or size is None or src is None:
            continue
        if size < 0:
            diags.append(Diagnostic("bad-value", path + ".size_bytes", "size must be >= 0"))
            continue
        if cid in content_by_id:
            diags.append(Diagnostic("duplicate", path + ".content_id",
                                    "duplicate content %r" % cid))
            continue
        resolutions = []
        tags = {src}
        for j, r in enumerate(c.get("resolutions", [])):
            rpath = "%s.resolutions.%d" % (path, j)
            tag = _want(diags, r, "tag", str, rpath, required=True)
            scale = r.get("scale") if isinstance(r, dict) else None
            if tag is None:
                continue
            if tag in tags:
                diags.append(Diagnostic("duplicate", rpath + ".tag",
                                        "duplicate resolution %r" % tag))
                continue
            try:
                frac = Fraction(str(scale))
            except (ValueError, ZeroDivisionError, TypeError):
                diags.append(Diagnostic("bad-value", rpath + ".scale", "bad scale"))
                continue
            if not 0 < frac <= 1:
                diags.append(Diagnostic("bad-value", rpath + ".scale",
                                        "scale must be in (0, 1]"))
                continue
            tags.add(tag)
            resolutions.append((tag, frac))
        cd = ContentDef(cid, size, src, resolutions)
        contents.append(cd)
        content_by_id[cid] = cd

    # Northbound: parse ops, check slices, replay quotas, collect what exists.
    northbound: list[dict] = []
    slice_labels: dict[str, str] = {}  # label -> kind
    slice_allocs: dict[str, list] = {}
    vims = {d.name: Vim(d) for d in domains}
    produced: set[tuple[str, str]] = set()  # (content_id, resolution)
    link_prefixes: list[Name] = []
    for i, op in enumerate(doc.get("northbound", [])):
        path = "northbound.%d" % i
        if not isinstance(op, dict):
            diags.append(Diagnostic("bad-value", path, "northbound op must be an object"))
            continue
        kind = op.get("op")
        if kind not in NORTHBOUND_OPS:
            diags.append(Diagnostic("bad-value", path + ".op",
                                    "op must be one of %s" % (NORTHBOUND_OPS,)))
            continue
        rec = {"op": kind}
        if kind in ("create_cdn_slice", "create_icn_slice"):
            label = _want(diags, op, "slice", str, path, required=True)
            duration = _want(diags, op, "duration_ms", (int, float), path,
                             default=86_400_000.0)
            if label is None:
                continue
            if label in slice_labels:
                diags.append(Diagnostic("duplicate", path + ".slice",
                                        "duplicate slice label %r" % label))
                continue
            skind = "CDN" if kind == "create_cdn_slice" else "ICN"
            parsed = len(diags)
            vnfs: list[VnfSpec] = []
            for j, v in enumerate(op.get("vnfs", [])):
                vpath = "%s.vnfs.%d" % (path, j)
                role = _want(diags, v, "role", str, vpath, required=True)
                dom = _want(diags, v, "domain", str, vpath, required=True)
                nid = _want(diags, v, "node", str, vpath, required=True)
                cs = _want(diags, v, "cs_capacity_bytes", int, vpath)
                flavor = _parse_flavor(diags, v.get("flavor", {}), vpath + ".flavor")
                if None not in (role, dom, nid) and flavor is not None:
                    vnfs.append(VnfSpec(role, dom, flavor, nid, cs))
            links = []
            for j, l in enumerate(op.get("links", [])):
                lpath = "%s.links.%d" % (path, j)
                a = _want(diags, l, "a", str, lpath, required=True)
                b = _want(diags, l, "b", str, lpath, required=True)
                lat = _want(diags, l, "latency_ms", (int, float), lpath, required=True)
                bw = _want(diags, l, "bandwidth_mbps", (int, float), lpath, required=True)
                if None not in (a, b, lat, bw):
                    links.append((a, b, float(lat), float(bw)))
            spec = SliceSpec(skind, float(duration or 0), vnfs, links)
            if len(diags) == parsed:
                # Every vnf and link parsed, so rule sub-paths index the document.
                for code, sub, message in slice_faults(spec, vims, node_ids):
                    diags.append(Diagnostic(code, "%s.%s" % (path, sub) if sub else path,
                                            message))
            node_ids.update(v.node for v in vnfs)
            if len(diags) == parsed:
                try:
                    slice_allocs[label] = allocate_all(vims, vnfs)
                except QuotaExceeded as e:
                    diags.append(Diagnostic("QuotaExceeded", path,
                                            "domain %r cannot fit slice %r" % (e.domain, label)))
            slice_labels[label] = skind
            rec.update(slice=label, spec=spec)
        elif kind in ("upload", "transcode"):
            label = _want(diags, op, "slice", str, path, required=True)
            cid = _want(diags, op, "content_id", str, path, required=True)
            tag = _want(diags, op, "tag", str, path, required=True) if kind == "transcode" else None
            if label is not None and slice_labels.get(label) != "CDN":
                diags.append(Diagnostic("bad-reference", path + ".slice",
                                        "%s needs an existing CDN slice" % kind))
            cd = content_by_id.get(cid or "")
            if cid is not None and cd is None:
                diags.append(Diagnostic("bad-reference", path + ".content_id",
                                        "unknown content %r" % cid))
            elif cd is not None and kind == "upload":
                produced.add((cid, cd.source_resolution))
            elif cd is not None and tag is not None:
                if tag != cd.source_resolution and all(t != tag for t, _ in cd.resolutions):
                    diags.append(Diagnostic("bad-reference", path + ".tag",
                                            "resolution %r not declared for %r" % (tag, cid)))
                else:
                    produced.add((cid, tag))
            rec.update(slice=label, content_id=cid, tag=tag)
        elif kind == "link":
            cdn = _want(diags, op, "cdn", str, path, required=True)
            icn = _want(diags, op, "icn", str, path, required=True)
            weight = _want(diags, op, "weight", (int, float), path)
            prefix = _want(diags, op, "prefix", str, path, default="/cdn")
            if cdn is not None and slice_labels.get(cdn) != "CDN":
                diags.append(Diagnostic("bad-reference", path + ".cdn",
                                        "link needs an existing CDN slice"))
            if icn is not None and slice_labels.get(icn) != "ICN":
                diags.append(Diagnostic("bad-reference", path + ".icn",
                                        "link needs an existing ICN slice"))
            pname = None
            try:
                pname = Name.parse(prefix or "/cdn")
            except MalformedUri as e:
                diags.append(Diagnostic("bad-value", path + ".prefix", str(e)))
            if weight is not None and not 0 <= weight <= 1:
                diags.append(Diagnostic("bad-value", path + ".weight",
                                        "weight must be in [0, 1]"))
            if pname is not None:
                link_prefixes.append(pname)
            rec.update(cdn=cdn, icn=icn, weight=weight, prefix=prefix or "/cdn")
        elif kind == "destroy":
            label = _want(diags, op, "slice", str, path, required=True)
            if label is not None and label not in slice_labels:
                diags.append(Diagnostic("bad-reference", path + ".slice",
                                        "unknown slice %r" % label))
            else:
                for a in slice_allocs.pop(label, []):
                    vims[a.domain].release(a)
                slice_labels.pop(label, None)
            rec.update(slice=label)
        northbound.append(rec)

    links: list[LinkDef] = []
    seen_links = set()
    for i, l in enumerate(topo.get("links", [])):
        path = "topology.links.%d" % i
        a = _want(diags, l, "a", str, path, required=True)
        b = _want(diags, l, "b", str, path, required=True)
        lat = _want(diags, l, "latency_ms", (int, float), path, required=True)
        bw = _want(diags, l, "bandwidth_mbps", (int, float), path, required=True)
        if None in (a, b, lat, bw):
            continue
        for end, key in ((a, "a"), (b, "b")):
            if end not in node_ids:
                diags.append(Diagnostic("bad-reference", "%s.%s" % (path, key),
                                        "unknown node %r in link" % end))
        if a not in node_ids or b not in node_ids:
            continue
        if bw <= 0:
            diags.append(Diagnostic("bad-value", path + ".bandwidth_mbps",
                                    "bandwidth must be > 0"))
            continue
        if lat < 0:
            diags.append(Diagnostic("bad-value", path + ".latency_ms",
                                    "latency must be >= 0"))
            continue
        key = (a, b) if a < b else (b, a)
        if key in seen_links:
            diags.append(Diagnostic("duplicate", path, "duplicate link %r-%r" % (a, b)))
            continue
        seen_links.add(key)
        links.append(LinkDef(a, b, float(lat), float(bw)))

    populations: list[PopulationDef] = []
    for i, p in enumerate(doc.get("populations", [])):
        path = "populations.%d" % i
        region = _want(diags, p, "region", str, path, required=True)
        attach = _want(diags, p, "attach_node", str, path, required=True)
        count = _want(diags, p, "request_count", int, path, required=True)
        content = _want(diags, p, "content", str, path, required=True)
        retrans = _want(diags, p, "retransmit_ms", (int, float), path, default=4500.0)
        pattern = _parse_pattern(diags, p.get("pattern", {}), path + ".pattern")
        if None in (region, attach, count, content) or pattern is None:
            continue
        if count < 0:
            diags.append(Diagnostic("bad-value", path + ".request_count",
                                    "request_count must be >= 0"))
            continue
        if attach not in node_ids:
            diags.append(Diagnostic("bad-reference", path + ".attach_node",
                                    "unknown node %r" % attach))
            continue
        try:
            cname = Name.parse(content)
        except MalformedUri as e:
            diags.append(Diagnostic("bad-value", path + ".content", str(e)))
            continue
        if len(cname) < 2:
            diags.append(Diagnostic("bad-value", path + ".content",
                                    "content name needs <prefix>/<id>/<resolution>"))
            continue
        cid = cname.components[-2].decode("utf-8", "replace")
        resolution = cname.components[-1].decode("utf-8", "replace")
        cd = content_by_id.get(cid)
        if cd is None:
            diags.append(Diagnostic("bad-reference", path + ".content",
                                    "unknown content id %r" % cid))
            continue
        size = cd.size_at(resolution)
        if size is None:
            diags.append(Diagnostic("bad-reference", path + ".content",
                                    "resolution %r not declared for %r" % (resolution, cid)))
            continue
        if (cid, resolution) not in produced:
            diags.append(Diagnostic("bad-reference", path + ".content",
                                    "no upload or transcode produces %r at %r"
                                    % (cid, resolution)))
            continue
        if mode == "icn" and link_prefixes and not any(
                pref.is_prefix_of(cname) for pref in link_prefixes):
            diags.append(Diagnostic("bad-reference", path + ".content",
                                    "content name is not under any linked prefix"))
            continue
        if retrans is None or retrans <= 0:
            diags.append(Diagnostic("bad-value", path + ".retransmit_ms",
                                    "retransmit_ms must be > 0"))
            continue
        populations.append(PopulationDef(region, attach, count, cname, pattern,
                                         float(retrans), cid, resolution, size))

    known_top = {"seed", "mode", "domains", "topology", "contents",
                 "northbound", "populations", "knobs", "name"}
    for k in doc:
        if k not in known_top:
            diags.append(Diagnostic("unknown-field", k, "unknown top-level field %r" % k))

    if diags:
        return None, diags
    return Scenario(seed or 0, mode, domains, nodes, links, contents,
                    northbound, populations, knobs,
                    str(doc.get("name", name))), []


def load_scenario(path: str | Path, sets: list[str] = ()) -> tuple[Scenario | None, list[Diagnostic]]:
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except OSError as e:
        return None, [Diagnostic("io-error", str(p), str(e))]
    except json.JSONDecodeError as e:
        return None, [Diagnostic("parse-error", str(p), "line %d: %s" % (e.lineno, e.msg))]
    diags = apply_overrides(doc, list(sets))
    if diags:
        return None, diags
    return parse_doc(doc, name=p.stem)


def validate_doc(doc: dict) -> list[Diagnostic]:
    _scenario, diags = parse_doc(doc)
    return diags
