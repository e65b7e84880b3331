"""Scenario files: schema, overrides, static validation.

A scenario is one JSON document that fully determines a run: seed,
domains, underlay topology, content catalog, the ordered northbound
request list, consumer populations and tuning knobs. ``parse_doc``
performs the full static check (references, invariants, static quota
feasibility) without running anything and returns the scenario and
machine-readable diagnostics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

from .ndn import MalformedUri, Name
from .orchestration import (AT_LEAST_1, NON_NEGATIVE, PERIOD_MS, POSITIVE, UNIT, DomainSpec,
                            Flavor, Knobs, QuotaExceeded, SliceSpec, Vim, VnfSpec,
                            allocate_all, slice_faults)

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


def range_text(rng) -> str:
    """A field range ``(low, high, low_open)`` in interval notation: ``[1, inf)``."""
    low, high, low_open = rng
    left = "(-inf" if low is None else "%s%s" % ("(" if low_open else "[", low)
    return "%s, %s" % (left, "inf)" if high is None else "%s]" % high)


def _want(diags, doc, key, types, path, default=None, required=False, rng=None):
    """Field ``key`` of ``doc``, or ``default`` if it is absent or null. A missing
    required field, a value not of ``types`` (a number is never a bool and always
    finite) or outside the range ``rng`` gets one diagnostic and reads as None."""
    kpath = "%s.%s" % (path, key) if path else key
    v = doc.get(key)
    if v is None:
        if required:
            diags.append(Diagnostic("missing-field", kpath, "required field %r missing" % key))
        return default
    if (not isinstance(v, types) or isinstance(v, bool)
            or isinstance(v, float) and not math.isfinite(v)):
        diags.append(Diagnostic("bad-value", kpath, "field %r has wrong type" % key))
        return None
    if rng is not None:
        low, high, low_open = rng
        if (low is not None and (v <= low if low_open else v < low)
                or high is not None and v > high):
            diags.append(Diagnostic("bad-value", kpath,
                                    "field %r must be in %s" % (key, range_text(rng))))
            return None
    return v


def _objects(diags, doc, key, path):
    """Yield (path, object) for each element of list field ``key``; a field
    that is not a list, or an element that is not an object, gets a
    ``bad-value`` diagnostic at its own path instead."""
    fpath = "%s.%s" % (path, key) if path else key
    items = doc.get(key, [])
    if not isinstance(items, list):
        diags.append(Diagnostic("bad-value", fpath, "field %r must be a list" % key))
        return
    for i, item in enumerate(items):
        ipath = "%s.%d" % (fpath, i)
        if isinstance(item, dict):
            yield ipath, item
        else:
            diags.append(Diagnostic("bad-value", ipath, "%s element must be an object" % key))


def _parse_flavor(diags, doc, path) -> Flavor | None:
    if not isinstance(doc, dict):
        diags.append(Diagnostic("bad-value", path, "flavor must be an object"))
        return None
    vals = [_want(diags, doc, k, int, path, required=True, rng=AT_LEAST_1)
            for k in ("vcpus", "ram_mb", "disk_gb")]
    return None if None in vals else Flavor(*vals)


def _parse_pattern(diags, doc, path) -> tuple | None:
    if not isinstance(doc, dict):
        diags.append(Diagnostic("bad-value", path, "pattern must be an object"))
        return None
    kind = doc.get("kind", "uniform" if "interval_ms" in doc else None)
    for pkind, key, rng in (("uniform", "interval_ms", NON_NEGATIVE),
                            ("poisson", "rate_per_s", POSITIVE)):
        if kind == pkind:
            v = _want(diags, doc, key, (int, float), path, required=True, rng=rng)
            return None if v is None else (kind, float(v))
    diags.append(Diagnostic("bad-value", path + ".kind",
                            "pattern kind must be uniform or poisson"))
    return None


def parse_doc(doc: dict, name: str = "scenario") -> tuple[Scenario | None, list[Diagnostic]]:
    diags: list[Diagnostic] = []
    if not isinstance(doc, dict):
        return None, [Diagnostic("parse-error", "", "scenario must be a JSON object")]

    seed = _want(diags, doc, "seed", int, "", default=0)
    mode = _want(diags, doc, "mode", str, "", default="icn")
    if mode is not None and mode not in ("icn", "cdn-only"):
        diags.append(Diagnostic("bad-value", "mode", "mode must be icn or cdn-only"))

    knobs = Knobs()
    kdoc = _want(diags, doc, "knobs", dict, "", default={}) or {}
    for f in fields(Knobs):
        kind = type(f.default)
        v = _want(diags, kdoc, f.name, kind if kind is int else (int, float), "knobs",
                  rng=f.metadata["range"])
        if v is not None:
            setattr(knobs, f.name, kind(v))
    for k in kdoc:
        if not any(k == f.name for f in fields(Knobs)):
            diags.append(Diagnostic("unknown-field", "knobs.%s" % k, "unknown knob %r" % k))

    domains: list[DomainSpec] = []
    seen_domains = set()
    for path, d in _objects(diags, doc, "domains", ""):
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

    topo = _want(diags, doc, "topology", dict, "", default={}) or {}
    nodes: list[NodeDef] = []
    node_ids: set[str] = set()
    for path, n in _objects(diags, topo, "nodes", "topology"):
        nid = _want(diags, n, "id", str, path, required=True)
        cs = _want(diags, n, "cs_capacity_bytes", int, path, default=0, rng=NON_NEGATIVE)
        if nid is None:
            continue
        if nid in node_ids:
            diags.append(Diagnostic("duplicate", path + ".id", "duplicate node %r" % nid))
            continue
        node_ids.add(nid)
        nodes.append(NodeDef(nid, cs))

    contents: list[ContentDef] = []
    content_by_id: dict[str, ContentDef] = {}
    for path, c in _objects(diags, doc, "contents", ""):
        cid = _want(diags, c, "content_id", str, path, required=True)
        size = _want(diags, c, "size_bytes", int, path, required=True, rng=NON_NEGATIVE)
        src = _want(diags, c, "source_resolution", str, path, required=True)
        if cid is None or size is None or src is None:
            continue
        if cid in content_by_id:
            diags.append(Diagnostic("duplicate", path + ".content_id",
                                    "duplicate content %r" % cid))
            continue
        resolutions = []
        tags = {src}
        for rpath, r in _objects(diags, c, "resolutions", path):
            tag = _want(diags, r, "tag", str, rpath, required=True)
            scale = r.get("scale")
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
    seen_links: set[tuple[str, str]] = set()  # linked node pairs, (low, high)
    link_prefixes: list[Name] = []
    for path, op in _objects(diags, doc, "northbound", ""):
        kind = op.get("op")
        if kind not in NORTHBOUND_OPS:
            diags.append(Diagnostic("bad-value", path + ".op",
                                    "op must be one of %s" % (NORTHBOUND_OPS,)))
            continue
        rec = {"op": kind}
        if kind in ("create_cdn_slice", "create_icn_slice"):
            label = _want(diags, op, "slice", str, path, required=True)
            duration = _want(diags, op, "duration_ms", (int, float), path,
                             default=86_400_000.0, rng=POSITIVE)
            if label is None:
                continue
            if label in slice_labels:
                diags.append(Diagnostic("duplicate", path + ".slice",
                                        "duplicate slice label %r" % label))
                continue
            skind = "CDN" if kind == "create_cdn_slice" else "ICN"
            parsed = len(diags)
            vnfs: list[VnfSpec] = []
            for vpath, v in _objects(diags, op, "vnfs", path):
                role = _want(diags, v, "role", str, vpath, required=True)
                dom = _want(diags, v, "domain", str, vpath, required=True)
                nid = _want(diags, v, "node", str, vpath, required=True)
                cs = _want(diags, v, "cs_capacity_bytes", int, vpath, rng=NON_NEGATIVE)
                flavor = _parse_flavor(diags, v.get("flavor", {}), vpath + ".flavor")
                if None not in (role, dom, nid) and flavor is not None:
                    vnfs.append(VnfSpec(role, dom, flavor, nid, cs))
            links = []
            for lpath, l in _objects(diags, op, "links", path):
                a = _want(diags, l, "a", str, lpath, required=True)
                b = _want(diags, l, "b", str, lpath, required=True)
                lat = _want(diags, l, "latency_ms", (int, float), lpath, required=True)
                bw = _want(diags, l, "bandwidth_mbps", (int, float), lpath, required=True)
                if None not in (a, b, lat, bw):
                    links.append((a, b, float(lat), float(bw)))
                    seen_links.add((a, b) if a < b else (b, a))
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
            weight = _want(diags, op, "weight", (int, float), path, rng=UNIT)
            prefix = _want(diags, op, "prefix", str, path, default="/cdn")
            if cdn is not None and slice_labels.get(cdn) != "CDN":
                diags.append(Diagnostic("bad-reference", path + ".cdn",
                                        "link needs an existing CDN slice"))
            if icn is not None and slice_labels.get(icn) != "ICN":
                diags.append(Diagnostic("bad-reference", path + ".icn",
                                        "link needs an existing ICN slice"))
            try:
                link_prefixes.append(Name.parse("/cdn" if prefix is None else prefix))
            except MalformedUri as e:
                diags.append(Diagnostic("bad-value", path + ".prefix", str(e)))
            rec.update(cdn=cdn, icn=icn, weight=weight, prefix=prefix)
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
    for path, l in _objects(diags, topo, "links", "topology"):
        a = _want(diags, l, "a", str, path, required=True)
        b = _want(diags, l, "b", str, path, required=True)
        lat = _want(diags, l, "latency_ms", (int, float), path, required=True,
                    rng=NON_NEGATIVE)
        bw = _want(diags, l, "bandwidth_mbps", (int, float), path, required=True, rng=POSITIVE)
        if None in (a, b, lat, bw):
            continue
        for end, key in ((a, "a"), (b, "b")):
            if end not in node_ids:
                diags.append(Diagnostic("bad-reference", "%s.%s" % (path, key),
                                        "unknown node %r in link" % end))
        if a not in node_ids or b not in node_ids:
            continue
        key = (a, b) if a < b else (b, a)
        if key in seen_links:
            diags.append(Diagnostic("duplicate", path, "duplicate link %r-%r" % (a, b)))
            continue
        seen_links.add(key)
        links.append(LinkDef(a, b, float(lat), float(bw)))

    populations: list[PopulationDef] = []
    for path, p in _objects(diags, doc, "populations", ""):
        region = _want(diags, p, "region", str, path, required=True)
        attach = _want(diags, p, "attach_node", str, path, required=True)
        count = _want(diags, p, "request_count", int, path, required=True, rng=NON_NEGATIVE)
        content = _want(diags, p, "content", str, path, required=True)
        retrans = _want(diags, p, "retransmit_ms", (int, float), path, default=4500.0,
                        rng=PERIOD_MS)
        pattern = _parse_pattern(diags, p.get("pattern", {}), path + ".pattern")
        if None in (region, attach, count, content, retrans) or pattern is None:
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
        populations.append(PopulationDef(region, attach, count, cname, pattern,
                                         float(retrans), cid, resolution, size))

    known_top = {"seed", "mode", "domains", "topology", "contents",
                 "northbound", "populations", "knobs", "name"}
    for k in doc:
        if k not in known_top:
            diags.append(Diagnostic("unknown-field", k, "unknown top-level field %r" % k))

    if diags:
        return None, diags
    return Scenario(seed, mode, domains, nodes, links, contents,
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

