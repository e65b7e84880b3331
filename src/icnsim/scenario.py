"""Scenario files: schema, overrides, static validation.

A scenario is one JSON document that fully determines a run: seed,
domains, underlay topology, content catalog, the ordered northbound
request list, consumer populations and tuning knobs. Each object type's
fields are declared once, in a field table, and one reader reads every
object from its table. ``parse_doc`` then performs the rest of the static
check (references, invariants, static quota feasibility) without running
anything and returns the scenario and machine-readable diagnostics.
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
                            allocate_all, link_fault, slice_faults)


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
        except ValueError:  # not JSON, or an integer too long to convert
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


REQUIRED = object()  # the default of a field that must be given
_BAD = object()  # a value that failed its check


@dataclass(frozen=True, slots=True)
class Tagged:
    """An object whose ``tag`` field names the table of its other fields. An
    absent tag reads as ``implied[1]`` when the object has key ``implied[0]``."""
    tag: str
    tables: dict
    implied: tuple = ()


# A field table maps each key of an object type to (kind, range, default).
# A kind is int, float, str, object (any value), Fraction (a number or text
# such as "1/4"), a table (a nested object), a Tagged, or a one-element list
# of a table or Tagged (a list of objects). A number's range is (low, high,
# low_open), an end None if open; a string's range lists its allowed values.
_STR = (str, None, REQUIRED)
FLAVOR = {key: (int, AT_LEAST_1, REQUIRED) for key in ("vcpus", "ram_mb", "disk_gb")}
DOMAIN = {"name": _STR, "region": (str, None, ""), "quota": (FLAVOR, None, REQUIRED)}
NODE = {"id": _STR, "cs_capacity_bytes": (int, NON_NEGATIVE, 0)}
# Topology links and intra-slice links alike.
LINK = {"a": _STR, "b": _STR, "latency_ms": (float, NON_NEGATIVE, REQUIRED),
        "bandwidth_mbps": (float, POSITIVE, REQUIRED)}
TOPOLOGY = {"nodes": ([NODE], None, []), "links": ([LINK], None, [])}
RESOLUTION = {"tag": _STR, "scale": (Fraction, (0, 1, True), REQUIRED)}
CONTENT = {"content_id": _STR, "size_bytes": (int, NON_NEGATIVE, REQUIRED),
           "source_resolution": _STR, "resolutions": ([RESOLUTION], None, [])}
VNF = {"role": _STR, "domain": _STR, "node": _STR,
       "cs_capacity_bytes": (int, NON_NEGATIVE, None), "flavor": (FLAVOR, None, REQUIRED)}
SLICE = {"slice": _STR, "duration_ms": (float, POSITIVE, 86_400_000.0),
         "vnfs": ([VNF], None, []), "links": ([LINK], None, [])}
OP = Tagged("op", {
    "create_cdn_slice": SLICE, "create_icn_slice": SLICE,
    "upload": {"slice": _STR, "content_id": _STR},
    "transcode": {"slice": _STR, "content_id": _STR, "tag": _STR},
    "link": {"cdn": _STR, "icn": _STR, "weight": (float, UNIT, None),
             "prefix": (str, None, "/cdn")},
    "destroy": {"slice": _STR}})
PATTERN = Tagged("kind", {"uniform": {"interval_ms": (float, NON_NEGATIVE, REQUIRED)},
                          "poisson": {"rate_per_s": (float, POSITIVE, REQUIRED)}},
                 ("interval_ms", "uniform"))
POPULATION = {"region": _STR, "attach_node": _STR,
              "request_count": (int, NON_NEGATIVE, REQUIRED), "content": _STR,
              "retransmit_ms": (float, PERIOD_MS, 4500.0), "pattern": (PATTERN, None, REQUIRED)}
KNOBS = {f.name: (type(f.default), f.metadata["range"], f.default) for f in fields(Knobs)}
SCENARIO = {"seed": (int, None, 0), "mode": (str, ("icn", "cdn-only"), "icn"),
            "knobs": (KNOBS, None, {}), "domains": ([DOMAIN], None, []),
            "topology": (TOPOLOGY, None, {}), "contents": ([CONTENT], None, []),
            "northbound": ([OP], None, []), "populations": ([POPULATION], None, []),
            "name": (object, None, None)}
_SCALARS = (int, float, str, object)


def _read(diags, obj, table, path, unknown=None):
    """Read the object ``obj`` by ``table``: (fields, ok).

    A scalar that is missing or null reads as its default, or is a
    ``missing-field`` if it has none. Any other field that is missing reads
    as its default or as ``{}``: an object then reports its own missing
    fields, and a scale is a bad value. Null reads as missing only in an
    object field with a default. A field that fails its check gets one
    ``bad-value`` and reads as its default, or None if it has none; a list
    reads as None. ``ok`` is False when a field with no default failed.
    Keys not in the table then get ``unknown-field``, in ``unknown`` if
    given.
    """
    out = {}
    tag = None
    if type(table) is Tagged:
        tag = table.tag
        value = obj.get(tag)
        if tag not in obj and table.implied and table.implied[0] in obj:
            value = table.implied[1]
        if type(value) is not str or value not in table.tables:
            _bad(diags, _join(path, tag), "%s must be one of %s" % (tag, tuple(table.tables)))
            return None, False
        out[tag] = value
        table = table.tables[value]
    ok = True
    for key, (kind, rng, default) in table.items():
        kpath = _join(path, key)
        scalar = kind in _SCALARS
        v = obj.get(key) if scalar else obj.get(key, {} if default is REQUIRED else default)
        if v is None and scalar:
            if default is REQUIRED:
                diags.append(Diagnostic("missing-field", kpath, "required field %r missing" % key))
                ok = False
            out[key] = None if default is REQUIRED else default
            continue
        if v is None and type(default) is dict:
            v = default
        v = _value(diags, v, kind, rng, kpath, key)
        if v is _BAD:
            ok = ok and default is not REQUIRED
            if type(kind) is list or default is REQUIRED:
                v = None
            else:
                v = default if scalar else _value(diags, default, kind, rng, kpath, key)
        out[key] = v
    for key in obj:
        if key not in table and key != tag:
            (diags if unknown is None else unknown).append(
                Diagnostic("unknown-field", _join(path, key), "unknown field %r" % key))
    return out, ok


def _value(diags, v, kind, rng, path, key):
    """``v`` checked and read as ``kind``, or _BAD after one diagnostic."""
    if type(kind) is list:
        if not isinstance(v, list):
            return _bad(diags, path, "field %r must be a list" % key)
        items = []
        for i, item in enumerate(v):
            ipath = "%s.%d" % (path, i)
            if not isinstance(item, dict):
                _bad(diags, ipath, "%s element must be an object" % key)
                items.append(None)
                continue
            item, ok = _read(diags, item, kind[0], ipath)
            # A northbound op keeps its good fields, so each reference is checked.
            items.append(item if ok or kind[0] is OP else None)
        return items
    if type(kind) is dict or type(kind) is Tagged:
        if not isinstance(v, dict):
            return _bad(diags, path, "field %r must be an object" % key)
        out, ok = _read(diags, v, kind, path)
        return out if ok else _BAD
    if kind is Fraction:
        try:
            v = Fraction(str(v))
        except (ValueError, ZeroDivisionError):
            return _bad(diags, path, "field %r must be a number or a ratio" % key)
    elif kind is float:
        if type(v) is not int and (type(v) is not float or not math.isfinite(v)):
            return _bad(diags, path, "field %r has wrong type" % key)
        try:
            v = float(v)
        except OverflowError:
            return _bad(diags, path, "field %r is too large" % key)
    elif type(v) is not kind and kind is not object:
        return _bad(diags, path, "field %r has wrong type" % key)
    if type(v) is str:
        try:
            v.encode("utf-8")
        except UnicodeEncodeError:
            return _bad(diags, path, "field %r is not UTF-8" % key)
        if rng is not None and v not in rng:
            return _bad(diags, path, "field %r must be one of %s" % (key, rng))
    elif rng is not None:
        low, high, low_open = rng
        if (low is not None and (v <= low if low_open else v < low)
                or high is not None and v > high):
            return _bad(diags, path, "field %r must be in %s" % (key, range_text(rng)))
    return v


def _bad(diags, path, message):
    diags.append(Diagnostic("bad-value", path, message))
    return _BAD


def _join(path, key):
    return "%s.%s" % (path, key) if path else key


def _items(items, path):
    """(path, object) for each element of a read list that was not dropped."""
    return (("%s.%d" % (path, i), x) for i, x in enumerate(items or ()) if x is not None)


def parse_doc(doc: dict, name: str = "scenario") -> tuple[Scenario | None, list[Diagnostic]]:
    """Read ``doc`` by the field tables, then make the checks that span
    objects: references, duplicates, the slice rules and the quota replay."""
    if not isinstance(doc, dict):
        return None, [Diagnostic("parse-error", "", "scenario must be a JSON object")]
    diags: list[Diagnostic] = []

    def fault(code, path, message):
        diags.append(Diagnostic(code, path, message))

    unknown: list[Diagnostic] = []  # top-level unknown keys come last
    top, _ = _read(diags, doc, SCENARIO, "", unknown)
    topo = top["topology"]

    domains: list[DomainSpec] = []
    for path, d in _items(top["domains"], "domains"):
        if any(d["name"] == x.name for x in domains):
            fault("duplicate", path + ".name", "duplicate domain %r" % d["name"])
        else:
            domains.append(DomainSpec(d["name"], d["region"], Flavor(**d["quota"])))

    nodes: list[NodeDef] = []
    node_ids: set[str] = set()
    for path, n in _items(topo["nodes"], "topology.nodes"):
        if n["id"] in node_ids:
            fault("duplicate", path + ".id", "duplicate node %r" % n["id"])
        else:
            node_ids.add(n["id"])
            nodes.append(NodeDef(n["id"], n["cs_capacity_bytes"]))

    content_by_id: dict[str, ContentDef] = {}
    for path, c in _items(top["contents"], "contents"):
        cid = c["content_id"]
        if cid in content_by_id:
            fault("duplicate", path + ".content_id", "duplicate content %r" % cid)
            continue
        cd = content_by_id[cid] = ContentDef(cid, c["size_bytes"], c["source_resolution"])
        for rpath, r in _items(c["resolutions"], path + ".resolutions"):
            if cd.size_at(r["tag"]) is not None:
                fault("duplicate", rpath + ".tag", "duplicate resolution %r" % r["tag"])
            else:
                cd.resolutions.append((r["tag"], r["scale"]))

    # Northbound: check slices, replay quotas, collect what exists.
    northbound: list[dict] = []
    slice_labels: dict[str, str] = {}  # label -> kind
    made_at: dict[str, str] = {}  # label -> path of the op that made its slice
    links_of: dict[str, tuple[str, Name]] = {}  # ICN slice -> (CDN slice, prefix), by made_at
    slice_allocs: dict[str, list] = {}
    vims = {d.name: Vim(d) for d in domains}
    produced: set[tuple[str, str]] = set()  # (content_id, resolution)
    seen_links: set[tuple[str, str]] = set()  # linked node pairs, (low, high)
    for path, op in _items(top["northbound"], "northbound"):
        kind = op["op"]
        if kind in ("create_cdn_slice", "create_icn_slice"):
            label = op["slice"]
            if label is None:
                continue
            if label in slice_labels:
                fault("duplicate", path + ".slice", "duplicate slice label %r" % label)
                continue
            skind = "CDN" if kind == "create_cdn_slice" else "ICN"
            vnfs = [VnfSpec(v["role"], v["domain"], Flavor(**v["flavor"]), v["node"],
                            v["cs_capacity_bytes"]) for _, v in _items(op["vnfs"], "")]
            links = [(l["a"], l["b"], l["latency_ms"], l["bandwidth_mbps"])
                     for _, l in _items(op["links"], "")]
            seen_links.update((a, b) if a < b else (b, a) for a, b, _, _ in links)
            op["spec"] = SliceSpec(skind, op["duration_ms"], vnfs, links)
            # Rule sub-paths index the document only if no vnf or link was dropped.
            faults = None
            if all(x is not None and None not in x for x in (op["vnfs"], op["links"])):
                faults = slice_faults(op["spec"], vims, node_ids)
                for code, sub, message in faults:
                    fault(code, "%s.%s" % (path, sub) if sub else path, message)
            node_ids.update(v.node for v in vnfs)
            if faults == []:
                try:
                    slice_allocs[label] = allocate_all(vims, vnfs)
                except QuotaExceeded as e:
                    fault("QuotaExceeded", path,
                          "domain %r cannot fit slice %r" % (e.domain, label))
            slice_labels[label] = skind
            made_at[label] = path
        elif kind in ("upload", "transcode"):
            label, cid, tag = op["slice"], op["content_id"], op.get("tag")
            if label is not None and slice_labels.get(label) != "CDN":
                fault("bad-reference", path + ".slice", "%s needs an existing CDN slice" % kind)
            cd = content_by_id.get(cid)
            if cid is not None and cd is None:
                fault("bad-reference", path + ".content_id", "unknown content %r" % cid)
            elif cd is not None and kind == "upload":
                produced.add((cid, cd.source_resolution))
            elif cd is not None and tag is not None:
                if cd.size_at(tag) is None:
                    fault("bad-reference", path + ".tag",
                          "resolution %r not declared for %r" % (tag, cid))
                else:
                    produced.add((cid, tag))
        elif kind == "link":
            for key, skind in (("cdn", "CDN"), ("icn", "ICN")):
                if op[key] is not None and slice_labels.get(op[key]) != skind:
                    fault("bad-reference", path + "." + key,
                          "link needs an existing %s slice" % skind)
            try:
                prefix = Name.parse(op["prefix"])
            except MalformedUri as e:
                fault("bad-value", path + ".prefix", str(e))
            else:
                if slice_labels.get(op["cdn"]) == "CDN" and slice_labels.get(op["icn"]) == "ICN":
                    icn, link = made_at[op["icn"]], (made_at[op["cdn"]], prefix)
                    problem = link_fault(links_of.setdefault(icn, link), link)
                    if problem:
                        fault("invariant", path, problem)
        elif kind == "destroy":
            label = op["slice"]
            if label is not None and label not in slice_labels:
                fault("bad-reference", path + ".slice", "unknown slice %r" % label)
            else:
                for a in slice_allocs.pop(label, []):
                    vims[a.domain].release(a)
                slice_labels.pop(label, None)
        northbound.append(op)

    links: list[LinkDef] = []
    for path, l in _items(topo["links"], "topology.links"):
        a, b = l["a"], l["b"]
        for end, key in ((a, "a"), (b, "b")):
            if end not in node_ids:
                fault("bad-reference", "%s.%s" % (path, key), "unknown node %r in link" % end)
        pair = (a, b) if a < b else (b, a)
        if a not in node_ids or b not in node_ids:
            continue
        if pair in seen_links:
            fault("duplicate", path, "duplicate link %r-%r" % (a, b))
            continue
        seen_links.add(pair)
        links.append(LinkDef(a, b, l["latency_ms"], l["bandwidth_mbps"]))

    populations: list[PopulationDef] = []
    for path, p in _items(top["populations"], "populations"):
        if p["attach_node"] not in node_ids:
            fault("bad-reference", path + ".attach_node", "unknown node %r" % p["attach_node"])
            continue
        try:
            cname = Name.parse(p["content"])
        except MalformedUri as e:
            fault("bad-value", path + ".content", str(e))
            continue
        if len(cname) < 2:
            fault("bad-value", path + ".content", "content name needs <prefix>/<id>/<resolution>")
            continue
        cid, resolution = (c.decode("utf-8", "replace") for c in cname.components[-2:])
        cd = content_by_id.get(cid)
        size = cd and cd.size_at(resolution)
        if cd is None:
            problem = "unknown content id %r" % cid
        elif size is None:
            problem = "resolution %r not declared for %r" % (resolution, cid)
        elif (cid, resolution) not in produced:
            problem = "no upload or transcode produces %r at %r" % (cid, resolution)
        elif top["mode"] == "icn" and links_of and not any(
                pref.is_prefix_of(cname) for _, pref in links_of.values()):
            problem = "content name is not under any linked prefix"
        else:
            populations.append(PopulationDef(
                p["region"], p["attach_node"], p["request_count"], cname,
                tuple(p["pattern"].values()), p["retransmit_ms"], cid, resolution, size))
            continue
        fault("bad-reference", path + ".content", problem)

    diags += unknown
    if diags:
        return None, diags
    return Scenario(top["seed"], top["mode"], domains, nodes, links,
                    list(content_by_id.values()), northbound, populations,
                    Knobs(**top["knobs"]), name if top["name"] is None else str(top["name"])), []


def load_scenario(path: str | Path, sets: list[str] = ()) -> tuple[Scenario | None, list[Diagnostic]]:
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except OSError as e:
        return None, [Diagnostic("io-error", str(p), str(e))]
    except json.JSONDecodeError as e:
        return None, [Diagnostic("parse-error", str(p), "line %d: %s" % (e.lineno, e.msg))]
    except ValueError as e:  # an integer too long to convert
        return None, [Diagnostic("parse-error", str(p), str(e))]
    diags = apply_overrides(doc, list(sets))
    if diags:
        return None, diags
    return parse_doc(doc, name=p.stem)

