import ast
import dataclasses
import json
import re

from fractions import Fraction

from icnsim import scenario as sc
from icnsim.orchestration import Knobs
from icnsim.scenario import REQUIRED, Tagged, apply_overrides, load_scenario, parse_doc, range_text

from conftest import MINI, REFERENCE, SCENARIOS

README = SCENARIOS.parent / "README.md"


def load_doc(path):
    return json.loads(path.read_text())


def test_reference_scenario_validates_clean():
    scenario, diags = load_scenario(REFERENCE)
    assert diags == []
    assert scenario is not None
    assert scenario.seed == 42
    assert len(scenario.populations) == 3
    assert scenario.knobs.chunk_size == 8192


def test_mini_scenario_validates_clean():
    assert parse_doc(load_doc(MINI))[1] == []


def test_unknown_node_in_link_diagnosed_with_path():
    doc = load_doc(MINI)
    doc["topology"]["links"][0]["b"] = "ghost"
    diags = parse_doc(doc)[1]
    assert any(d.code == "bad-reference" and "ghost" in d.message
               and d.path.startswith("topology.links.0") for d in diags)


def test_icn_slice_without_ndn_node_is_invariant_diagnostic():
    doc = load_doc(MINI)
    for op in doc["northbound"]:
        if op["op"] == "create_icn_slice":
            op["vnfs"] = [v for v in op["vnfs"] if v["role"] != "ndn-node"]
    diags = parse_doc(doc)[1]
    assert any(d.code == "invariant" and "ndn-node" in d.message for d in diags)


def test_quota_infeasible_slice_names_domain():
    doc = load_doc(MINI)
    for op in doc["northbound"]:
        if op["op"] == "create_icn_slice":
            op["vnfs"][0]["flavor"]["vcpus"] = 999
    diags = parse_doc(doc)[1]
    assert any(d.code == "QuotaExceeded" and "dc" in d.message for d in diags)


def test_second_link_of_an_icn_slice_rejected():
    # Accepted at the parent commit: the run then answered no request,
    # since the gateway served only the second prefix while every FIB still
    # routed the first one to it.
    link = {"op": "link", "cdn": "c1", "icn": "i1", "prefix": "/cdn", "weight": 1.0}
    c2 = {"op": "create_cdn_slice", "slice": "c2", "duration_ms": 1000,
          "vnfs": [{"role": "cache", "node": "origin-2", "domain": "dc",
                    "flavor": {"vcpus": 1, "ram_mb": 1, "disk_gb": 1}}]}
    for extra, want in (([dict(link, weight=0.0)], []),
                        ([dict(link, prefix="/alt")], [("invariant", "northbound.4")]),
                        ([c2, dict(link, cdn="c2")], [("invariant", "northbound.5")])):
        doc = load_doc(MINI)
        doc["northbound"] += extra
        assert [(d.code, d.path) for d in parse_doc(doc)[1]] == want


def test_duplicate_node_ids_rejected():
    doc = load_doc(MINI)
    doc["topology"]["nodes"].append({"id": "client"})
    diags = parse_doc(doc)[1]
    assert any(d.code == "duplicate" for d in diags)


def test_topology_link_duplicating_slice_link_rejected():
    edge_gw = {"a": "edge", "b": "gw", "latency_ms": 1, "bandwidth_mbps": 10}
    for link in (edge_gw, dict(edge_gw, a="gw", b="edge")):
        doc = load_doc(MINI)
        doc["topology"]["links"].append(link)
        diags = parse_doc(doc)[1]
        assert [(d.code, d.path) for d in diags] == [("duplicate", "topology.links.2")]


def test_bad_mode_rejected():
    doc = load_doc(MINI)
    doc["mode"] = "both"
    assert any(d.path == "mode" for d in parse_doc(doc)[1])


def test_bad_pattern_rejected():
    doc = load_doc(MINI)
    doc["populations"][0]["pattern"] = {"kind": "bursty"}
    assert any("pattern" in d.path for d in parse_doc(doc)[1])


def test_population_content_must_resolve():
    doc = load_doc(MINI)
    doc["populations"][0]["content"] = "/cdn/ghost/720p"
    assert any("unknown content id" in d.message for d in parse_doc(doc)[1])
    doc = load_doc(MINI)
    doc["populations"][0]["content"] = "/cdn/clip/4k"
    assert any("not declared" in d.message for d in parse_doc(doc)[1])
    doc = load_doc(MINI)
    doc["populations"][0]["content"] = "/elsewhere/clip/720p"
    assert any("linked prefix" in d.message for d in parse_doc(doc)[1])


def test_population_attach_node_must_exist():
    doc = load_doc(MINI)
    doc["populations"][0]["attach_node"] = "nowhere"
    assert any(d.code == "bad-reference" and "attach_node" in d.path
               for d in parse_doc(doc)[1])


def test_unknown_top_level_and_knob_fields():
    doc = load_doc(MINI)
    doc["extra"] = 1
    assert any(d.code == "unknown-field" for d in parse_doc(doc)[1])
    # pit_sweep_ms was a knob once; PIT entries now expire at their deadline.
    for knob in ("warp_speed", "pit_sweep_ms"):
        doc = load_doc(MINI)
        doc["knobs"][knob] = 9
        assert any(d.code == "unknown-field" and d.path == "knobs." + knob
                   for d in parse_doc(doc)[1])


def test_readme_knob_table_matches_knobs():
    rows = re.findall(r"^\s*\| `(\w+)` \| ([-+.\d]+) \| `([^`]+)` \|", README.read_text(),
                      re.M)
    documented = [(name, ast.literal_eval(default), rng) for name, default, rng in rows]
    assert documented == [(f.name, f.default, range_text(f.metadata["range"]))
                          for f in dataclasses.fields(Knobs)]


# Each field table, by the name the README gives its object, in README order.
TABLES = [("scenario", sc.SCENARIO), ("knobs", sc.KNOBS), ("topology", sc.TOPOLOGY),
          ("domain", sc.DOMAIN), ("flavor", sc.FLAVOR), ("node", sc.NODE), ("link", sc.LINK),
          ("content", sc.CONTENT), ("resolution", sc.RESOLUTION), ("op", sc.OP),
          ("vnf", sc.VNF), ("population", sc.POPULATION), ("pattern", sc.PATTERN)]
NAMES = {id(table): name for name, table in TABLES}
TYPES = {int: "integer", float: "number", str: "string", object: "any",
         Fraction: "number or ratio"}


def field_rows(obj, table):
    for key, (kind, rng, default) in table.items():
        if type(kind) is list:
            kind_text = "list of `%s`" % NAMES[id(kind[0])]
        else:
            kind_text = TYPES[kind] if isinstance(kind, type) else "`%s`" % NAMES[id(kind)]
        rng_text = ("" if rng is None else ", ".join("`%s`" % v for v in rng)
                    if kind is str else "`%s`" % range_text(rng))
        default_text = "required" if default is REQUIRED else "`%s`" % json.dumps(default)
        yield "| %s | `%s` | %s | %s | %s |" % (obj, key, kind_text, rng_text, default_text)


def reference_rows():
    """The README's field reference, one row per field of each table. A
    Tagged object's tag comes first, then the fields of each table it names;
    the knobs have their own table."""
    for name, table in TABLES:
        if name == "knobs":
            continue
        if type(table) is not Tagged:
            yield from field_rows("`%s`" % name, table)
            continue
        implied = ("`%s` if `%s` is given, else required" % table.implied[::-1]
                   if table.implied else "required")
        yield "| `%s` | `%s` | string | %s | %s |" % (
            name, table.tag, ", ".join("`%s`" % t for t in table.tables), implied)
        shown = []
        for fields in table.tables.values():
            if all(fields is not f for f in shown):
                shown.append(fields)
                tags = ", ".join("`%s`" % t for t, f in table.tables.items() if f is fields)
                yield from field_rows("`%s` %s" % (name, tags), fields)


def test_readme_field_reference_matches_tables():
    lines = README.read_text().splitlines()
    start = lines.index("| object | field | type | range | default |") + 2
    end = lines.index("", start)
    assert lines[start:end] == list(reference_rows())


def test_every_field_table_is_named():
    # Every table a scenario reaches has a README name, so has rows.
    seen, todo = set(), [sc.SCENARIO]
    while todo:
        table = todo.pop()
        seen.add(id(table))
        tables = table.tables.values() if type(table) is Tagged else [table]
        for fields in tables:
            for kind, _, _ in fields.values():
                kind = kind[0] if type(kind) is list else kind
                if type(kind) in (dict, Tagged) and id(kind) not in seen:
                    todo.append(kind)
    assert seen == set(NAMES)


def test_unknown_key_in_any_object_is_unknown_field():
    doc = load_doc(MINI)
    doc["topology"]["nodes"][0]["capacity"] = 1
    doc["northbound"][2]["vnfs"][0]["flavor"]["gpus"] = 1
    doc["populations"][0]["pattern"]["rate_per_s"] = 5
    doc["populations"][0]["retransmit"] = 100
    assert [(d.code, d.path) for d in parse_doc(doc)[1]] == [
        ("unknown-field", "topology.nodes.0.capacity"),
        ("unknown-field", "northbound.2.vnfs.0.flavor.gpus"),
        ("unknown-field", "populations.0.pattern.rate_per_s"),
        ("unknown-field", "populations.0.retransmit")]


def test_upload_requires_existing_cdn_slice():
    doc = load_doc(MINI)
    doc["northbound"][1]["slice"] = "nope"
    assert any("CDN slice" in d.message for d in parse_doc(doc)[1])


def test_poisson_pattern_accepted():
    doc = load_doc(MINI)
    doc["populations"][0]["pattern"] = {"kind": "poisson", "rate_per_s": 20}
    scenario, diags = parse_doc(doc)
    assert diags == []
    assert scenario.populations[0].pattern == ("poisson", 20.0)


def test_pattern_kind_defaults_to_uniform():
    doc = load_doc(MINI)
    doc["populations"][0]["pattern"] = {"interval_ms": 25}
    scenario, diags = parse_doc(doc)
    assert diags == []
    assert scenario.populations[0].pattern == ("uniform", 25.0)


def test_overrides_dotted_paths():
    doc = load_doc(MINI)
    diags = apply_overrides(doc, ["knobs.chunk_size=16384",
                                  "populations.0.request_count=3",
                                  "seed=99", "mode=cdn-only"])
    assert diags == []
    scenario, diags = parse_doc(doc)
    assert diags == []
    assert scenario.knobs.chunk_size == 16384
    assert scenario.populations[0].request_count == 3
    assert scenario.seed == 99 and scenario.mode == "cdn-only"


def test_override_string_values_fall_back():
    doc = load_doc(MINI)
    apply_overrides(doc, ["populations.0.region=apac"])
    scenario, diags = parse_doc(doc)
    assert scenario.populations[0].region == "apac"


def test_bad_override_paths_diagnosed():
    doc = load_doc(MINI)
    assert apply_overrides(doc, ["populations.99.request_count=1"])
    assert apply_overrides(doc, ["no-equals-sign"])


def test_resolution_size_scaling():
    scenario, _ = load_scenario(MINI)
    clip = scenario.contents[0]
    assert clip.size_at("720p") == 16384
    assert clip.size_at("360p") == 4096
    assert clip.size_at("8k") is None


def test_scale_validation():
    # A variant's scale must lie in (0, 1]; a ratio string is read exactly.
    for scale in (0, 1.5):
        doc = load_doc(MINI)
        doc["contents"][0]["resolutions"][0]["scale"] = scale
        assert [(d.code, d.path) for d in parse_doc(doc)[1]] == [
            ("bad-value", "contents.0.resolutions.0.scale")], scale
    doc = load_doc(MINI)
    doc["contents"][0]["resolutions"][0]["scale"] = "1/3"
    scenario, diags = parse_doc(doc)
    assert diags == [] and scenario.contents[0].resolutions == [("360p", Fraction(1, 3))]


def test_missing_file_is_io_error():
    scenario, diags = load_scenario("/nonexistent/path.json")
    assert scenario is None
    assert diags[0].code == "io-error"


def test_bad_json_is_parse_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    scenario, diags = load_scenario(p)
    assert scenario is None
    assert diags[0].code == "parse-error"
