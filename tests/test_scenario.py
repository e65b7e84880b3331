import ast
import dataclasses
import json
import re

from icnsim.orchestration import Knobs
from icnsim.scenario import (apply_overrides, load_scenario, parse_doc, range_text,
                             validate_doc)

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
    assert validate_doc(load_doc(MINI)) == []


def test_unknown_node_in_link_diagnosed_with_path():
    doc = load_doc(MINI)
    doc["topology"]["links"][0]["b"] = "ghost"
    diags = validate_doc(doc)
    assert any(d.code == "bad-reference" and "ghost" in d.message
               and d.path.startswith("topology.links.0") for d in diags)


def test_icn_slice_without_ndn_node_is_invariant_diagnostic():
    doc = load_doc(MINI)
    for op in doc["northbound"]:
        if op["op"] == "create_icn_slice":
            op["vnfs"] = [v for v in op["vnfs"] if v["role"] != "ndn-node"]
    diags = validate_doc(doc)
    assert any(d.code == "invariant" and "ndn-node" in d.message for d in diags)


def test_quota_infeasible_slice_names_domain():
    doc = load_doc(MINI)
    for op in doc["northbound"]:
        if op["op"] == "create_icn_slice":
            op["vnfs"][0]["flavor"]["vcpus"] = 999
    diags = validate_doc(doc)
    assert any(d.code == "QuotaExceeded" and "dc" in d.message for d in diags)


def test_duplicate_node_ids_rejected():
    doc = load_doc(MINI)
    doc["topology"]["nodes"].append({"id": "client"})
    diags = validate_doc(doc)
    assert any(d.code == "duplicate" for d in diags)


def test_topology_link_duplicating_slice_link_rejected():
    edge_gw = {"a": "edge", "b": "gw", "latency_ms": 1, "bandwidth_mbps": 10}
    for link in (edge_gw, dict(edge_gw, a="gw", b="edge")):
        doc = load_doc(MINI)
        doc["topology"]["links"].append(link)
        diags = validate_doc(doc)
        assert [(d.code, d.path) for d in diags] == [("duplicate", "topology.links.2")]


def test_bad_mode_rejected():
    doc = load_doc(MINI)
    doc["mode"] = "both"
    assert any(d.path == "mode" for d in validate_doc(doc))


def test_bad_pattern_rejected():
    doc = load_doc(MINI)
    doc["populations"][0]["pattern"] = {"kind": "bursty"}
    assert any("pattern" in d.path for d in validate_doc(doc))


def test_population_content_must_resolve():
    doc = load_doc(MINI)
    doc["populations"][0]["content"] = "/cdn/ghost/720p"
    assert any("unknown content id" in d.message for d in validate_doc(doc))
    doc = load_doc(MINI)
    doc["populations"][0]["content"] = "/cdn/clip/4k"
    assert any("not declared" in d.message for d in validate_doc(doc))
    doc = load_doc(MINI)
    doc["populations"][0]["content"] = "/elsewhere/clip/720p"
    assert any("linked prefix" in d.message for d in validate_doc(doc))


def test_population_attach_node_must_exist():
    doc = load_doc(MINI)
    doc["populations"][0]["attach_node"] = "nowhere"
    assert any(d.code == "bad-reference" and "attach_node" in d.path
               for d in validate_doc(doc))


def test_unknown_top_level_and_knob_fields():
    doc = load_doc(MINI)
    doc["extra"] = 1
    assert any(d.code == "unknown-field" for d in validate_doc(doc))
    # pit_sweep_ms was a knob once; PIT entries now expire at their deadline.
    for knob in ("warp_speed", "pit_sweep_ms"):
        doc = load_doc(MINI)
        doc["knobs"][knob] = 9
        assert any(d.code == "unknown-field" and d.path == "knobs." + knob
                   for d in validate_doc(doc))


def test_readme_knob_table_matches_knobs():
    rows = re.findall(r"^\s*\| `(\w+)` \| ([-+.\d]+) \| `([^`]+)` \|", README.read_text(),
                      re.M)
    documented = [(name, ast.literal_eval(default), rng) for name, default, rng in rows]
    assert documented == [(f.name, f.default, range_text(f.metadata["range"]))
                          for f in dataclasses.fields(Knobs)]


def test_upload_requires_existing_cdn_slice():
    doc = load_doc(MINI)
    doc["northbound"][1]["slice"] = "nope"
    assert any("CDN slice" in d.message for d in validate_doc(doc))


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
