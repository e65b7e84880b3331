"""Knob ranges, checked both ways from the ranges declared on ``Knobs``.

Inside: every knob drawn inside its range, on ``mini`` with at most three
requests, gives a run that ends and reports each issued request exactly
once in ``requests.csv``, as ``ok`` or ``failed``. Outside: one knob drawn
outside its range gives exactly one ``bad-value`` at ``knobs.<name>``.
"""

import csv
import dataclasses
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from icnsim.harness import build_and_run, write_outputs
from icnsim.orchestration import Knobs
from icnsim.scenario import parse_doc

from conftest import MINI

KNOBS = dataclasses.fields(Knobs)


def inside(f):
    low, high, low_open = f.metadata["range"]
    if high is None:
        high = 10 * f.default  # an open upper end is capped at 10x the default
    if isinstance(f.default, int):
        return st.integers(low + low_open, high)
    return st.floats(low, high, exclude_min=low_open)


def outside(f):
    low, high, low_open = f.metadata["range"]
    if isinstance(f.default, int):
        below = st.integers(max_value=low - 1)
        above = st.nothing() if high is None else st.integers(min_value=high + 1)
    else:
        below = st.floats(max_value=low, exclude_max=not low_open)
        above = st.nothing() if high is None else st.floats(min_value=high, exclude_min=True)
    return below | above


# horizon_ms keeps its default: a run that passes its horizon is a designed
# end with exit 3, not a hang.
KNOBS_INSIDE = st.fixed_dictionaries({f.name: inside(f) for f in KNOBS
                                      if f.name != "horizon_ms"})
KNOB_OUTSIDE = st.sampled_from(KNOBS).flatmap(
    lambda f: st.tuples(st.just(f.name), outside(f)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(KNOBS_INSIDE, st.integers(0, 3))
def test_knobs_inside_their_ranges_run_to_an_end(knobs, count):
    doc = json.loads(MINI.read_text())
    doc["knobs"] = knobs
    doc["populations"][0]["request_count"] = count
    scenario, diags = parse_doc(doc)
    assert diags == []
    run = build_and_run(scenario)
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(run, Path(tmp))
        with open(Path(tmp) / "requests.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    assert sorted(int(r["request_id"]) for r in rows) == list(range(count))
    assert {r["status"] for r in rows} <= {"ok", "failed"}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(KNOB_OUTSIDE)
def test_a_knob_outside_its_range_is_one_bad_value(knob):
    name, value = knob
    doc = json.loads(MINI.read_text())
    doc["knobs"][name] = value
    assert [(d.code, d.path) for d in parse_doc(doc)[1]] == [("bad-value", "knobs." + name)]
