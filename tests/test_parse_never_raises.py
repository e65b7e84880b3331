"""``parse_doc`` returns on any document one change away from ``mini``.

Each example puts one drawn JSON value at one path of
``scenarios/mini.json``, or deletes that path. Besides Hypothesis' own
values, the draw names the values that once escaped as exceptions: a
400-digit integer (``float`` overflows), a lone surrogate (not UTF-8),
and non-finite floats.
"""

import copy
import json

from hypothesis import example, given, settings, strategies as st

from icnsim.scenario import parse_doc

from conftest import MINI
from test_diagnostics_corpus import _paths

BASE = json.loads(MINI.read_text())
PATHS = list(_paths(BASE))
CODES = {"missing-field", "bad-value", "unknown-field", "duplicate", "bad-reference",
         "invariant", "QuotaExceeded"}

NAMED = st.sampled_from([10 ** 400, -(10 ** 400), "\ud800", "/cdn/\ud800/720p",
                         float("nan"), float("inf"), float("-inf")])
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
           | NAMED)
VALUES = NAMED | st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                              | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                              max_leaves=6)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(PATHS), VALUES, st.booleans())
# Each raised from parse_doc before the reader checked it.
@example(("populations", 0, "retransmit_ms"), 10 ** 400, False)
@example(("populations", 0, "content"), "/cdn/\ud800/720p", False)
@example(("northbound", 3, "prefix"), "/c\ud800", False)
def test_parse_doc_returns_a_scenario_or_diagnostics(path, value, delete):
    doc = copy.deepcopy(BASE)
    parent = doc
    for p in path[:-1]:
        parent = parent[p]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    scenario, diags = parse_doc(doc)
    assert (scenario is None) == bool(diags)
    assert {d.code for d in diags} <= CODES
