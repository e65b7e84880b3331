"""The diagnostics of ``mini`` under one change at a time, against a record.

Every leaf, list and object of ``scenarios/mini.json`` is replaced, one at
a time, by each value in ``VALUES``, and also deleted. The ``(code, path)``
list that ``parse_doc`` gives for each of these documents is compared with
``diagnostics_corpus.json``, which holds the lists of the field-by-field
parser that the table-driven reader replaced. The record was written with

    PYTHONPATH=src python3 tests/test_diagnostics_corpus.py tests/diagnostics_corpus.json

Only the entries in ``CHANGED`` differ from that record, each for the
reason given there.
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MINI = HERE.parent / "scenarios" / "mini.json"
RECORD = HERE / "diagnostics_corpus.json"

VALUES = (None, "x", True, [], {}, -1, 0, 1e-9, 0.4, 2.5)
DELETE = "del"


def _paths(node, prefix=()):
    """The path of every value below ``node``, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        path = prefix + (key,)
        yield path
        if isinstance(value, (dict, list)):
            yield from _paths(value, path)


def corpus():
    """(label, document) for every change: ``path=<json value>`` or ``path del``."""
    base = json.loads(MINI.read_text())
    for path in _paths(base):
        dotted = ".".join(str(p) for p in path)
        for value in VALUES + (DELETE,):
            doc = copy.deepcopy(base)
            parent = doc
            for p in path[:-1]:
                parent = parent[p]
            if value is DELETE:
                del parent[path[-1]]
                yield "%s %s" % (dotted, DELETE), doc
            else:
                parent[path[-1]] = copy.deepcopy(value)
                yield "%s=%s" % (dotted, json.dumps(value)), doc


def diagnose(parse_doc):
    return {label: [[d.code, d.path] for d in parse_doc(doc)[1]]
            for label, doc in corpus()}


# label -> (diagnostics now, why they differ from the record)
LINK_RANGE = "an intra-slice link field is read from the one link table, with its range"
CHANGED = {
    "northbound.2.links.0.latency_ms=-1":
        ([["bad-value", "northbound.2.links.0.latency_ms"]], LINK_RANGE),
    "northbound.2.links.0.bandwidth_mbps=0":
        ([["bad-value", "northbound.2.links.0.bandwidth_mbps"]], LINK_RANGE),
    "northbound.2.links.0.bandwidth_mbps=-1":
        ([["bad-value", "northbound.2.links.0.bandwidth_mbps"]], LINK_RANGE),
    "contents.0.resolutions.0={}":
        ([["missing-field", "contents.0.resolutions.0.tag"],
          ["bad-value", "contents.0.resolutions.0.scale"]],
         "the reader checks every field of an object; a resolution's scale was "
         "checked only once its tag was good"),
}


def test_diagnostics_match_the_record():
    from icnsim.scenario import parse_doc

    record = json.loads(RECORD.read_text())
    expected = dict(record, **{label: diags for label, (diags, _) in CHANGED.items()})
    assert all(record[label] != diags for label, (diags, _) in CHANGED.items())
    assert diagnose(parse_doc) == expected


if __name__ == "__main__":
    from icnsim.scenario import parse_doc

    out = diagnose(parse_doc)
    Path(sys.argv[1]).write_text(
        "{\n" + ",\n".join("%s: %s" % (json.dumps(k), json.dumps(v)) for k, v in out.items())
        + "\n}\n")
    print("%d documents" % len(out))
