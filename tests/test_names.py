import copy
import gc
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from icnsim import ndn
from icnsim.ndn import MalformedUri, Name

from conftest import child

settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("ci")


def test_parse_basic():
    n = Name.parse("/cdn/s1/v42/720p")
    assert n.components == (b"cdn", b"s1", b"v42", b"720p")


def test_parse_root():
    assert Name.parse("/").components == ()
    assert str(Name.parse("/")) == "/"


def test_parse_rejects_empty_component():
    with pytest.raises(MalformedUri):
        Name.parse("/a//b")


def test_parse_rejects_missing_slash():
    with pytest.raises(MalformedUri):
        Name.parse("a/b")


def test_parse_rejects_trailing_slash():
    with pytest.raises(MalformedUri):
        Name.parse("/a/")


def test_parse_rejects_oversized_component():
    with pytest.raises(MalformedUri):
        Name.parse("/" + "x" * 256)
    Name.parse("/" + "x" * 255)  # boundary is fine


def test_parse_rejects_too_many_components():
    uri = "/" + "/".join("c%d" % i for i in range(33))
    with pytest.raises(MalformedUri):
        Name.parse(uri)


def test_parse_rejects_bad_escape():
    for bad in ("/a%zz", "/a%4", "/%"):
        with pytest.raises(MalformedUri):
            Name.parse(bad)


def test_percent_roundtrip():
    n = Name((b"\x00\xffhi", b"a b/c"))
    assert Name.parse(n.uri) == n
    assert "%2F" in n.uri or "/" not in n.uri.replace("/", "", 2)


def test_segment_name():
    base = Name.parse("/cdn/s1/v42/720p")
    assert str(base.segment(0)) == "/cdn/s1/v42/720p/seg=0"
    assert str(Name.parse("/a").segment(255)) == "/a/seg=255"
    seg = base.segment(7)
    assert Name.parse(str(seg)) == seg
    assert seg.seg_number() == 7


def test_segment_names_are_one_object_while_alive():
    assert Name.parse("/a/b").segment(3) is Name.parse("/a/b").segment(3)
    seg = Name.parse("/a/b").segment(3)
    assert Name(seg.components) == seg and Name(seg.components) is seg
    key = Name.parse("/transient").segment(9).components
    gc.collect()
    assert key not in ndn._NAMES


# -- interning ------------------------------------------------------------------


def test_every_constructor_returns_the_interned_name():
    n = Name.parse("/i/j/seg=4")
    comps = (b"i", b"j", b"seg=4")
    assert Name(comps) is n
    assert Name(list(comps)) is n
    assert Name._unsafe(comps) is n
    assert Name.parse("/i/j").segment(4) is n
    assert child(Name.parse("/i/j"), b"seg=4") is n
    assert Name.parse("/i/j/seg=4/k").parent() is n
    assert n.parent() is Name.parse("/i/j") is Name((b"i", b"j"))
    assert Name.parse("/") is Name(()) is Name.parse("/i").parent()
    assert ndn._NAMES[comps] is n


def test_names_compare_and_hash_by_identity():
    assert "__eq__" not in vars(Name) and "__hash__" not in vars(Name)
    a, b = Name.parse("/p/q"), Name.parse("/p/r")
    assert a == Name.parse("/p/q") and a != b
    assert {a: 1}[Name((b"p", b"q"))] == 1
    assert a != (b"p", b"q")


def test_copies_and_pickles_are_the_interned_name():
    n = Name.parse("/c/d/seg=1")
    assert copy.copy(n) is n
    assert copy.deepcopy(n) is n
    assert copy.deepcopy({n: [n]}) == {n: [n]}
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(n, protocol)) is n


def test_unpickled_name_is_interned_after_the_original_is_gone():
    blob = pickle.dumps(Name.parse("/gone/seg=2"))
    gc.collect()
    assert (b"gone", b"seg=2") not in ndn._NAMES
    n = pickle.loads(blob)
    assert n is Name.parse("/gone/seg=2") and n._wire_len == Name.parse("/gone")._wire_len + 10


def test_sorted_orders_names_by_components():
    uris = ["/b", "/a/z", "/a", "/", "/a/b/seg=10", "/a/b/seg=9", "/a/b"]
    got = [str(n) for n in sorted(Name.parse(u) for u in uris)]
    assert got == sorted(uris, key=lambda u: Name.parse(u).components)
    assert got == ["/", "/a", "/a/b", "/a/b/seg=10", "/a/b/seg=9", "/a/z", "/b"]


def test_table_forgets_unreferenced_names():
    n = Name.parse("/forget/me")
    key = n.components
    assert key in ndn._NAMES
    parent_key = n.parent().components
    del n
    gc.collect()
    assert key not in ndn._NAMES and parent_key not in ndn._NAMES
    assert Name.parse("/forget/me").components in ndn._NAMES


def test_segment_rejects_full_name():
    base = Name(tuple(b"c%d" % i for i in range(32)))
    with pytest.raises(MalformedUri):
        base.segment(0)
    Name(tuple(b"c%d" % i for i in range(31))).segment(0)


def test_segment_component_canonical_form():
    with pytest.raises(MalformedUri):
        Name.parse("/a/seg=007")
    with pytest.raises(MalformedUri):
        Name.parse("/a/seg=")
    with pytest.raises(MalformedUri):
        Name.parse("/a/seg=4294967296")
    assert Name.parse("/a/seg=4294967295").seg_number() == 4294967295
    assert Name.parse("/a/seg=0").seg_number() == 0


def test_is_prefix_examples():
    a_b = Name.parse("/a/b")
    assert a_b.is_prefix_of(Name.parse("/a/b/c"))
    assert not a_b.is_prefix_of(Name.parse("/a"))
    x = Name.parse("/x")
    assert x.is_prefix_of(x)


comp = st.binary(min_size=1, max_size=12).filter(lambda c: not c.startswith(b"seg="))
names = st.lists(comp, min_size=0, max_size=8).map(lambda cs: Name(tuple(cs)))


@given(names)
def test_uri_roundtrip_property(n):
    assert Name.parse(n.uri) == n


@given(names)
def test_prefix_reflexive(n):
    assert n.is_prefix_of(n)


@given(names, names)
def test_prefix_antisymmetric_same_length(a, b):
    if len(a) == len(b) and a.is_prefix_of(b) and b.is_prefix_of(a):
        assert a == b


@given(names, comp)
def test_prefix_monotone_under_append(n, c):
    if len(n) < 32:
        assert n.is_prefix_of(child(n, c))


def test_root_is_prefix_of_everything():
    root = Name.parse("/")
    assert root.is_prefix_of(Name.parse("/a/b/c"))
    assert root.is_prefix_of(root)
