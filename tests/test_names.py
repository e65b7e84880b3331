import gc

import pytest
from hypothesis import given, settings, strategies as st

from icnsim import ndn
from icnsim.ndn import MalformedUri, Name

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
    assert Name(seg.components) == seg and Name(seg.components) is not seg
    key = Name.parse("/transient").segment(9).components
    gc.collect()
    assert key not in ndn._SEGMENT_NAMES


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
        assert n.is_prefix_of(n.child(c))


def test_root_is_prefix_of_everything():
    root = Name.parse("/")
    assert root.is_prefix_of(Name.parse("/a/b/c"))
    assert root.is_prefix_of(root)
