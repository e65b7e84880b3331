import pytest
from hypothesis import given, settings, strategies as st

from icnsim.ndn import (Data, Interest, MalformedPacket, Name,
                        PacketCodecError, TruncatedPacket, UnknownType,
                        compute_digest, data_wire_len, decode_packet,
                        encode_packet, interest_wire_len, make_data)

settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("ci")


names = st.lists(
    st.binary(min_size=1, max_size=16).filter(lambda c: not c.startswith(b"seg=")),
    min_size=0, max_size=6).map(lambda cs: Name(tuple(cs)))


def test_interest_roundtrip_example():
    i = Interest(Name.parse("/a"), nonce=1, lifetime_ms=4000, hop_limit=32)
    assert decode_packet(encode_packet(i)) == i


def test_data_roundtrip_and_exact_overhead():
    name = Name.parse("/v/seg=0")
    payload = bytes(range(256)) * 32  # 8192 bytes
    d = make_data(name, payload, freshness_ms=60_000, final_segment=0)
    wire = encode_packet(d)
    # Overhead from the TLV layout: outer header, name TLV with its two
    # components (1 and 5 bytes), payload, 32-byte digest, freshness,
    # final segment; every TLV header is 5 bytes.
    name_inner = (5 + 1) + (5 + 5)
    expected = 5 + (5 + name_inner) + (5 + 8192) + (5 + 32) + (5 + 4) + (5 + 4)
    assert len(wire) == expected == 8192 + (expected - 8192)
    assert data_wire_len(d) == expected
    assert decode_packet(wire) == d


def test_wire_len_matches_encoder():
    i = Interest(Name.parse("/cdn/v42/720p/seg=3"), nonce=2**64 - 1)
    assert interest_wire_len(i) == len(encode_packet(i))
    d = make_data(Name.parse("/x"), b"", 0)
    assert data_wire_len(d) == len(encode_packet(d))
    d2 = make_data(Name.parse("/x"), b"abc", 5, final_segment=9)
    assert data_wire_len(d2) == len(encode_packet(d2)) == data_wire_len(d) + 3 + 9


@given(names, st.integers(0, 2**32 - 1))
def test_cached_wire_len_matches_encoder_however_the_name_is_built(name, seg):
    comps = name.components
    seg_name = name.segment(seg)
    built = [
        Name(comps),
        Name.parse(name.uri),
        seg_name,
        seg_name.parent(),
        name.child(b"c"),
        decode_packet(encode_packet(Interest(seg_name, 1))).name,
        *(Name._unsafe(comps[:k]) for k in range(len(comps) + 1)),  # LPM prefixes
    ]
    for n in built:
        i = Interest(n, 7)
        d = make_data(n, b"abc", 5, final_segment=1)
        assert interest_wire_len(i) == len(encode_packet(i)), n
        assert data_wire_len(d) == len(encode_packet(d)), n


def test_decremented_at_hop_limit_zero_raises():
    with pytest.raises(ValueError):
        Interest(Name.parse("/a"), 1, hop_limit=0).decremented()
    assert Interest(Name.parse("/a"), 1, hop_limit=1).decremented() == Interest(
        Name.parse("/a"), 1, hop_limit=0)


def test_final_segment_omitted_when_absent():
    with_final = make_data(Name.parse("/x"), b"p", 1, final_segment=0)
    without = make_data(Name.parse("/x"), b"p", 1)
    assert len(encode_packet(with_final)) == len(encode_packet(without)) + 9
    assert decode_packet(encode_packet(without)).final_segment is None


def test_unknown_outer_type():
    with pytest.raises(UnknownType):
        decode_packet(bytes([0xFF, 0, 0, 0, 0]))


def test_truncated():
    with pytest.raises(TruncatedPacket):
        decode_packet(b"\x05\x00")
    i = Interest(Name.parse("/a"), nonce=9)
    wire = encode_packet(i)
    with pytest.raises(TruncatedPacket):
        decode_packet(wire[:-1])


def test_trailing_garbage_rejected():
    wire = encode_packet(Interest(Name.parse("/a"), nonce=9))
    with pytest.raises(MalformedPacket):
        decode_packet(wire + b"\x00")


def test_wrong_nested_order_rejected():
    # A data body inside an interest outer type.
    d = make_data(Name.parse("/a"), b"p", 1)
    wire = bytearray(encode_packet(d))
    wire[0] = 0x05
    with pytest.raises(MalformedPacket):
        decode_packet(bytes(wire))


def test_digest_field_not_checked_by_codec():
    # Integrity is the forwarder's job; the codec round-trips bad digests.
    d = Data(Name.parse("/a"), b"payload", b"\x00" * 32, 1)
    assert decode_packet(encode_packet(d)) == d


@given(names, st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1), st.integers(0, 255))
def test_interest_codec_total(name, nonce, lifetime, hop):
    i = Interest(name, nonce, lifetime, hop)
    assert decode_packet(encode_packet(i)) == i


@given(names, st.binary(max_size=512), st.integers(0, 2**32 - 1),
       st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_data_codec_total(name, payload, freshness, final):
    d = make_data(name, payload, freshness, final)
    assert decode_packet(encode_packet(d)) == d


@given(st.binary(max_size=64))
def test_decode_never_crashes(junk):
    try:
        decode_packet(junk)
    except PacketCodecError:
        pass


def test_digest_laws():
    assert compute_digest(b"x" * 100) == compute_digest(b"x" * 100)
    a = bytearray(b"y" * 100)
    b = bytearray(a)
    b[50] ^= 1
    assert compute_digest(bytes(a)) != compute_digest(bytes(b))
    assert len(compute_digest(b"")) == 32
