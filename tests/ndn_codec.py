"""The NDN TLV wire codec, kept as the tests' oracle for wire lengths.

A run never builds wire bytes: links charge ``Data.wire_len`` and, for an
interest, ``Name._wire_len + INTEREST_FIELDS_LEN``. This encoder and
decoder follow the wire format in the ``icnsim.ndn`` docstring, so tests
can check those lengths against real encoded packets.
"""

from __future__ import annotations

import struct

from icnsim.ndn import (DIGEST_LEN, INTEREST_FIELDS_LEN, Data, Interest, MalformedUri,
                        Name)

TT_INTEREST = 0x05
TT_DATA = 0x06
TT_NAME = 0x07
TT_COMPONENT = 0x08
TT_NONCE = 0x0A
TT_LIFETIME = 0x0C
TT_HOP_LIMIT = 0x22
TT_PAYLOAD = 0x15
TT_DIGEST = 0x1D
TT_FRESHNESS = 0x19
TT_FINAL_SEGMENT = 0x1A

_KNOWN_TYPES = frozenset({
    TT_INTEREST, TT_DATA, TT_NAME, TT_COMPONENT, TT_NONCE, TT_LIFETIME,
    TT_HOP_LIMIT, TT_PAYLOAD, TT_DIGEST, TT_FRESHNESS, TT_FINAL_SEGMENT,
})


class PacketCodecError(ValueError):
    """Base class for wire decode failures."""


class TruncatedPacket(PacketCodecError):
    pass


class UnknownType(PacketCodecError):
    pass


class MalformedPacket(PacketCodecError):
    pass


def interest_wire_len(i: Interest) -> int:
    """The length the network layer charges for an interest."""
    return i.name._wire_len + INTEREST_FIELDS_LEN


def _tlv(tt: int, value: bytes) -> bytes:
    return struct.pack(">BI", tt, len(value)) + value


def encode_packet(p: Interest | Data) -> bytes:
    if isinstance(p, Interest):
        name = b"".join(_tlv(TT_COMPONENT, c) for c in p.name.components)
        body = (
            _tlv(TT_NAME, name)
            + _tlv(TT_NONCE, p.nonce.to_bytes(8, "big"))
            + _tlv(TT_LIFETIME, p.lifetime_ms.to_bytes(4, "big"))
            + _tlv(TT_HOP_LIMIT, bytes((p.hop_limit,)))
        )
        return _tlv(TT_INTEREST, body)
    if isinstance(p, Data):
        name = b"".join(_tlv(TT_COMPONENT, c) for c in p.name.components)
        body = (
            _tlv(TT_NAME, name)
            + _tlv(TT_PAYLOAD, p.payload)
            + _tlv(TT_DIGEST, p.digest)
            + _tlv(TT_FRESHNESS, p.freshness_ms.to_bytes(4, "big"))
        )
        if p.final_segment is not None:
            body += _tlv(TT_FINAL_SEGMENT, p.final_segment.to_bytes(4, "big"))
        return _tlv(TT_DATA, body)
    raise TypeError("not a packet: %r" % (p,))


def _read_header(buf: memoryview, pos: int) -> tuple[int, int, int]:
    if pos + 5 > len(buf):
        raise TruncatedPacket("tlv header at %d overruns buffer" % pos)
    tt, ln = struct.unpack_from(">BI", buf, pos)
    if pos + 5 + ln > len(buf):
        raise TruncatedPacket("tlv value at %d overruns buffer" % pos)
    return tt, ln, pos + 5


def _expect(buf: memoryview, pos: int, want: int, fixed_len: int | None = None) -> tuple[bytes, int]:
    tt, ln, vpos = _read_header(buf, pos)
    if tt != want:
        if tt not in _KNOWN_TYPES:
            raise UnknownType("unknown tlv type 0x%02x" % tt)
        raise MalformedPacket("expected tlv 0x%02x, found 0x%02x" % (want, tt))
    if fixed_len is not None and ln != fixed_len:
        raise MalformedPacket("tlv 0x%02x must be %d bytes, got %d" % (want, fixed_len, ln))
    return bytes(buf[vpos : vpos + ln]), vpos + ln


def _decode_name(value: bytes) -> Name:
    buf = memoryview(value)
    comps = []
    pos = 0
    while pos < len(buf):
        comp, pos = _expect(buf, pos, TT_COMPONENT)
        comps.append(comp)
    try:
        return Name(tuple(comps))
    except MalformedUri as e:
        raise MalformedPacket("invalid name on the wire: %s" % e) from e


def decode_packet(b: bytes) -> Interest | Data:
    buf = memoryview(b)
    if len(buf) < 5:
        raise TruncatedPacket("packet shorter than one tlv header")
    tt, ln, vpos = _read_header(buf, 0)
    if tt not in (TT_INTEREST, TT_DATA):
        raise UnknownType("unknown outer tlv type 0x%02x" % tt)
    if vpos + ln != len(buf):
        raise MalformedPacket("trailing bytes after outer tlv")
    body = buf[vpos : vpos + ln]
    pos = 0
    name_v, pos = _expect(body, pos, TT_NAME)
    name = _decode_name(name_v)
    if tt == TT_INTEREST:
        nonce, pos = _expect(body, pos, TT_NONCE, 8)
        lifetime, pos = _expect(body, pos, TT_LIFETIME, 4)
        hop, pos = _expect(body, pos, TT_HOP_LIMIT, 1)
        if pos != len(body):
            raise MalformedPacket("trailing bytes inside interest")
        return Interest(name, int.from_bytes(nonce, "big"),
                        int.from_bytes(lifetime, "big"), hop[0])
    payload, pos = _expect(body, pos, TT_PAYLOAD)
    digest, pos = _expect(body, pos, TT_DIGEST, DIGEST_LEN)
    freshness, pos = _expect(body, pos, TT_FRESHNESS, 4)
    final = None
    if pos < len(body):
        final_v, pos = _expect(body, pos, TT_FINAL_SEGMENT, 4)
        final = int.from_bytes(final_v, "big")
    if pos != len(body):
        raise MalformedPacket("trailing bytes inside data")
    return Data(name, payload, digest, int.from_bytes(freshness, "big"), final)
