"""Named-data primitives shared by every ICN-side component.

Hierarchical content names, the two NDN packet kinds (interest and data),
their encoded lengths, content chunking into segment packets, and payload
digests (SHA-256).

Wire format (big endian). Every TLV is ``type(1 byte) + length(4 bytes,
u32) + value``, nested TLVs included:

* Interest = 0x05 [ Name 0x07 [ Component 0x08 ... ], Nonce 0x0A (8),
  Lifetime 0x0C (4), HopLimit 0x22 (1) ]
* Data = 0x06 [ Name 0x07 [...], Payload 0x15, Digest 0x1D (32),
  Freshness 0x19 (4), FinalSegment 0x1A (4, optional) ]

Field order is fixed as listed; an absent FinalSegment is omitted
entirely. The encoded length of a packet is what the network layer
charges against link bandwidth; a run computes it from this format and
never builds the bytes. The codec in ``tests/ndn_codec.py`` encodes and
decodes it, as the tests' oracle for these lengths.
"""

from __future__ import annotations

import hashlib
import io
import re
import weakref
from dataclasses import dataclass, field

MAX_COMPONENTS = 32
MAX_COMPONENT_LEN = 255
U32_MAX = 0xFFFFFFFF
U64_MAX = 0xFFFFFFFFFFFFFFFF

DEFAULT_LIFETIME_MS = 4000
DEFAULT_HOP_LIMIT = 32
DEFAULT_CHUNK_SIZE = 8192
DIGEST_LEN = 32

_SEG_PREFIX = b"seg="
_SEG_RE = re.compile(rb"\Aseg=(0|[1-9][0-9]*)\Z")
# Unreserved URI characters plus '=' so segment components render bare.
_SAFE = frozenset(
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-._~="
)
_HEXDIGITS = frozenset(b"0123456789abcdefABCDEF")


class MalformedUri(ValueError):
    """Name text or component set violates the naming rules."""


def _decode_percent(raw: bytes) -> bytes:
    out = bytearray()
    i = 0
    n = len(raw)
    while i < n:
        b = raw[i]
        if b == 0x25:  # '%'
            if i + 2 >= n or raw[i + 1] not in _HEXDIGITS or raw[i + 2] not in _HEXDIGITS:
                raise MalformedUri("bad percent escape in %r" % raw)
            out.append(int(raw[i + 1 : i + 3], 16))
            i += 3
        else:
            out.append(b)
            i += 1
    return bytes(out)


def _encode_percent(comp: bytes) -> str:
    parts = []
    for b in comp:
        if b in _SAFE:
            parts.append(chr(b))
        else:
            parts.append("%%%02X" % b)
    return "".join(parts)


class Name:
    """Hierarchical content identifier; an immutable tuple of byte components.

    Canonical URI form is ``"/" + "/".join(components)`` with percent
    escapes for bytes outside the unreserved set; the root name renders
    as ``"/"``. Segment components must have the exact canonical form
    ``seg=<decimal u32>`` with no leading zeros.

    Names are interned: while a name is alive, every constructor returns
    that one object for its components. So two names are equal exactly
    when they are the same object, and dicts and sets keyed by names hash
    and compare them by identity, in C. An identity hash follows the
    object's address, so code must not let the iteration order of a set
    of names reach an output.

    ``_wire_len`` is the encoded length of the name's TLV, header included.
    """

    __slots__ = ("components", "_wire_len", "__weakref__")

    def __new__(cls, components: tuple[bytes, ...] | list[bytes] = ()) -> "Name":
        comps = tuple(bytes(c) for c in components)
        name = _NAMES.get(comps)
        if name is not None:
            return name
        if len(comps) > MAX_COMPONENTS:
            raise MalformedUri("more than %d components" % MAX_COMPONENTS)
        for c in comps:
            if not c:
                raise MalformedUri("empty component")
            if len(c) > MAX_COMPONENT_LEN:
                raise MalformedUri("component longer than %d bytes" % MAX_COMPONENT_LEN)
            if c.startswith(_SEG_PREFIX):
                m = _SEG_RE.match(c)
                if m is None or int(m.group(1)) > U32_MAX:
                    raise MalformedUri("non-canonical segment component %r" % c)
        return cls._unsafe(comps)

    @classmethod
    def _unsafe(cls, comps: tuple[bytes, ...]) -> "Name":
        # Internal fast path for components already validated.
        name = _NAMES.get(comps)
        if name is None:
            name = object.__new__(cls)
            name.components = comps
            name._wire_len = 5 + 5 * len(comps) + sum(map(len, comps))
            _NAMES[comps] = name
        return name

    def __reduce__(self):
        # Copies and unpickled names are the interned object too.
        return Name._unsafe, (self.components,)

    @classmethod
    def parse(cls, uri: str) -> "Name":
        if not uri.startswith("/"):
            raise MalformedUri("name must start with '/': %r" % uri)
        if uri == "/":
            return cls(())
        body = uri[1:]
        comps = []
        for part in body.split("/"):
            if part == "":
                raise MalformedUri("empty component in %r" % uri)
            comps.append(_decode_percent(part.encode("utf-8")))
        return cls(tuple(comps))

    @property
    def uri(self) -> str:
        if not self.components:
            return "/"
        return "/" + "/".join(_encode_percent(c) for c in self.components)

    def is_prefix_of(self, other: "Name") -> bool:
        k = len(self.components)
        return self.components == other.components[:k]

    def segment(self, n: int) -> "Name":
        """Return this name with a ``seg=<n>`` component appended."""
        if not 0 <= n <= U32_MAX:
            raise ValueError("segment number out of u32 range: %r" % n)
        if len(self.components) >= MAX_COMPONENTS:
            raise MalformedUri("cannot append segment to a full name")
        return Name._unsafe(self.components + (b"seg=%d" % n,))

    def seg_number(self) -> int | None:
        """Segment number of the last component, or None."""
        if not self.components:
            return None
        m = _SEG_RE.match(self.components[-1])
        return int(m.group(1)) if m else None

    def parent(self) -> "Name":
        return Name._unsafe(self.components[:-1])

    def __len__(self) -> int:
        return len(self.components)

    def __lt__(self, other: "Name") -> bool:
        return self.components < other.components

    def __str__(self) -> str:
        return self.uri

    def __repr__(self) -> str:
        return "Name(%r)" % self.uri


# Live names by components. Names are immutable, so sharing one object
# between callers changes nothing but the identity; the table holds a
# name only while something else does.
_NAMES: weakref.WeakValueDictionary[tuple[bytes, ...], Name] = weakref.WeakValueDictionary()


@dataclass(slots=True)
class Interest:
    """Request packet naming the desired content."""

    name: Name
    nonce: int
    lifetime_ms: int = DEFAULT_LIFETIME_MS
    hop_limit: int = DEFAULT_HOP_LIMIT

    def __post_init__(self):
        if not 0 <= self.nonce <= U64_MAX:
            raise ValueError("nonce out of u64 range")
        if not 0 <= self.lifetime_ms <= U32_MAX:
            raise ValueError("lifetime out of u32 range")
        if not 0 <= self.hop_limit <= 0xFF:
            raise ValueError("hop limit out of u8 range")

    def decremented(self) -> "Interest":
        """This interest with one hop less. Only the hop limit can leave
        its range, so the other fields are copied without a re-check."""
        hop_limit = self.hop_limit - 1
        if hop_limit < 0:
            raise ValueError("hop limit out of u8 range")
        out = object.__new__(Interest)
        out.name = self.name
        out.nonce = self.nonce
        out.lifetime_ms = self.lifetime_ms
        out.hop_limit = hop_limit
        return out


@dataclass(slots=True, frozen=True)
class Data:
    """Response packet carrying one named, digest-protected payload chunk.

    Immutable, so ``intact()`` hashes the payload at most once per object,
    and ``wire_len``, its encoded length, is computed once when it is built.
    A segment's payload is a read-only view into its content's bytes (see
    ``chunk_content``).
    """

    name: Name
    payload: bytes | memoryview
    digest: bytes
    freshness_ms: int = 0
    final_segment: int | None = None
    wire_len: int = field(init=False, repr=False, compare=False)
    _intact: bool | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.digest) != DIGEST_LEN:
            raise ValueError("digest must be %d bytes" % DIGEST_LEN)
        if not 0 <= self.freshness_ms <= U32_MAX:
            raise ValueError("freshness out of u32 range")
        if self.final_segment is not None and not 0 <= self.final_segment <= U32_MAX:
            raise ValueError("final segment out of u32 range")
        object.__setattr__(self, "wire_len", data_wire_len(self))

    def intact(self) -> bool:
        """True if the payload hashes to the digest; hashed on first call only."""
        ok = self._intact
        if ok is None:
            ok = compute_digest(self.payload) == self.digest
            object.__setattr__(self, "_intact", ok)
        return ok


def compute_digest(payload: bytes) -> bytes:
    """SHA-256 of the payload, as carried in every Data's digest field."""
    return hashlib.sha256(payload).digest()


def make_data(name: Name, payload: bytes, freshness_ms: int,
              final_segment: int | None = None) -> Data:
    return Data(name, payload, compute_digest(payload), freshness_ms, final_segment)


def chunk_content(base: Name, payload: bytes, chunk_size: int = DEFAULT_CHUNK_SIZE,
                  freshness_ms: int = 0) -> list[Data]:
    """Split a content object into segment data packets under ``base``.

    Produces ceil(len/chunk_size) segments; empty content still yields a
    single empty segment so last-segment signaling always exists. Every
    segment carries final_segment = count - 1.

    Each segment's payload is a read-only ``memoryview`` slice of one
    ``bytes`` object, so the segments share the content's buffer instead
    of copying it. A payload that is not ``bytes`` is copied to ``bytes``
    once first, so that no segment aliases a buffer that can change.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if type(payload) is not bytes:
        payload = bytes(payload)
    view = memoryview(payload)
    total = len(payload)
    count = max(1, -(-total // chunk_size))
    final = count - 1
    out = []
    for i in range(count):
        piece = view[i * chunk_size : min((i + 1) * chunk_size, total)]
        out.append(make_data(base.segment(i), piece, freshness_ms, final))
    return out


def hash_stream(key: bytes, length: int) -> bytes:
    """Deterministic pseudo-random bytes derived from ``key``.

    Used for synthetic content payloads and transcoder outputs so that
    byte-level checks stay reproducible across runs and platforms. The
    stream is built in place: ``BytesIO.getvalue`` hands over its buffer,
    trimmed to ``length``, instead of copying it.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    buf = io.BytesIO()
    write = buf.write
    for counter in range(-(-length // DIGEST_LEN)):
        write(hashlib.sha256(key + counter.to_bytes(8, "big")).digest())
    buf.truncate(length)
    return buf.getvalue()


# Encoded interest bytes besides its name: the outer TLV header and the
# nonce, lifetime and hop-limit TLVs.
INTEREST_FIELDS_LEN = 5 + 13 + 9 + 6


def data_wire_len(d: Data) -> int:
    """Encoded byte length of a data packet, without building the bytes;
    ``Data.wire_len`` holds it."""
    n = 5 + d.name._wire_len + (5 + len(d.payload)) + 37 + 9
    if d.final_segment is not None:
        n += 9
    return n
