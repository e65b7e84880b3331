"""Emulated CDN slice functions: content cache, transcoder, streamer.

Video content is opaque synthetic bytes; transcoding is a size and CPU
model only. A transcode charges its CPU time and stores the variant's
size and stream key at once, but the variant's bytes are made on first
read, so a variant no request reads costs no synthesis. One CdnOrigin
instance is the content authority of one CDN slice, shared by its
cache/streamer nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .ndn import compute_digest, hash_stream

DEFAULT_TRANSCODE_RATE_BPS = 20_000_000  # artifact knob, 20 MB/s


class DuplicateContent(ValueError):
    pass


class DuplicateVariant(ValueError):
    pass


class UnknownContent(LookupError):
    pass


def _as_fraction(scale) -> Fraction:
    if isinstance(scale, float):
        return Fraction(str(scale))
    return Fraction(scale)


@dataclass(slots=True)
class ResolutionProfile:
    """A target variant: its tag and the payload size scale in (0, 1]."""

    tag: str
    scale: Fraction

    def __post_init__(self):
        self.scale = _as_fraction(self.scale)
        if not 0 < self.scale <= 1:
            raise ValueError("scale must be in (0, 1]")


@dataclass(slots=True, frozen=True)
class ContentObject:
    """A stored content or variant. An upload gives its payload; a
    variant's payload is ``hash_stream(stream_key, size_bytes)``, made on
    first read and then kept."""

    content_id: str
    resolution: str
    size_bytes: int
    stream_key: bytes = b""
    _payload: bytes | None = field(default=None, repr=False, compare=False)
    _digest: bytes | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def payload(self) -> bytes:
        p = self._payload
        if p is None:
            p = hash_stream(self.stream_key, self.size_bytes)
            object.__setattr__(self, "_payload", p)
        return p

    @property
    def digest(self) -> bytes:
        """SHA-256 of the payload, hashed on first use and then kept."""
        d = self._digest
        if d is None:
            d = compute_digest(self.payload)
            object.__setattr__(self, "_digest", d)
        return d


def synthesize_payload(seed: int, content_id: str, size: int) -> bytes:
    """Deterministic synthetic content bytes for uploads."""
    return hash_stream(("%d:%s:%d" % (seed, content_id, size)).encode(), size)


class CdnOrigin:
    """Content store with upload, synthetic transcode and byte streaming."""

    def __init__(self, transcode_rate_bps: float = DEFAULT_TRANSCODE_RATE_BPS,
                 on_cpu: Callable[[float], None] | None = None):
        if transcode_rate_bps <= 0:
            raise ValueError("transcode rate must be > 0")
        self.transcode_rate_bps = transcode_rate_bps
        self.on_cpu = on_cpu
        self._store: dict[tuple[str, str], ContentObject] = {}
        self._source_res: dict[str, str] = {}
        self.store_bytes = 0

    def upload(self, content_id: str, payload: bytes, source_resolution: str) -> ContentObject:
        if content_id in self._source_res:
            raise DuplicateContent(content_id)
        obj = ContentObject(content_id, source_resolution, len(payload), _payload=payload)
        self._store[(content_id, source_resolution)] = obj
        self._source_res[content_id] = source_resolution
        self.store_bytes += len(payload)
        return obj

    def transcode(self, content_id: str, target: ResolutionProfile) -> ContentObject:
        src_res = self._source_res.get(content_id)
        if src_res is None:
            raise UnknownContent(content_id)
        if (content_id, target.tag) in self._store:
            raise DuplicateVariant((content_id, target.tag))
        src = self._store[(content_id, src_res)]
        out_len = src.size_bytes * target.scale.numerator // target.scale.denominator
        obj = ContentObject(content_id, target.tag, out_len, src.digest + target.tag.encode())
        self._store[(content_id, target.tag)] = obj
        self.store_bytes += out_len
        busy_ms = src.size_bytes / self.transcode_rate_bps * 1000.0
        if self.on_cpu is not None:
            self.on_cpu(busy_ms)
        return obj

    def get(self, content_id: str, resolution: str) -> ContentObject:
        obj = self._store.get((content_id, resolution))
        if obj is None:
            raise UnknownContent((content_id, resolution))
        return obj

    def stream(self, obj: ContentObject) -> bytes:
        """The whole payload of ``obj``, an object ``get`` returned; the
        network layer models its delivery. Every read a run serves goes
        through here, so the benchmark's tracer counts reads here."""
        return obj.payload

    def catalog(self) -> list[tuple[str, str]]:
        return sorted(self._store)
