"""Emulated CDN slice functions: content cache, transcoder, streamer.

Video content is opaque synthetic bytes; transcoding is a size and CPU
model only. One CdnOrigin instance is the content authority of one CDN
slice, shared by its cache/streamer nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class BadRange(ValueError):
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


@dataclass(slots=True)
class ContentObject:
    content_id: str
    resolution: str
    payload: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.payload)


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
        self.uploads = 0
        self.streams = 0
        self.bytes_out = 0

    def upload(self, content_id: str, payload: bytes, source_resolution: str) -> ContentObject:
        if content_id in self._source_res:
            raise DuplicateContent(content_id)
        obj = ContentObject(content_id, source_resolution, payload)
        self._store[(content_id, source_resolution)] = obj
        self._source_res[content_id] = source_resolution
        self.store_bytes += len(payload)
        self.uploads += 1
        return obj

    def transcode(self, content_id: str, target: ResolutionProfile) -> ContentObject:
        src_res = self._source_res.get(content_id)
        if src_res is None:
            raise UnknownContent(content_id)
        if (content_id, target.tag) in self._store:
            raise DuplicateVariant((content_id, target.tag))
        src = self._store[(content_id, src_res)]
        out_len = len(src.payload) * target.scale.numerator // target.scale.denominator
        payload = hash_stream(compute_digest(src.payload) + target.tag.encode(), out_len)
        obj = ContentObject(content_id, target.tag, payload)
        self._store[(content_id, target.tag)] = obj
        self.store_bytes += out_len
        busy_ms = len(src.payload) / self.transcode_rate_bps * 1000.0
        if self.on_cpu is not None:
            self.on_cpu(busy_ms)
        return obj

    def get(self, content_id: str, resolution: str) -> ContentObject:
        obj = self._store.get((content_id, resolution))
        if obj is None:
            raise UnknownContent((content_id, resolution))
        return obj

    def stream(self, content_id: str, resolution: str,
               byte_range: tuple[int, int] | None = None) -> bytes:
        """Return the requested bytes; the network layer models delivery."""
        obj = self.get(content_id, resolution)
        if byte_range is None:
            out = obj.payload
        else:
            start, end = byte_range
            if not 0 <= start <= end <= len(obj.payload):
                raise BadRange(byte_range)
            out = obj.payload[start:end]
        self.streams += 1
        self.bytes_out += len(out)
        return out

    def catalog(self) -> list[tuple[str, str]]:
        return sorted(self._store)
