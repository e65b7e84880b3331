"""The dynamic NDN gateway.

An extended forwarder that owns one or more content prefixes, fetches
whole content objects from an IP-side origin on the first request, and
publishes them into the ICN slice chunk by chunk. Until it is configured
with an origin it behaves exactly like a plain forwarder, which lets any
node of an ICN slice be promoted to the gateway role.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forwarder import (DROP_LOOP, DROP_NO_ROUTE, Action, Drop, Forwarder,
                        PitEntry, SendData, UnknownFace)
from .ndn import DEFAULT_CHUNK_SIZE, Data, Interest, Name, chunk_content
from .origin import UnknownContent


class EmptyCandidates(ValueError):
    pass


@dataclass(slots=True)
class PendingFetch:
    """Gateway action: start an origin fetch for one content object."""

    content_id: str
    resolution: str
    base: Name


@dataclass(slots=True)
class OriginRef:
    """Where the gateway's content comes from on the IP side."""

    node: str
    prefix_map: dict[Name, tuple[str, str]]  # base name -> (content_id, resolution)


def select_gateway(candidates: list[tuple[str, float, float]], w: float) -> str:
    """Pick the gateway node by distance.

    Each candidate is (node_id, latency_to_cache_ms, latency_to_demand_ms)
    where the demand latency is the request-count-weighted mean latency to
    the consumer populations. Returns the argmin of
    ``w*latency_to_cache + (1-w)*latency_to_demand``; ties break to the
    lowest node id.
    """
    if not candidates:
        raise EmptyCandidates("no gateway candidates")
    if not 0.0 <= w <= 1.0:
        raise ValueError("weight must be in [0, 1]")
    return min(candidates, key=lambda c: (w * c[1] + (1.0 - w) * c[2], c[0]))[0]


class Gateway(Forwarder):
    """Forwarder plus a publisher repo and the IP translation hooks."""

    def __init__(self, cs_capacity_bytes: int = 0,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 publish_freshness_ms: int = 3_600_000):
        super().__init__(cs_capacity_bytes)
        self.chunk_size = chunk_size
        self.publish_freshness_ms = publish_freshness_ms
        self.repo: dict[Name, Data] = {}
        self.repo_bytes = 0
        self.published: dict[Name, int] = {}   # base name -> segment count
        self.pending: set[Name] = set()        # base names with a fetch under way
        self.origin_ref: OriginRef | None = None
        self._base_for: dict[tuple[str, str], Name] = {}

    def configure_origin(self, origin_ref: OriginRef):
        self.origin_ref = origin_ref
        self._base_for = {cr: base for base, cr in origin_ref.prefix_map.items()}

    def _served_lookup(self, name: Name) -> tuple[Name, str, str] | None:
        if self.origin_ref is None:
            return None
        if name.seg_number() is None:
            return None
        base = name.parent()
        m = self.origin_ref.prefix_map.get(base)
        if m is None:
            return None
        return base, m[0], m[1]

    def on_interest(self, now: float, face: int, interest: Interest) -> list[Action]:
        served = self._served_lookup(interest.name)
        if served is None:
            return super().on_interest(now, face, interest)
        base, content_id, resolution = served
        if face not in self.faces:
            raise UnknownFace(face)
        c = self.counters
        if interest.hop_limit == 0 or self._nonces.seen(interest.name, interest.nonce):
            c.drop(DROP_LOOP)
            return [Drop(DROP_LOOP)]
        d = self.repo.get(interest.name)
        if d is not None:
            c.cs_hits += 1
            return [SendData(face, d)]
        if base in self.published:
            # Published content cannot grow a segment; the request is bogus.
            c.drop(DROP_NO_ROUTE)
            return [Drop(DROP_NO_ROUTE)]
        entry = self.pit.get(interest.name)
        if entry is not None:
            entry.add(face, interest.nonce)
            return []
        self.pit[interest.name] = PitEntry(
            interest.name, {(face, interest.nonce)}, {face: None},
            now + interest.lifetime_ms)
        if base in self.pending:
            # At most one concurrent origin fetch per content.
            return []
        self.pending.add(base)
        return [PendingFetch(content_id, resolution, base)]

    def publish_content_to_icn(self, now: float, content_id: str, resolution: str,
                               payload: bytes) -> tuple[int, list[Action]]:
        """Chunk a fetched content object into the repo and answer waiters.

        Idempotent: re-publishing an already published content changes
        nothing and returns the original segment count. Returns the
        count plus the actions that satisfy pending interests.
        """
        base = self._base_for.get((content_id, resolution))
        if base is None:
            raise UnknownContent((content_id, resolution))
        if base in self.published:
            return self.published[base], []
        segments = chunk_content(base, payload, self.chunk_size, self.publish_freshness_ms)
        for d in segments:
            self.repo[d.name] = d
            self.repo_bytes += len(d.payload)
        self.published[base] = len(segments)
        self.pending.discard(base)
        actions: list[Action] = []
        for name in [n for n in self.pit if base.is_prefix_of(n)]:
            entry = self.pit.pop(name)
            d = self.repo.get(name)
            if d is None:
                self.counters.drop(DROP_NO_ROUTE)
                actions.append(Drop(DROP_NO_ROUTE))
                continue
            actions.extend(SendData(f, d) for f in entry.faces)
        return len(segments), actions

    def fetch_failed(self, base: Name) -> list[Action]:
        """Abort a pending fetch; waiting interests drop as no-route."""
        self.pending.discard(base)
        actions: list[Action] = []
        for name in [n for n in self.pit if base.is_prefix_of(n)]:
            del self.pit[name]
            self.counters.drop(DROP_NO_ROUTE)
            actions.append(Drop(DROP_NO_ROUTE))
        return actions

    def mem_model_bytes(self) -> int:
        return super().mem_model_bytes() + self.repo_bytes
