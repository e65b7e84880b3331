"""The dynamic NDN gateway.

An extended forwarder that owns one or more content prefixes, fetches
whole content objects from an IP-side origin on the first request, and
publishes them into the ICN slice chunk by chunk. Every ICN node is built
as a plain forwarder; slice linking gives the gateway role to the one
node it selects, with ``Gateway.take_over``. Until it is configured with
an origin, a gateway behaves exactly like a plain forwarder.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forwarder import DROP_NO_ROUTE, Action, Forwarder, PitEntry
from .ndn import DEFAULT_CHUNK_SIZE, Data, Interest, Name, chunk_content
from .origin import UnknownContent


class EmptyCandidates(ValueError):
    pass


@dataclass(slots=True)
class PendingFetch:
    """Gateway action: start an origin fetch for one content object. It is
    returned paired with the face of the interest that asked for it."""

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
        # Base names with a fetch under way. Membership tests only: a set
        # of names iterates in address order.
        self.pending: set[Name] = set()
        self.origin_ref: OriginRef | None = None
        self._base_for: dict[tuple[str, str], Name] = {}

    @classmethod
    def take_over(cls, fwd: Forwarder, chunk_size: int,
                  publish_freshness_ms: int) -> "Gateway":
        """A gateway with the faces, tables and counters of ``fwd``, which
        its host then drops for it."""
        gw = cls(0, chunk_size, publish_freshness_ms)
        vars(gw).update(vars(fwd))
        return gw

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

    # The forwarder's pipeline, also bound on this class so that
    # perfbench can trace the gateway's interests apart from the plain
    # forwarders'. Served names branch off in ``_miss``.
    on_interest = Forwarder.on_interest

    def _miss(self, now: float, face: int, interest: Interest,
              entry: PitEntry | None) -> list[tuple[int, Data | PendingFetch]]:
        served = self._served_lookup(interest.name)
        if served is None:
            return Forwarder._miss(self, now, face, interest, entry)
        base, content_id, resolution = served
        d = self.repo.get(interest.name)
        if d is not None:
            self.counters.cs_hits += 1
            return [(face, d)]
        if base in self.published:
            # Published content cannot grow a segment; the request is bogus.
            self.counters.drop(DROP_NO_ROUTE)
            return []
        if entry is not None:
            entry.faces[face] = interest.nonce
            return []
        self._pit_insert(now, face, interest)
        if base in self.pending:
            # At most one concurrent origin fetch per content.
            return []
        self.pending.add(base)
        return [(face, PendingFetch(content_id, resolution, base))]

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
        return len(segments), self._drain(now, base)

    def fetch_failed(self, now: float, base: Name):
        """Abort a pending fetch; its live waiters drop as no-route."""
        self._drain(now, base)

    def _drain(self, now: float, base: Name) -> list[Action]:
        """End the fetch of ``base`` and remove every pending entry under it.

        Expired entries count as timeouts. Live entries the repo holds are
        answered; the others drop as no-route.
        """
        self.pending.discard(base)
        actions: list[Action] = []
        for name in [n for n in self.pit if base.is_prefix_of(n)]:
            entry = self.pit.pop(name)
            if entry.deadline <= now:
                self.counters.pit_timeouts += 1
                continue
            d = self.repo.get(name)
            if d is None:
                self.counters.drop(DROP_NO_ROUTE)
            else:
                actions.extend((f, d) for f in entry.faces)
        return actions

    def mem_model_bytes(self) -> int:
        return super().mem_model_bytes() + self.repo_bytes
