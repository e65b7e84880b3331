"""The CDN-to-ICN gateway: a producer application on an NDN node.

Slice linking builds one ``Gateway`` on the host of the node it selects.
The gateway takes a face on that host, and the node's FIB sends each link
prefix to that face at cost 0, the way an NDN producer registers its
prefix (NFD faces and RIB; ndn-cxx ``Face::setInterestFilter``). Every
ICN node stays a plain forwarder: the node's own PIT aggregates the
interests for a name, so the gateway sees the first of each. It answers
from its repo through the forwarder's ``on_data``, as ``Face::put`` does,
so aggregation, expiry, fan-out and the content store take the
forwarder's one code path. The first interest for a content not yet
published starts one origin fetch over IP; the names asked while it runs
wait in ``waiting`` and are answered or ended when it ends.
"""

from __future__ import annotations

from functools import partial

from .forwarder import DROP_NO_ROUTE, Action
from .ndn import DEFAULT_CHUNK_SIZE, Data, Interest, Name, chunk_content
from .simnet import IP_REQUEST_BYTES, Host, IpRequest, IpResponse


class EmptyCandidates(ValueError):
    pass


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


class Gateway:
    """A publisher repo on its host's forwarder, filled by origin fetches."""

    def __init__(self, host: Host, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 publish_freshness_ms: int = 3_600_000,
                 origin_timeout_ms: float = 30_000.0):
        self.host = host
        self.chunk_size = chunk_size
        self.publish_freshness_ms = publish_freshness_ms
        self.origin_timeout_ms = origin_timeout_ms
        self.repo: dict[Name, Data] = {}
        self.repo_bytes = 0
        self.published: dict[Name, int] = {}   # base name -> segment count
        # Per base name with a fetch under way, the names asked since it
        # started, in first-ask order.
        self.waiting: dict[Name, dict[Name, None]] = {}
        self.origin_node: str | None = None  # where content comes from on the IP side
        self.prefix_map: dict[Name, tuple[str, str]] = {}  # base name -> (content_id, res)
        self.face = host._add_face(self.on_interest)

    def configure_origin(self, node: str, prefix_map: dict[Name, tuple[str, str]]):
        self.origin_node = node
        self.prefix_map = prefix_map

    def on_interest(self, now: float, interest: Interest, served_by: str):
        """Take an interest the forwarder sent to the gateway's face: answer
        it from the repo, or start or join its content's fetch. A name
        outside every mapped content, or past a published content's last
        segment, ends as no-route."""
        name = interest.name
        host = self.host
        d = self.repo.get(name)
        if d is not None:
            host._emit(now, host.fwd.on_data(now, self.face, d), host.id)
            return
        base = name.parent()
        served = self.prefix_map.get(base) if name.seg_number() is not None else None
        if served is None or base in self.published:
            self._refuse(now, name)
            return
        waiting = self.waiting.get(base)
        if waiting is not None:  # at most one concurrent origin fetch per content
            waiting[name] = None
            return
        self.waiting[base] = {name: None}
        rid = host.next_request_id()
        host.counters.origin_fetches += 1
        host.net.open_work += 1  # closed in ``_fetched``
        host.send_ip(IpRequest(host.id, self.origin_node, rid, *served), IP_REQUEST_BYTES)
        # The waiter is written here, not through ``await_ip_response``,
        # which registers consumers.
        host._ip_waiters[rid] = (partial(self._fetched, base, served, now),
                                 host.net.schedule(now + self.origin_timeout_ms,
                                                   partial(host._ip_timeout, rid)))

    def _fetched(self, base: Name, served: tuple[str, str], started: float, now: float,
                 msg: IpResponse):
        """Publish the fetched content, or end its waiters on an error response."""
        host = self.host
        if msg.error is None:
            _count, actions = self.publish_content_to_icn(now, base, msg.payload)
            host.net.publishes.append((*served, len(msg.payload), now - started))
        else:
            actions = self._end(now, base)
        host._emit(now, actions, host.id)
        host.net.close_work()

    def publish_content_to_icn(self, now: float, base: Name,
                               payload: bytes) -> tuple[int, list[Action]]:
        """Chunk a content object fetched for ``base`` into the repo and
        answer the names waiting on it.

        Idempotent: re-publishing an already published content changes
        nothing and returns the original segment count. Returns the
        count plus the packets the host must send.
        """
        if base in self.published:
            return self.published[base], []
        segments = chunk_content(base, payload, self.chunk_size, self.publish_freshness_ms)
        for d in segments:
            self.repo[d.name] = d
            self.repo_bytes += len(d.payload)
        self.published[base] = len(segments)
        return len(segments), self._end(now, base)

    def _end(self, now: float, base: Name) -> list[Action]:
        """End the fetch of ``base``. Each name asked during it that the
        repo holds and whose PIT entry is live is answered through the
        forwarder's ``on_data``, in first-ask order; every other is refused."""
        fwd = self.host.fwd
        actions: list[Action] = []
        for name in self.waiting.pop(base, ()):
            d = self.repo.get(name)
            entry = fwd.pit.get(name)
            if d is not None and entry is not None and entry.deadline > now:
                actions += fwd.on_data(now, self.face, d)
            else:
                self._refuse(now, name)
        return actions

    def _refuse(self, now: float, name: Name):
        """Remove the PIT entry of a name the gateway does not answer: a live
        one drops as no-route, an expired one counts a timeout."""
        fwd = self.host.fwd
        entry = fwd.pit.pop(name, None)
        if entry is None:  # expired and reclaimed already
            return
        if entry.deadline <= now:
            fwd.counters.pit_timeouts += 1
        else:
            fwd.counters.drop(DROP_NO_ROUTE)
