"""Seeded discrete-event network engine.

Nodes, point-to-point links with latency and per-direction FIFO
bandwidth serialization, a global virtual clock in float milliseconds,
consumer request generators, and the host wrapper that turns the
forwarder's ``(face, packet)`` pairs into wire traffic. Everything is
single-threaded and fully deterministic: events execute in (time, seq)
order with seq assigned at scheduling. The heap holds ``(time, seq,
Event)`` tuples: seq is unique, so heap order is a tuple comparison in C
that never reaches the Event.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .forwarder import DROP_NO_ROUTE, Counters, Forwarder
from .gateway import Gateway, PendingFetch
from .ndn import (DEFAULT_HOP_LIMIT, INTEREST_FIELDS_LEN, U32_MAX, Data, Interest,
                  Name, compute_digest)
from .origin import CdnOrigin, UnknownContent

IP_REQUEST_BYTES = 512
INFINITY = float("inf")


class HorizonExceeded(RuntimeError):
    pass


class Event:
    """A scheduled call; ``Network.schedule`` is its one constructor."""

    __slots__ = ("fn", "real", "cancelled")


class _LinkDir:
    """One direction of a link and the messages in flight on it.

    ``free_at`` never falls and the latency is fixed, so messages arrive
    in the order they were sent: each delivery event takes the head of
    ``in_flight``, and one ``deliver``, bound once, serves them all.
    """

    __slots__ = ("net", "src", "dst", "latency_ms", "mbps", "free_at", "in_flight",
                 "deliver")

    def __init__(self, net: "Network", src: str, dst: str, latency_ms: float,
                 mbps: float):
        self.net = net
        self.src = src
        self.dst = dst
        self.latency_ms = latency_ms
        self.mbps = mbps
        self.free_at = 0.0
        self.in_flight: deque = deque()  # (msg, nbytes), in send order
        self.deliver = self._deliver

    def _deliver(self, now: float):
        msg, nbytes = self.in_flight.popleft()
        net = self.net
        h = net.hosts.get(self.dst)
        if h is None:
            return
        if net.delivery_filter is not None:
            msg = net.delivery_filter(now, self.src, self.dst, msg)
            if msg is None:
                return
        h.receive(now, self.src, msg, nbytes)


@dataclass(slots=True)
class WireData:
    data: Data
    served_by: str


@dataclass(slots=True)
class IpRequest:
    src: str
    dst: str
    request_id: int
    content_id: str
    resolution: str


@dataclass(slots=True)
class IpResponse:
    src: str
    dst: str
    request_id: int
    payload: bytes | None
    digest: bytes
    error: str | None


class Network:
    """The event queue plus topology: hosts, links and IP routing."""

    def __init__(self, horizon_ms: float | None = None):
        self.now = 0.0
        self.horizon_ms = horizon_ms
        self.hosts: dict[str, "Host"] = {}
        self.all_hosts: dict[str, "Host"] = {}  # never pruned; keeps counters
        self._links: dict[tuple[str, str], _LinkDir] = {}
        self._adj: dict[str, list[tuple[str, float]]] = {}
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._pending_real = 0
        self._route_cache: dict[str, tuple[dict[str, float], dict[str, str]]] = {}
        self.delivery_filter: Callable | None = None

    # -- scheduling --------------------------------------------------------

    def schedule(self, at: float, fn, real: bool = True) -> Event:
        if at < self.now:
            at = self.now
        ev = object.__new__(Event)
        ev.fn = fn
        ev.real = real
        ev.cancelled = False
        heapq.heappush(self._heap, (at, self._seq, ev))
        self._seq += 1
        if real:
            self._pending_real += 1
        return ev

    def cancel(self, ev: Event):
        if not ev.cancelled:
            ev.cancelled = True
            if ev.real:
                self._pending_real -= 1

    def active(self) -> bool:
        """True while real (non-housekeeping) events are still pending."""
        return self._pending_real > 0

    def run_to_completion(self) -> float:
        heap = self._heap
        horizon = self.horizon_ms
        while heap:
            at, _seq, ev = heapq.heappop(heap)
            if ev.cancelled:
                continue
            if horizon is not None and at > horizon:
                raise HorizonExceeded(
                    "event at %.3f ms beyond horizon %.3f ms" % (at, horizon))
            self.now = at
            ev.cancelled = True  # spent: cancelling it later changes nothing
            if ev.real:
                self._pending_real -= 1
            ev.fn(at)
        return self.now

    # -- topology ----------------------------------------------------------

    def add_host(self, host: "Host"):
        """Add a host under an id unused in this run, removed hosts included."""
        if host.id in self.all_hosts:
            raise ValueError("duplicate node id %r" % host.id)
        self.hosts[host.id] = host
        self.all_hosts[host.id] = host
        self._adj.setdefault(host.id, [])
        self._route_cache.clear()

    def remove_host(self, node: str):
        host = self.hosts.pop(node, None)
        if host is None:
            return
        for peer, _lat in list(self._adj.get(node, [])):
            self._drop_link_pair(node, peer)
        self._adj.pop(node, None)
        self._route_cache.clear()

    def add_link(self, a: str, b: str, latency_ms: float, bandwidth_mbps: float):
        if a not in self.hosts or b not in self.hosts:
            raise ValueError("link endpoint missing: %r-%r" % (a, b))
        if (a, b) in self._links:
            raise ValueError("duplicate link %r-%r" % (a, b))
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be > 0")
        if latency_ms < 0:
            raise ValueError("latency must be >= 0")
        self._links[(a, b)] = _LinkDir(self, a, b, latency_ms, bandwidth_mbps)
        self._links[(b, a)] = _LinkDir(self, b, a, latency_ms, bandwidth_mbps)
        self._adj[a].append((b, latency_ms))
        self._adj[b].append((a, latency_ms))
        self.hosts[a].attach_link_face(b)
        self.hosts[b].attach_link_face(a)
        self._route_cache.clear()

    def _drop_link_pair(self, a: str, b: str):
        self._links.pop((a, b), None)
        self._links.pop((b, a), None)
        if a in self._adj:
            self._adj[a] = [(p, l) for p, l in self._adj[a] if p != b]
        if b in self._adj:
            self._adj[b] = [(p, l) for p, l in self._adj[b] if p != a]

    def remove_link(self, a: str, b: str):
        self._drop_link_pair(a, b)
        self._route_cache.clear()

    def has_link(self, a: str, b: str) -> bool:
        return (a, b) in self._links

    def links_of(self, node: str) -> list[tuple[str, float, float]]:
        """The links at ``node`` as (peer, latency_ms, mbps), in the order added."""
        return [(peer, lat, self._links[(node, peer)].mbps)
                for peer, lat in self._adj.get(node, [])]

    # -- IP routing (shortest path by latency) ------------------------------

    def _routes_from(self, src: str) -> tuple[dict[str, float], dict[str, str]]:
        cached = self._route_cache.get(src)
        if cached is not None:
            return cached
        dist: dict[str, float] = {src: 0.0}
        first: dict[str, str] = {}
        counter = 0
        pq: list[tuple[float, str, int, str]] = [(0.0, src, 0, "")]
        done: set[str] = set()
        while pq:
            d, node, _c, via = heapq.heappop(pq)
            if node in done:
                continue
            done.add(node)
            if via:
                first[node] = via
            for peer, lat in self._adj.get(node, []):
                nd = d + lat
                if peer not in dist or nd < dist[peer]:
                    dist[peer] = nd
                    counter += 1
                    heapq.heappush(pq, (nd, peer, counter, via if via else peer))
        out = (dist, first)
        self._route_cache[src] = out
        return out

    def shortest_latency(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        return self._routes_from(a)[0].get(b, INFINITY)

    def next_hop(self, a: str, b: str) -> str | None:
        if a == b:
            return None
        return self._routes_from(a)[1].get(b)

    # -- transmission --------------------------------------------------------

    def send(self, src: str, dst: str, nbytes: int, msg) -> bool:
        link = self._links.get((src, dst))
        shost = self.hosts[src]
        if link is None:
            shost.counters.drop(DROP_NO_ROUTE)
            return False
        start = self.now if self.now > link.free_at else link.free_at
        ser = nbytes * 8.0 / (link.mbps * 1000.0)
        link.free_at = start + ser
        at = link.free_at + link.latency_ms
        c = shost.counters
        c.tx_pkts += 1
        c.tx_bytes += nbytes
        link.in_flight.append((msg, nbytes))
        self.schedule(at, link.deliver)
        return True


class Host:
    """One simulated machine: faces, counters, meters and its services.

    A host may run an NDN forwarder (possibly a gateway), host a CDN
    origin service, forward plain IP messages hop by hop, or any mix.
    """

    __slots__ = ("net", "id", "role", "fwd", "origin", "packet_ms", "cpu_ms",
                 "counters", "faces", "face_by_peer", "apps", "_next_face",
                 "origin_timeout_ms", "_fetches", "_next_rid",
                 "_ip_waiters", "publish_hook")

    def __init__(self, net: Network, node_id: str, role: str = "host",
                 fwd: Forwarder | None = None, origin: CdnOrigin | None = None,
                 vcpus: int = 1, per_packet_cost_ms: float = 0.02,
                 origin_timeout_ms: float = 30_000.0):
        self.net = net
        self.id = node_id
        self.role = role
        self.fwd = fwd
        self.origin = origin
        self.packet_ms = per_packet_cost_ms / max(1, vcpus)
        self.cpu_ms = 0.0
        self.counters = fwd.counters if fwd is not None else Counters()
        self.faces: dict[int, str] = {}
        self.face_by_peer: dict[str, int] = {}
        self.apps: dict[int, Callable] = {}
        self._next_face = 0
        self.origin_timeout_ms = origin_timeout_ms
        self._fetches: dict[int, tuple[PendingFetch, float, Event]] = {}  # (fetch, start, timeout)
        self._next_rid = 0
        self._ip_waiters: dict[int, Callable] = {}
        self.publish_hook: Callable | None = None

    # -- faces ---------------------------------------------------------------

    def _alloc_face(self) -> int:
        f = self._next_face
        self._next_face += 1
        return f

    def attach_link_face(self, peer: str) -> int:
        face = self._alloc_face()
        self.faces[face] = peer
        self.face_by_peer[peer] = face
        if self.fwd is not None:
            self.fwd.register_face(face)
        return face

    def attach_app(self, callback: Callable) -> int:
        face = self._alloc_face()
        self.apps[face] = callback
        if self.fwd is not None:
            self.fwd.register_face(face)
        return face

    def next_request_id(self) -> int:
        rid = self._next_rid
        self._next_rid += 1
        return rid

    def await_ip_response(self, rid: int, cb: Callable):
        self._ip_waiters[rid] = cb

    def forget_ip_response(self, rid: int):
        self._ip_waiters.pop(rid, None)

    # -- meters ---------------------------------------------------------------

    @property
    def busy_ms_total(self) -> float:
        """CPU ms used: a cost per packet sent or received plus ``charge_ms`` work."""
        c = self.counters
        return (c.rx_pkts + c.tx_pkts) * self.packet_ms + self.cpu_ms

    def charge_ms(self, ms: float):
        self.cpu_ms += ms

    def mem_bytes(self) -> int:
        total = 0
        if self.fwd is not None:
            total += self.fwd.mem_model_bytes()
        if self.origin is not None:
            total += self.origin.store_bytes
        return total

    # -- packet handling -------------------------------------------------------

    def receive(self, now: float, src: str, msg, nbytes: int):
        c = self.counters
        c.rx_pkts += 1
        c.rx_bytes += nbytes
        kind = type(msg)
        if kind is Interest or kind is WireData:
            face = self.face_by_peer.get(src)
            if face is None or self.fwd is None:
                c.drop(DROP_NO_ROUTE)
                return
            if kind is Interest:
                self._emit(self.fwd.on_interest(now, face, msg), self.id)
            else:
                self._emit(self.fwd.on_data(now, face, msg.data), msg.served_by)
        else:
            self._handle_ip(now, msg, nbytes)

    def _emit(self, actions, served_by: str):
        """Send each ``(face, packet)`` pair, or hand a Data to the app on
        its face; a PendingFetch starts an origin fetch."""
        for face, p in actions:
            t = type(p)
            if t is Data:
                cb = self.apps.get(face)
                if cb is not None:
                    cb(self.net.now, p, served_by)
                else:
                    wire = object.__new__(WireData)
                    wire.data = p
                    wire.served_by = served_by
                    self.net.send(self.id, self.faces[face], p.wire_len, wire)
            elif t is Interest:
                peer = self.faces.get(face)
                if peer is not None:
                    self.net.send(self.id, peer, p.name._wire_len + INTEREST_FIELDS_LEN, p)
            else:
                self._start_fetch(self.net.now, p)

    # -- IP side ---------------------------------------------------------------

    def send_ip(self, msg, nbytes: int) -> bool:
        nh = self.net.next_hop(self.id, msg.dst)
        if nh is None:
            self.counters.drop(DROP_NO_ROUTE)
            return False
        return self.net.send(self.id, nh, nbytes, msg)

    def _handle_ip(self, now: float, msg, nbytes: int):
        if msg.dst != self.id:
            self.send_ip(msg, nbytes)
            return
        if type(msg) is IpRequest:
            self._serve_ip_request(now, msg)
        elif type(msg) is IpResponse:
            if msg.request_id in self._fetches:
                self._end_fetch(now, msg.request_id, msg)
            else:
                cb = self._ip_waiters.pop(msg.request_id, None)
                if cb is not None:
                    cb(now, msg)

    def _serve_ip_request(self, now: float, msg: IpRequest):
        if self.origin is None:
            self.counters.drop(DROP_NO_ROUTE)
            return
        try:
            payload = self.origin.stream(msg.content_id, msg.resolution)
        except UnknownContent:
            resp = IpResponse(self.id, msg.src, msg.request_id, None, b"\0" * 32,
                              "UnknownContent")
            self.send_ip(resp, IP_REQUEST_BYTES)
            return
        digest = self.origin.get(msg.content_id, msg.resolution).digest
        resp = IpResponse(self.id, msg.src, msg.request_id, payload, digest, None)
        self.send_ip(resp, len(payload))

    # -- gateway fetch plumbing --------------------------------------------------

    def _start_fetch(self, now: float, pf: PendingFetch):
        gw = self.fwd
        assert isinstance(gw, Gateway) and gw.origin_ref is not None
        rid = self.next_request_id()
        self.counters.origin_fetches += 1
        req = IpRequest(self.id, gw.origin_ref.node, rid, pf.content_id, pf.resolution)
        self.send_ip(req, IP_REQUEST_BYTES)
        ev = self.net.schedule(now + self.origin_timeout_ms,
                               lambda t, rid=rid: self._end_fetch(t, rid, None))
        self._fetches[rid] = (pf, now, ev)

    def _end_fetch(self, now: float, rid: int, msg: IpResponse | None):
        """Publish the fetched content, or fail its waiters on an error
        response, on a payload that does not match its digest or, with
        ``msg`` None, on the timeout."""
        fetch = self._fetches.pop(rid, None)
        if fetch is None:
            return
        pf, started, ev = fetch
        gw = self.fwd
        if msg is not None:
            self.net.cancel(ev)
        if (msg is None or msg.error is not None or msg.payload is None
                or compute_digest(msg.payload) != msg.digest):
            gw.fetch_failed(now, pf.base)
            return
        _count, actions = gw.publish_content_to_icn(now, pf.content_id, pf.resolution,
                                                    msg.payload)
        if self.publish_hook is not None:
            self.publish_hook(pf.content_id, pf.resolution, len(msg.payload), now - started)
        self._emit(actions, self.id)


@dataclass(slots=True)
class RequestRecord:
    """One row of requests.csv plus internal bookkeeping fields."""

    request_id: int
    region: str
    consumer_node: str
    content: str
    resolution: str
    t_issue_ms: float
    t_complete_ms: float
    delivery_ms: float
    served_by: str
    status: str
    bytes_received: int = 0
    attempts: int = 1


class _Request:
    __slots__ = ("rid", "t_issue", "next_seg", "got", "nbytes", "served_by", "done",
                 "attempts")

    def __init__(self, rid: int, t_issue: float):
        self.rid = rid
        self.t_issue = t_issue
        self.next_seg = 0
        self.got = 0
        self.nbytes = 0
        self.served_by = ""
        self.done = False
        self.attempts = 1


class _Outstanding:
    """One segment's interest in flight at a population and the requests
    waiting on it; ``Population._advance`` builds it without ``__init__``."""

    __slots__ = ("seg", "last_issue", "attempts", "waiters")


class _Consumers:
    """One region's consumers attached at a node, requesting one content.

    The base schedules arrivals, counts issued and active requests and
    writes the request records; a subclass fetches each request in
    ``_begin`` and ends it through ``_record``.
    """

    def __init__(self, net: Network, host: Host, region: str, content: Name,
                 resolution: str, request_count: int, pattern: tuple, rng,
                 records: list[RequestRecord], rid_counter):
        self.net = net
        self.host = host
        self.region = region
        self.content_uri = str(content)  # one string shared by every record
        self.resolution = resolution
        self.request_count = request_count
        self.pattern = pattern
        self.rng = rng
        self.records = records
        self.rid_counter = rid_counter
        self.issued = 0
        self.active = 0

    def start(self):
        if self.request_count > 0:
            first = 0.0 if self.pattern[0] == "uniform" else self._next_gap()
            self.net.schedule(first, self._arrive)

    def _next_gap(self) -> float:
        if self.pattern[0] == "uniform":
            return self.pattern[1]
        # poisson: seeded exponential inter-arrival, rate in requests/s
        return self.rng.expovariate(self.pattern[1]) * 1000.0

    def _arrive(self, now: float):
        rid = next(self.rid_counter)
        self.issued += 1
        self.active += 1
        # Outputs depend on this order: the next arrival is drawn and
        # scheduled before this request's own draws and timers.
        if self.issued < self.request_count:
            self.net.schedule(now + self._next_gap(), self._arrive)
        self._begin(now, rid)

    def _begin(self, now: float, rid: int):
        raise NotImplementedError

    def _record(self, rid: int, t_issue: float, now: float, served_by: str,
                status: str, nbytes: int, attempts: int = 1):
        self.active -= 1
        self.records.append(RequestRecord(
            rid, self.region, self.host.id, self.content_uri, self.resolution,
            t_issue, now, now - t_issue, served_by, status, nbytes, attempts))

    def finished(self) -> bool:
        return self.issued >= self.request_count and self.active == 0


class Population(_Consumers):
    """NDN consumers: each request pulls every segment of the content.

    Segments go through a sliding window of outstanding interests;
    concurrent requests for the same segment share one outstanding
    interest at the host. Unanswered interests retransmit with fresh
    nonces up to the attempt limit.
    """

    def __init__(self, net: Network, host: Host, region: str, content: Name,
                 resolution: str, seg_count: int, request_count: int,
                 pattern: tuple, retransmit_ms: float, rng,
                 records: list[RequestRecord], rid_counter, window: int = 4,
                 lifetime_ms: int = 4000, max_attempts: int = 5):
        super().__init__(net, host, region, content, resolution, request_count,
                         pattern, rng, records, rid_counter)
        if not 0 <= lifetime_ms <= U32_MAX:
            raise ValueError("lifetime out of u32 range")
        self.seg_count = seg_count
        self.retransmit_ms = retransmit_ms
        self.window = window
        self.lifetime_ms = lifetime_ms
        self.max_attempts = max_attempts
        self.outstanding: dict[Name, _Outstanding] = {}
        self.app_face = host.attach_app(self._app_cb)
        self._inbox: deque = deque()
        self._draining = False
        self._watchdog_on = False
        self._seg_names = [content.segment(i) for i in range(seg_count)]

    # -- request lifecycle ------------------------------------------------------

    def _begin(self, now: float, rid: int):
        self._ensure_watchdog(now)
        self._advance(now, _Request(rid, now))

    def _advance(self, now: float, req: _Request):
        while (not req.done and req.next_seg - req.got < self.window
               and req.next_seg < self.seg_count):
            seg = req.next_seg
            req.next_seg += 1
            name = self._seg_names[seg]
            entry = self.outstanding.get(name)
            if entry is not None:
                entry.waiters.append(req)
            else:
                entry = object.__new__(_Outstanding)
                entry.seg = seg
                entry.last_issue = now
                entry.attempts = 1
                entry.waiters = [req]
                self.outstanding[name] = entry
                self._issue_interest(name)

    def _issue_interest(self, name: Name):
        """Feed an interest for ``name`` into the host's forwarder on the
        population's application face."""
        # Built without __init__: a 64-bit nonce, a lifetime checked when
        # the population was made and the default hop limit are all valid.
        interest = object.__new__(Interest)
        interest.name = name
        interest.nonce = self.rng.getrandbits(64)
        interest.lifetime_ms = self.lifetime_ms
        interest.hop_limit = DEFAULT_HOP_LIMIT
        host = self.host
        host._emit(host.fwd.on_interest(self.net.now, self.app_face, interest), host.id)

    def _end(self, now: float, req: _Request, status: str):
        req.done = True
        self._record(req.rid, req.t_issue, now, req.served_by, status, req.nbytes,
                     req.attempts)

    # -- data arrival -------------------------------------------------------------

    def _app_cb(self, now: float, data: Data, served_by: str):
        """Take one Data. A Data handed over while an earlier one is being
        processed (an interest it issues can hit the local content store)
        waits in the inbox, so Data are processed one at a time, in order."""
        inbox = self._inbox
        inbox.append((now, data, served_by))
        if self._draining:
            return
        self._draining = True
        try:
            while inbox:
                now, data, served_by = inbox.popleft()
                # The forwarder memoized the check; a Data put in a store by
                # hand has no memo yet and is hashed here.
                ok = data._intact
                if ok is None:
                    ok = data.intact()
                if not ok or data.final_segment != self.seg_count - 1:
                    # Should have been dropped upstream. Treat it as a loss: the
                    # entry stays and the watchdog retransmits it under max_attempts.
                    continue
                entry = self.outstanding.pop(data.name, None)
                if entry is None:
                    continue  # late duplicate
                seg = entry.seg
                size = len(data.payload)
                for req in entry.waiters:
                    if req.done:
                        continue
                    req.got += 1
                    req.nbytes += size
                    if seg == 0:
                        req.served_by = served_by
                    if req.got == self.seg_count:
                        self._end(now, req, "ok")
                    else:
                        self._advance(now, req)
        finally:
            self._draining = False

    # -- retransmission -------------------------------------------------------------

    def _ensure_watchdog(self, now: float):
        if not self._watchdog_on:
            self._watchdog_on = True
            self.net.schedule(now + self.retransmit_ms, self._watchdog, real=False)

    def _watchdog(self, now: float):
        for name in list(self.outstanding):
            entry = self.outstanding.get(name)
            if entry is None:
                continue
            entry.waiters = [r for r in entry.waiters if not r.done]
            if not entry.waiters:
                del self.outstanding[name]
                continue
            if now - entry.last_issue < self.retransmit_ms:
                continue
            if entry.attempts >= self.max_attempts:
                for req in list(entry.waiters):
                    if not req.done:
                        req.attempts = entry.attempts
                        self._end(now, req, "failed")
                del self.outstanding[name]
                continue
            entry.attempts += 1
            entry.last_issue = now
            for req in entry.waiters:
                req.attempts = max(req.attempts, entry.attempts)
            self._issue_interest(name)
        if self.active > 0 or self.issued < self.request_count:
            self.net.schedule(now + self.retransmit_ms, self._watchdog, real=False)
        else:
            self._watchdog_on = False


class IpPopulation(_Consumers):
    """Baseline consumers fetching whole contents over plain IP."""

    def __init__(self, net: Network, host: Host, region: str, content: Name,
                 content_id: str, resolution: str, content_size: int,
                 target_node: str, request_count: int, pattern: tuple,
                 rng, records: list[RequestRecord], rid_counter,
                 timeout_ms: float = 30_000.0):
        super().__init__(net, host, region, content, resolution, request_count,
                         pattern, rng, records, rid_counter)
        self.content_id = content_id
        self.content_size = content_size
        self.target = target_node
        self.timeout_ms = timeout_ms
        self._live: dict[int, tuple[int, float, Event]] = {}  # ip id -> (rid, t_issue, timeout)
        self._verified: tuple[bytes, bytes] | None = None  # (payload, digest) last found intact

    def _begin(self, now: float, rid: int):
        ip_id = self.host.next_request_id()
        ev = self.net.schedule(now + self.timeout_ms,
                               lambda t, ip_id=ip_id: self._timeout(t, ip_id))
        self._live[ip_id] = (rid, now, ev)
        self.host.await_ip_response(ip_id, self._on_response)
        req = IpRequest(self.host.id, self.target, ip_id, self.content_id, self.resolution)
        self.host.send_ip(req, IP_REQUEST_BYTES)

    def _on_response(self, now: float, msg: IpResponse):
        meta = self._live.pop(msg.request_id, None)
        if meta is None:
            return
        rid, t_issue, ev = meta
        self.net.cancel(ev)
        # The origin resends one bytes object; the tuple compare matches it by identity.
        pair = (msg.payload, msg.digest)
        ok = (msg.error is None and msg.payload is not None
              and len(msg.payload) == self.content_size
              and (pair == self._verified or compute_digest(msg.payload) == msg.digest))
        if ok:
            self._verified = pair
        self._record(rid, t_issue, now, msg.src, "ok" if ok else "failed",
                     len(msg.payload) if msg.payload else 0)

    def _timeout(self, now: float, ip_id: int):
        meta = self._live.pop(ip_id, None)
        if meta is None:
            return
        self.host.forget_ip_response(ip_id)
        rid, t_issue, _ev = meta
        self._record(rid, t_issue, now, "", "failed", 0)
