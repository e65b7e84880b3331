"""Seeded discrete-event network engine.

Nodes, point-to-point links with latency and per-direction FIFO
bandwidth serialization, a global virtual clock in float milliseconds,
consumer request generators, and the host wrapper that turns the
forwarder's ``(face, packet)`` pairs into wire traffic or hands them to
the application on the face (a consumer population or the gateway
producer). Each direction of a link is one ``_LinkDir``, held only by
the host that sends on it: in its ``links`` under the peer and in its
``faces`` under the face. IP routing reads the hosts' links. Everything
is single-threaded and fully deterministic: events execute in (time, seq)
order with seq assigned at scheduling. The heap holds ``(time, seq,
Event)`` tuples: seq is unique, so heap order is a tuple comparison in C
that never reaches the Event.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from typing import Callable

from .forwarder import DROP_NO_ROUTE, Counters, Forwarder
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
    """One direction of a link: the one record of it, held by the sending
    host in ``links`` under ``dst`` and in ``faces`` under ``face``.

    ``rx_face`` is the receiving host's face for the link. ``free_at``
    never falls and the latency is fixed, so messages arrive in the order
    they were sent: each delivery event takes the head of ``in_flight``, a
    ``(msg, nbytes, served_by)`` record whose ``served_by`` names the node
    that answered a Data and is empty for any other message.
    ``deliver``, bound once, is the receiving host's ``receive`` with this
    link as its first argument, and serves them all. ``src`` names the
    sender, and ``counters`` are its counters.
    """

    __slots__ = ("src", "dst", "face", "rx_face", "latency_ms", "mbps", "kbps", "free_at",
                 "in_flight", "counters", "deliver")

    def __init__(self, src: "Host", dst: "Host", latency_ms: float, mbps: float):
        self.src = src.id
        self.dst = dst.id
        self.latency_ms = latency_ms
        self.mbps = mbps
        self.kbps = mbps * 1000.0
        self.free_at = 0.0
        self.in_flight: deque = deque()  # (msg, nbytes, served_by), in send order
        self.counters = src.counters
        self.deliver = partial(dst.receive, self)


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
    """The event queue, the hosts and IP routing over their links."""

    def __init__(self, horizon_ms: float | None = None):
        self.now = 0.0
        self.horizon_ms = horizon_ms
        self.hosts: dict[str, "Host"] = {}
        self.all_hosts: dict[str, "Host"] = {}  # never pruned; keeps counters
        self._heap: list[tuple[float, int, Event]] = []
        self._next_seq = itertools.count().__next__
        # src -> (latency, first hop, outgoing link) per reachable destination
        self._route_cache: dict[str, tuple[dict[str, float], dict[str, str],
                                           dict[str, _LinkDir]]] = {}
        # (content_id, resolution, bytes, ms) per gateway publish
        self.publishes: list[tuple[str, str, int, float]] = []
        # digest -> the payload object an origin sends under it. The origin
        # hashed that very object, so no receiver hashes it again; a
        # corrupted copy is another object and is hashed.
        self.ip_intact: dict[bytes, bytes] = {}

    # -- scheduling --------------------------------------------------------

    def schedule(self, at: float, fn, real: bool = True) -> Event:
        if at < self.now:
            at = self.now
        ev = object.__new__(Event)
        ev.fn = fn
        ev.real = real
        ev.cancelled = False
        heappush(self._heap, (at, self._next_seq(), ev))
        return ev

    def cancel(self, ev: Event):
        ev.cancelled = True

    def active(self) -> bool:
        """True while real (non-housekeeping) events are still pending.

        A scan that stops at the first such event: the housekeeping ticks
        that ask are few, and nearly every pending event is real."""
        for _at, _seq, ev in self._heap:
            if ev.real and not ev.cancelled:
                return True
        return False

    def run_to_completion(self) -> float:
        heap = self._heap
        horizon = INFINITY if self.horizon_ms is None else self.horizon_ms
        while heap:
            at, _seq, ev = heappop(heap)
            if ev.cancelled:
                continue
            if at > horizon:
                raise HorizonExceeded(
                    "event at %.3f ms beyond horizon %.3f ms" % (at, horizon))
            self.now = at
            ev.cancelled = True  # spent: cancelling it later changes nothing
            ev.fn(at)
        return self.now

    # -- topology ----------------------------------------------------------

    def add_host(self, host: "Host"):
        """Add a host under an id unused in this run, removed hosts included."""
        if host.id in self.all_hosts:
            raise ValueError("duplicate node id %r" % host.id)
        self.hosts[host.id] = host
        self.all_hosts[host.id] = host
        self._route_cache.clear()

    def remove_host(self, node: str):
        host = self.hosts.pop(node, None)
        if host is None:
            return
        host.removed = True
        for peer in list(host.links):
            self._unlink(host, self.hosts[peer])
        self._route_cache.clear()

    def add_link(self, a: str, b: str, latency_ms: float, bandwidth_mbps: float):
        ha, hb = self.hosts.get(a), self.hosts.get(b)
        if ha is None or hb is None:
            raise ValueError("link endpoint missing: %r-%r" % (a, b))
        if b in ha.links:
            raise ValueError("duplicate link %r-%r" % (a, b))
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be > 0")
        if latency_ms < 0:
            raise ValueError("latency must be >= 0")
        ab = ha.links[b] = _LinkDir(ha, hb, latency_ms, bandwidth_mbps)
        ba = hb.links[a] = _LinkDir(hb, ha, latency_ms, bandwidth_mbps)
        ab.face = ba.rx_face = ha._add_face(ab)
        ba.face = ab.rx_face = hb._add_face(ba)
        self._route_cache.clear()

    @staticmethod
    def _unlink(ha: "Host", hb: "Host"):
        """Drop both directions of the link between two hosts; their faces
        stay, leading nowhere."""
        for x, y in ((ha, hb), (hb, ha)):
            link = x.links.pop(y.id, None)
            if link is not None:
                x.faces[link.face] = None

    def remove_link(self, a: str, b: str):
        self._unlink(self.hosts[a], self.hosts[b])
        self._route_cache.clear()

    # -- IP routing (shortest path by latency) ------------------------------

    def _routes_from(self, src: str) -> tuple[dict[str, float], dict[str, str],
                                              dict[str, _LinkDir]]:
        """Shortest latencies, first hops and ``src``'s outgoing link for
        each destination ``src`` reaches, computed once per topology: every
        topology change clears the cache."""
        cached = self._route_cache.get(src)
        if cached is not None:
            return cached
        dist: dict[str, float] = {src: 0.0}
        first: dict[str, str] = {}
        out: dict[str, _LinkDir] = {}
        links = self.all_hosts[src].links
        counter = 0
        pq: list[tuple[float, str, int, str]] = [(0.0, src, 0, "")]
        done: set[str] = set()
        while pq:
            d, node, _c, via = heappop(pq)
            if node in done:
                continue
            done.add(node)
            if via:
                first[node] = via
                out[node] = links[via]
            for peer, link in self.all_hosts[node].links.items():
                nd = d + link.latency_ms
                if peer not in dist or nd < dist[peer]:
                    dist[peer] = nd
                    counter += 1
                    heappush(pq, (nd, peer, counter, via if via else peer))
        routes = self._route_cache[src] = (dist, first, out)
        return routes

    def shortest_latency(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        return self._routes_from(a)[0].get(b, INFINITY)

    def next_hop(self, a: str, b: str) -> str | None:
        if a == b:
            return None
        return self._routes_from(a)[1].get(b)

    # -- transmission --------------------------------------------------------

    def send(self, link: _LinkDir, nbytes: int, msg, served_by: str = ""):
        start = self.now
        if start < link.free_at:
            start = link.free_at
        link.free_at = start = start + nbytes * 8.0 / link.kbps
        link.counters.tx_pkts += 1
        link.counters.tx_bytes += nbytes
        link.in_flight.append((msg, nbytes, served_by))
        self.schedule(start + link.latency_ms, link.deliver)


class Host:
    """One simulated machine: faces, links, counters, meters and its services.

    A host may run an NDN forwarder, with the gateway's producer on one of
    its faces, host a CDN origin service, forward plain IP messages hop by
    hop, or any mix. ``links`` maps each peer to the outgoing ``_LinkDir``,
    in the order added. ``faces`` maps each face to what it sends on: its
    outgoing ``_LinkDir``, its application's callback (a consumer
    population or the gateway), or ``None`` once its link is removed.
    """

    __slots__ = ("net", "id", "role", "fwd", "gateway", "origin", "packet_ms", "cpu_ms",
                 "counters", "links", "faces", "_next_face", "_next_rid", "_ip_waiters",
                 "removed")

    def __init__(self, net: Network, node_id: str, role: str = "host",
                 fwd: Forwarder | None = None, origin: CdnOrigin | None = None,
                 vcpus: int = 1, per_packet_cost_ms: float = 0.02):
        self.net = net
        self.id = node_id
        self.role = role
        self.fwd = fwd
        self.gateway = None  # the gateway producer slice linking builds here, if any
        self.origin = origin
        self.packet_ms = per_packet_cost_ms / max(1, vcpus)
        self.cpu_ms = 0.0
        self.counters = fwd.counters if fwd is not None else Counters()
        self.links: dict[str, _LinkDir] = {}
        self.faces: dict[int, _LinkDir | Callable | None] = {}
        self._next_face = 0
        self._next_rid = 0
        self._ip_waiters: dict[int, tuple[Callable, Event]] = {}  # rid -> (callback, timeout)
        self.removed = False  # set by Network.remove_host

    # -- faces ---------------------------------------------------------------

    def _add_face(self, out: _LinkDir | Callable) -> int:
        face = self._next_face
        self._next_face += 1
        self.faces[face] = out
        if self.fwd is not None:
            self.fwd.register_face(face)
        return face

    def attach_app(self, callback: Callable) -> int:
        return self._add_face(callback)

    def next_request_id(self) -> int:
        rid = self._next_rid
        self._next_rid += 1
        return rid

    def await_ip_response(self, rid: int, cb: Callable, timeout_ms: float):
        """Call ``cb(now, response)`` once: with the response to request
        ``rid``, or with a ``timeout`` error response after ``timeout_ms``."""
        self._ip_waiters[rid] = (cb, self.net.schedule(self.net.now + timeout_ms,
                                                       partial(self._ip_timeout, rid)))

    def _ip_timeout(self, rid: int, now: float):
        cb, _timeout = self._ip_waiters.pop(rid)
        cb(now, IpResponse("", self.id, rid, None, b"", "timeout"))

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
        if self.gateway is not None:
            total += self.gateway.repo_bytes
        if self.origin is not None:
            total += self.origin.store_bytes
        return total

    # -- packet handling -------------------------------------------------------

    def receive(self, link: _LinkDir, now: float):
        """Take the message at the head of ``link`` off it and handle it.

        A host removed from the network takes nothing and counts nothing.
        """
        msg, nbytes, served_by = link.in_flight.popleft()
        if self.removed:
            return
        self.counters.rx_pkts += 1
        self.counters.rx_bytes += nbytes
        kind = type(msg)
        if kind is Interest and self.fwd is not None:
            self._emit(now, self.fwd.on_interest(now, link.rx_face, msg), self.id)
        elif kind is Data and self.fwd is not None:
            self._emit(now, self.fwd.on_data(now, link.rx_face, msg), served_by)
        elif kind is Interest or kind is Data:
            self.counters.drop(DROP_NO_ROUTE)  # an NDN packet at a host with no forwarder
        else:
            self._handle_ip(now, msg, nbytes)

    def _emit(self, now: float, actions, served_by: str):
        """Send each ``(face, packet)`` pair on its face's link, or hand the
        packet to the application on its face. A face whose link is removed
        drops the packet as no-route."""
        faces = self.faces
        for face, p in actions:
            out = faces[face]
            if type(out) is _LinkDir:
                if type(p) is Data:
                    self.net.send(out, p.wire_len, p, served_by)
                else:
                    self.net.send(out, p.name._wire_len + INTEREST_FIELDS_LEN, p)
            elif out is None:
                self.counters.drop(DROP_NO_ROUTE)
            else:
                out(now, p, served_by)

    # -- IP side ---------------------------------------------------------------

    def send_ip(self, msg, nbytes: int):
        """Send ``msg`` on the first link of the shortest path to its
        destination, read from the route cache; no path drops it as no-route."""
        net = self.net
        link = (net._route_cache.get(self.id) or net._routes_from(self.id))[2].get(msg.dst)
        if link is None:
            self.counters.drop(DROP_NO_ROUTE)
        else:
            net.send(link, nbytes, msg)

    def _handle_ip(self, now: float, msg, nbytes: int):
        """Forward, serve, or answer a waiter: a response that arrives
        after its timeout is dropped, and one whose payload does not match
        its digest reaches the waiter as an ``integrity`` error."""
        if msg.dst != self.id:
            self.send_ip(msg, nbytes)
        elif type(msg) is IpRequest:
            self._serve_ip_request(now, msg)
        elif type(msg) is IpResponse:
            waiter = self._ip_waiters.pop(msg.request_id, None)
            if waiter is None:
                return
            cb, timeout = waiter
            self.net.cancel(timeout)
            payload = msg.payload
            if msg.error is None and (payload is None or (
                    self.net.ip_intact.get(msg.digest) is not payload
                    and compute_digest(payload) != msg.digest)):
                msg.error = "integrity"
            cb(now, msg)

    def _serve_ip_request(self, now: float, msg: IpRequest):
        if self.origin is None:
            self.counters.drop(DROP_NO_ROUTE)
            return
        try:
            obj = self.origin.get(msg.content_id, msg.resolution)
        except UnknownContent:
            resp = IpResponse(self.id, msg.src, msg.request_id, None, b"\0" * 32,
                              "UnknownContent")
            self.send_ip(resp, IP_REQUEST_BYTES)
            return
        payload = self.origin.stream(obj)
        digest = obj.digest
        self.net.ip_intact[digest] = payload
        resp = IpResponse(self.id, msg.src, msg.request_id, payload, digest, None)
        self.send_ip(resp, len(payload))


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
    writes the request records; a request that arrives after the host was
    removed fails at once. A subclass fetches each other request in
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
        if self.host.removed:  # its node has left the network
            self._record(rid, now, now, "", "failed", 0)
        else:
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
        self._last_seg = seg_count - 1
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
        self._nonce = rng.getrandbits  # one 64-bit draw per interest issued

    # -- request lifecycle ------------------------------------------------------

    def _begin(self, now: float, rid: int):
        self._ensure_watchdog(now)
        self._advance(now, _Request(rid, now))

    def _advance(self, now: float, req: _Request):
        # An interest issued here can be answered at once, and that answer
        # can end or advance ``req``: its fields are read afresh each round.
        while True:
            seg = req.next_seg
            if seg - req.got >= self.window or seg >= self.seg_count or req.done:
                return
            req.next_seg = seg + 1
            name = self._seg_names[seg]
            entry = self.outstanding.get(name)
            if entry is None:
                entry = object.__new__(_Outstanding)
                entry.seg = seg
                entry.last_issue = now
                entry.attempts = 1
                entry.waiters = [req]
                self.outstanding[name] = entry
                self._issue_interest(name)
            else:
                entry.waiters.append(req)

    def _issue_interest(self, name: Name):
        """Feed an interest for ``name`` into the host's forwarder on the
        population's application face."""
        # Built without __init__: a 64-bit nonce, a lifetime checked when
        # the population was made and the default hop limit are all valid.
        interest = object.__new__(Interest)
        interest.name = name
        interest.nonce = self._nonce(64)
        interest.lifetime_ms = self.lifetime_ms
        interest.hop_limit = DEFAULT_HOP_LIMIT
        host = self.host
        now = self.net.now
        host._emit(now, host.fwd.on_interest(now, self.app_face, interest), host.id)

    def _end(self, now: float, req: _Request, status: str):
        req.done = True
        self._record(req.rid, req.t_issue, now, req.served_by, status, req.nbytes,
                     req.attempts)

    # -- data arrival -------------------------------------------------------------

    def _app_cb(self, now: float, data: Data, served_by: str):
        """Take one Data. A Data handed over while an earlier one is being
        processed (an interest it issues can hit the local content store)
        waits in the inbox, so Data are processed one at a time, in order."""
        if self._draining:
            self._inbox.append((now, data, served_by))
            return
        self._draining = True
        try:
            while True:
                # The forwarder memoized the check, and a Data from
                # ``make_data`` is intact when built; any other Data put in
                # a store by hand is hashed here. A Data that fails it or
                # names another last segment should have been dropped
                # upstream: it is a loss, so its entry stays and the watchdog
                # retransmits it under max_attempts.
                if (data._intact or data.intact()) and data.final_segment == self._last_seg:
                    entry = self.outstanding.pop(data.name, None)
                    if entry is not None:  # else a late duplicate
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
                if not self._inbox:
                    return
                now, data, served_by = self._inbox.popleft()
        finally:
            self._draining = False

    # -- retransmission -------------------------------------------------------------

    def _ensure_watchdog(self, now: float):
        if not self._watchdog_on:
            self._watchdog_on = True
            self.net.schedule(now + self.retransmit_ms, self._watchdog, real=False)

    def _watchdog(self, now: float):
        removed = self.host.removed  # if so, every waiting request fails and this stops
        for name in list(self.outstanding):
            entry = self.outstanding.get(name)
            if entry is None:
                continue
            entry.waiters = [r for r in entry.waiters if not r.done]
            if not entry.waiters:
                del self.outstanding[name]
                continue
            if now - entry.last_issue < self.retransmit_ms and not removed:
                continue
            if entry.attempts >= self.max_attempts or removed:
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
        if not removed and (self.active > 0 or self.issued < self.request_count):
            self.net.schedule(now + self.retransmit_ms, self._watchdog, real=False)
        else:
            self._watchdog_on = False


class IpPopulation(_Consumers):
    """Baseline consumers fetching whole contents over plain IP."""

    def __init__(self, net: Network, host: Host, region: str, content: Name,
                 content_id: str, resolution: str, target_node: str,
                 request_count: int, pattern: tuple, rng,
                 records: list[RequestRecord], rid_counter, timeout_ms: float = 30_000.0):
        super().__init__(net, host, region, content, resolution, request_count,
                         pattern, rng, records, rid_counter)
        self.content_id = content_id
        self.target = target_node
        self.timeout_ms = timeout_ms
        self._live: dict[int, tuple[int, float]] = {}  # ip id -> (rid, t_issue)

    def _begin(self, now: float, rid: int):
        ip_id = self.host.next_request_id()
        self._live[ip_id] = (rid, now)
        self.host.await_ip_response(ip_id, self._on_response, self.timeout_ms)
        req = IpRequest(self.host.id, self.target, ip_id, self.content_id, self.resolution)
        self.host.send_ip(req, IP_REQUEST_BYTES)

    def _on_response(self, now: float, msg: IpResponse):
        """End the request: a timeout has no sender and no payload."""
        rid, t_issue = self._live.pop(msg.request_id)
        self._record(rid, t_issue, now, msg.src, "ok" if msg.error is None else "failed",
                     len(msg.payload) if msg.payload else 0)
