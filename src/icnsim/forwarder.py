"""The NDN node state machine.

A forwarder owns three tables (content store, pending interest table,
forwarding information base) and processes one packet at a time. It
returns the packets its host must send, as ``(face, packet)`` pairs; a
dropped packet returns none and is recorded once, in ``Counters.drop``.
So a forwarder can be driven and tested without any network.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

from .ndn import Data, Interest, Name

DROP_LOOP = "loop"
DROP_NO_ROUTE = "no-route"
DROP_UNSOLICITED = "unsolicited"
DROP_INTEGRITY = "integrity"

PIT_ENTRY_MEM_BYTES = 512  # memory model charge per pending entry


class UnknownFace(LookupError):
    pass


class DuplicateFace(ValueError):
    pass


# A packet to send and the face to send it on.
Action = tuple[int, Interest | Data]


class Counters:
    """Per-node counters exported to the harness CSVs."""

    __slots__ = ("rx_pkts", "tx_pkts", "rx_bytes", "tx_bytes", "cs_hits",
                 "cs_misses", "pit_timeouts", "cs_rejections",
                 "origin_fetches", "drops")

    def __init__(self):
        self.rx_pkts = 0
        self.tx_pkts = 0
        self.rx_bytes = 0
        self.tx_bytes = 0
        self.cs_hits = 0
        self.cs_misses = 0
        self.pit_timeouts = 0
        self.cs_rejections = 0
        self.origin_fetches = 0
        self.drops: dict[str, int] = {}

    def drop(self, reason: str):
        self.drops[reason] = self.drops.get(reason, 0) + 1


def _stale_from(inserted_at: float, freshness_ms: int) -> float:
    """A time before which ``now - inserted_at >= freshness_ms`` is false.

    For 0 <= inserted_at <= now, the rounded ``now - inserted_at`` is off
    by at most half an ulp of ``now``, and the rounded sum
    ``inserted_at + freshness_ms`` by half an ulp of itself. So the
    predicate turns true no earlier than one ulp below the rounded sum,
    and the bound leaves two.
    """
    s = inserted_at + freshness_ms
    return s - 2.0 * math.ulp(s)


@dataclass(slots=True)
class CsEntry:
    data: Data
    inserted_at: float
    stale_from: float  # _stale_from(inserted_at, data.freshness_ms)


class ContentStore:
    """Exact-name cache with freshness-first then LRU eviction.

    ``stale_from`` is a lower bound on the ``stale_from`` of every entry,
    so eviction skips its scan for stale entries before that time. Times
    passed to one store never decrease.
    """

    __slots__ = ("capacity", "entries", "bytes", "stale_from")

    def __init__(self, capacity_bytes: int):
        self.capacity = capacity_bytes
        self.entries: OrderedDict[Name, CsEntry] = OrderedDict()
        self.bytes = 0
        self.stale_from = math.inf

    def lookup(self, now: float, name: Name) -> Data | None:
        e = self.entries.get(name)
        if e is None:
            return None
        if now - e.inserted_at >= e.data.freshness_ms:
            # Stale entries are never served; reclaim eagerly.
            del self.entries[name]
            self.bytes -= len(e.data.payload)
            return None
        self.entries.move_to_end(name)
        return e.data

    def insert(self, now: float, d: Data) -> tuple[bool, list[Name]]:
        size = len(d.payload)
        if size > self.capacity:
            return False, []
        stale_from = _stale_from(now, d.freshness_ms)
        old = self.entries.get(d.name)
        if old is not None:
            # Replace in place without double-counting; recency refreshed.
            self.bytes += size - len(old.data.payload)
            old.data = d
            old.inserted_at = now
            old.stale_from = stale_from
            self.stale_from = min(self.stale_from, stale_from)
            self.entries.move_to_end(d.name)
            return True, self._evict(now, [])
        evicted = self._evict(now, [], incoming=size)
        self.entries[d.name] = CsEntry(d, now, stale_from)
        self.stale_from = min(self.stale_from, stale_from)
        self.bytes += size
        return True, evicted

    def _evict(self, now: float, evicted: list[Name], incoming: int = 0) -> list[Name]:
        if self.bytes + incoming <= self.capacity:
            return evicted
        if now >= self.stale_from:
            for name in [n for n, e in self.entries.items()
                         if now - e.inserted_at >= e.data.freshness_ms]:
                e = self.entries.pop(name)
                self.bytes -= len(e.data.payload)
                evicted.append(name)
                if self.bytes + incoming <= self.capacity:
                    break
            self.stale_from = min((e.stale_from for e in self.entries.values()),
                                  default=math.inf)
        while self.bytes + incoming > self.capacity and self.entries:
            name, e = self.entries.popitem(last=False)
            self.bytes -= len(e.data.payload)
            evicted.append(name)
        return evicted

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(slots=True)
class PitEntry:
    """The one record of a pending interest; it expires at ``deadline``."""

    faces: dict[int, int]  # in-records: downstream face -> its latest nonce, insertion ordered
    deadline: float


@dataclass(slots=True)
class FibEntry:
    prefix: Name
    next_hops: list[tuple[int, int]]  # (face, cost) kept sorted by (cost, face)


class Forwarder:
    """One NDN node: CS + PIT with aggregation + longest-prefix FIB.

    Single-threaded by contract; all methods take the current simulated
    time explicitly and return the packets to send.
    """

    def __init__(self, cs_capacity_bytes: int = 0):
        self.cs = ContentStore(cs_capacity_bytes)
        self.pit: dict[Name, PitEntry] = {}
        self._fib: dict[Name, FibEntry] = {}
        self._lpm_cache: dict[Name, FibEntry | None] = {}
        self.faces: dict[int, None] = {}
        self.counters = Counters()

    # -- configuration ----------------------------------------------------

    def register_face(self, face: int):
        if face in self.faces:
            raise DuplicateFace(face)
        self.faces[face] = None

    def fib_insert(self, prefix: Name, next_hops: list[tuple[int, int]]):
        if not next_hops:
            raise ValueError("fib entry needs at least one next hop")
        for face, cost in next_hops:
            if face not in self.faces:
                raise UnknownFace(face)
            if cost < 0:
                raise ValueError("fib cost must be >= 0")
        self._fib[prefix] = FibEntry(prefix, sorted(next_hops, key=lambda h: (h[1], h[0])))
        self._lpm_cache.clear()

    def fib_add_next_hop(self, prefix: Name, face: int, cost: int):
        e = self._fib.get(prefix)
        if e is None:
            self.fib_insert(prefix, [(face, cost)])
            return
        if any(f == face for f, _ in e.next_hops):
            return
        e.next_hops.append((face, cost))
        e.next_hops.sort(key=lambda h: (h[1], h[0]))
        self._lpm_cache.clear()

    def fib_entries(self) -> list[FibEntry]:
        return list(self._fib.values())

    def fib_longest_prefix_match(self, name: Name) -> FibEntry | None:
        # Memoized per name; the memo is dropped on any FIB change. The
        # pipeline reads the memo itself and calls this on a miss.
        try:
            return self._lpm_cache[name]
        except KeyError:
            pass
        comps = name.components
        result = None
        for k in range(len(comps), -1, -1):
            e = self._fib.get(Name._unsafe(comps[:k]))
            if e is not None:
                result = e
                break
        self._lpm_cache[name] = result
        return result

    # -- packet pipeline ---------------------------------------------------

    def on_interest(self, now: float, face: int, interest: Interest) -> list[Action]:
        """Admission, then the content store, then ``_miss``.

        Admission checks the face and detects loops. An entry read at or
        after its deadline has expired: it is removed and counted as a
        timeout. An interest at hop limit 0, or whose nonce a live entry
        holds on any face, loops and is dropped.
        """
        if face not in self.faces:
            raise UnknownFace(face)
        name = interest.name
        entry = self.pit.get(name)
        if entry is not None:
            if entry.deadline <= now:
                del self.pit[name]
                self.counters.pit_timeouts += 1
                entry = None
            elif interest.nonce in entry.faces.values():
                self.counters.drop(DROP_LOOP)
                return []
        if not interest.hop_limit:  # 0: the interest cannot be forwarded at all
            self.counters.drop(DROP_LOOP)
            return []
        if self.cs.entries:
            data = self.cs.lookup(now, name)
            if data is not None:
                self.counters.cs_hits += 1
                return [(face, data)]
        return self._miss(now, face, interest, entry)

    def _miss(self, now: float, face: int, interest: Interest,
              entry: PitEntry | None) -> list[Action]:
        """An admitted interest the content store cannot answer: aggregate
        it on the live PIT ``entry``, or forward it on the FIB's best hop
        other than ``face``."""
        self.counters.cs_misses += 1
        if entry is not None:
            entry.faces[face] = interest.nonce
            return []
        try:
            fe = self._lpm_cache[interest.name]
        except KeyError:
            fe = self.fib_longest_prefix_match(interest.name)
        if fe is not None:
            for hop, _cost in fe.next_hops:
                if hop != face:
                    if interest.hop_limit <= 1:
                        # Forwarding would emit hop_limit 0, which is never legal.
                        self.counters.drop(DROP_LOOP)
                        return []
                    self._pit_insert(now, face, interest)
                    return [(hop, interest.decremented())]
        self.counters.drop(DROP_NO_ROUTE)
        return []

    def _pit_insert(self, now: float, face: int, interest: Interest):
        # Built without __init__: both fields are set here.
        entry = object.__new__(PitEntry)
        entry.faces = {face: interest.nonce}
        entry.deadline = now + interest.lifetime_ms
        self.pit[interest.name] = entry

    def on_data(self, now: float, face: int, d: Data) -> list[Action]:
        if face not in self.faces:
            raise UnknownFace(face)
        if not (d._intact or d.intact()):  # read the memo before hashing
            self.counters.drop(DROP_INTEGRITY)
            return []
        entry = self.pit.pop(d.name, None)
        if entry is None or entry.deadline <= now:
            # No entry, or one that expired, which counts as a timeout.
            if entry is not None:
                self.counters.pit_timeouts += 1
            self.counters.drop(DROP_UNSOLICITED)
            return []
        if not self.cs.insert(now, d)[0]:
            self.counters.cs_rejections += 1
        out = []  # a loop, not a comprehension: one frame less per Data
        for f in entry.faces:
            if f != face:
                out.append((f, d))
        return out

    # -- table maintenance -------------------------------------------------

    def pit_expire(self, now: float) -> list[Name]:
        """Remove the entries past their deadline. Reads already treat them
        as absent, so this only reclaims memory."""
        if not self.pit:
            return []
        expired = [n for n, e in self.pit.items() if e.deadline <= now]
        for n in expired:
            del self.pit[n]
        self.counters.pit_timeouts += len(expired)
        return expired

    def mem_model_bytes(self) -> int:
        return self.cs.bytes + len(self.pit) * PIT_ENTRY_MEM_BYTES
