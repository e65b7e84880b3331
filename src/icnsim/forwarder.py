"""The NDN node state machine.

A forwarder owns three tables (content store, pending interest table,
forwarding information base) and processes one packet at a time. It
returns the packets its host must send, as ``(face, packet)`` pairs; a
dropped packet returns none and is recorded once, in ``Counters.drop``.
So a forwarder can be driven and tested without any network.
"""

from __future__ import annotations

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
                 "cs_misses", "pit_timeouts", "origin_fetches", "drops")

    def __init__(self):
        self.rx_pkts = 0
        self.tx_pkts = 0
        self.rx_bytes = 0
        self.tx_bytes = 0
        self.cs_hits = 0
        self.cs_misses = 0
        self.pit_timeouts = 0
        self.origin_fetches = 0
        self.drops: dict[str, int] = {}

    def drop(self, reason: str):
        self.drops[reason] = self.drops.get(reason, 0) + 1


@dataclass(slots=True)
class CsEntry:
    data: Data
    inserted_at: float


class ContentStore:
    """Exact-name cache: a store over capacity after an insert drops every
    stale entry, then least recently used ones until it fits.

    An entry is stale once ``now - inserted_at >= freshness_ms``. ``aging``
    holds each entry's name in the queue of its freshness period, in
    insertion order. Times passed to one store never decrease, so within
    one queue insertion order is the order entries go stale: the stale
    ones are the queue's head (NFD's priority-FIFO policy, NFD-TR-0021).
    """

    __slots__ = ("capacity", "entries", "aging", "bytes")

    def __init__(self, capacity_bytes: int):
        self.capacity = capacity_bytes
        self.entries: OrderedDict[Name, CsEntry] = OrderedDict()
        # OrderedDict, not dict: reading a dict's head after pops from its
        # front walks the dead slots they leave.
        self.aging: dict[int, OrderedDict[Name, None]] = {}
        self.bytes = 0

    def lookup(self, now: float, name: Name) -> Data | None:
        e = self.entries.get(name)
        if e is None:
            return None
        if now - e.inserted_at >= e.data.freshness_ms:
            self._pop(name)  # stale entries are never served; reclaim eagerly
            return None
        self.entries.move_to_end(name)
        return e.data

    def insert(self, now: float, d: Data) -> tuple[bool, list[Name]]:
        size = len(d.payload)
        if size > self.capacity or not self.capacity:
            return False, []
        name = d.name
        if name in self.entries:
            self._pop(name)  # a replacement, not an eviction
        self.entries[name] = CsEntry(d, now)
        queue = self.aging.get(d.freshness_ms)
        if queue is None:
            queue = self.aging[d.freshness_ms] = OrderedDict()
        queue[name] = None
        self.bytes += size
        evicted = []
        if self.bytes > self.capacity:
            for freshness, queue in self.aging.items():
                while queue:
                    head = next(iter(queue))
                    if now - self.entries[head].inserted_at < freshness:
                        break
                    self._pop(head)
                    evicted.append(head)
            while self.bytes > self.capacity:
                head = next(iter(self.entries))
                self._pop(head)
                evicted.append(head)
        return True, evicted

    def _pop(self, name: Name):
        d = self.entries.pop(name).data
        del self.aging[d.freshness_ms][name]
        self.bytes -= len(d.payload)

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
        self._fib: dict[tuple[bytes, ...], FibEntry] = {}  # keyed by prefix components
        self._fib_depth = 0  # component count of the deepest prefix
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
        self._fib[prefix.components] = FibEntry(
            prefix, sorted(next_hops, key=lambda h: (h[1], h[0])))
        self._fib_depth = max(self._fib_depth, len(prefix.components))

    def fib_add_next_hop(self, prefix: Name, face: int, cost: int):
        e = self._fib.get(prefix.components)
        if e is None:
            self.fib_insert(prefix, [(face, cost)])
            return
        if any(f == face for f, _ in e.next_hops):
            return
        e.next_hops.append((face, cost))
        e.next_hops.sort(key=lambda h: (h[1], h[0]))

    def fib_entries(self) -> list[FibEntry]:
        return list(self._fib.values())

    def fib_longest_prefix_match(self, name: Name) -> FibEntry | None:
        # No prefix is deeper than ``_fib_depth``, so longer ones are not
        # probed. The pipeline probes that depth itself and calls this on a miss.
        comps = name.components
        fib = self._fib
        for k in range(min(len(comps), self._fib_depth), -1, -1):
            e = fib.get(comps[:k])
            if e is not None:
                return e
        return None

    # -- packet pipeline ---------------------------------------------------

    def on_interest(self, now: float, face: int, interest: Interest) -> list[Action]:
        """Admission, then the content store, then the PIT and the FIB.

        Admission checks the face and detects loops. An entry read at or
        after its deadline has expired: it is removed and counted as a
        timeout. An interest at hop limit 0, or whose nonce a live entry
        holds on any face, loops and is dropped. An admitted interest the
        content store cannot answer aggregates on the live PIT entry, or
        goes out on the FIB's best hop other than ``face``.
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
        self.counters.cs_misses += 1
        if entry is not None:
            entry.faces[face] = interest.nonce
            return []
        fe = self._fib.get(name.components[:self._fib_depth])  # if found, the longest match
        if fe is None:
            fe = self.fib_longest_prefix_match(name)
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
        self.cs.insert(now, d)
        out = []  # a loop, not a comprehension: one frame less per Data
        for f in entry.faces:
            if f != face:
                out.append((f, d))
        return out

    # -- table maintenance -------------------------------------------------

    def pit_expire(self, now: float) -> list[Name]:
        """Remove the entries past their deadline. Reads already treat them
        as absent, so this only reclaims memory."""
        expired = [n for n, e in self.pit.items() if e.deadline <= now]
        for n in expired:
            del self.pit[n]
        self.counters.pit_timeouts += len(expired)
        return expired

    def mem_model_bytes(self) -> int:
        return self.cs.bytes + len(self.pit) * PIT_ENTRY_MEM_BYTES
