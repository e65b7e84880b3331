"""The NDN node state machine.

A forwarder owns three tables (content store, pending interest table,
forwarding information base) and processes one packet at a time. Its
only externally visible effect is the list of actions it returns, so it
can be driven and tested without any network.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .ndn import Data, Interest, Name, compute_digest

DROP_LOOP = "loop"
DROP_NO_ROUTE = "no-route"
DROP_UNSOLICITED = "unsolicited"
DROP_INTEGRITY = "integrity"

PIT_ENTRY_MEM_BYTES = 512  # memory model charge per pending entry
NONCE_MEMORY_PER_NAME = 1024


class UnknownFace(LookupError):
    pass


class DuplicateFace(ValueError):
    pass


class UnknownPrefix(LookupError):
    pass


@dataclass(slots=True)
class SendInterest:
    face: int
    interest: Interest


@dataclass(slots=True)
class SendData:
    face: int
    data: Data


@dataclass(slots=True)
class Drop:
    reason: str


Action = SendInterest | SendData | Drop


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


@dataclass(slots=True)
class CsEntry:
    data: Data
    inserted_at: float


class ContentStore:
    """Exact-name cache with freshness-first then LRU eviction."""

    __slots__ = ("capacity", "entries", "bytes")

    def __init__(self, capacity_bytes: int):
        self.capacity = capacity_bytes
        self.entries: OrderedDict[Name, CsEntry] = OrderedDict()
        self.bytes = 0

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
        old = self.entries.get(d.name)
        if old is not None:
            # Replace in place without double-counting; recency refreshed.
            self.bytes += size - len(old.data.payload)
            old.data = d
            old.inserted_at = now
            self.entries.move_to_end(d.name)
            return True, self._evict(now, [])
        evicted = self._evict(now, [], incoming=size)
        self.entries[d.name] = CsEntry(d, now)
        self.bytes += size
        return True, evicted

    def _evict(self, now: float, evicted: list[Name], incoming: int = 0) -> list[Name]:
        if self.bytes + incoming <= self.capacity:
            return evicted
        for name in [n for n, e in self.entries.items()
                     if now - e.inserted_at >= e.data.freshness_ms]:
            e = self.entries.pop(name)
            self.bytes -= len(e.data.payload)
            evicted.append(name)
            if self.bytes + incoming <= self.capacity:
                return evicted
        while self.bytes + incoming > self.capacity and self.entries:
            name, e = self.entries.popitem(last=False)
            self.bytes -= len(e.data.payload)
            evicted.append(name)
        return evicted

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(slots=True)
class PitEntry:
    name: Name
    records: set[tuple[int, int]]   # (face, nonce), each at most once
    faces: dict[int, None]          # distinct downstream faces, insertion ordered
    deadline: float

    def add(self, face: int, nonce: int):
        key = (face, nonce)
        if key not in self.records:
            self.records.add(key)
            self.faces.setdefault(face)


@dataclass(slots=True)
class FibEntry:
    prefix: Name
    next_hops: list[tuple[int, int]]  # (face, cost) kept sorted by (cost, face)


class _NonceMemory:
    """Per-name set of recently seen nonces, FIFO-bounded."""

    __slots__ = ("_names",)

    def __init__(self):
        self._names: dict[Name, OrderedDict[int, None]] = {}

    def seen(self, name: Name, nonce: int) -> bool:
        d = self._names.get(name)
        if d is None:
            d = self._names[name] = OrderedDict()
        if nonce in d:
            return True
        d[nonce] = None
        if len(d) > NONCE_MEMORY_PER_NAME:
            d.popitem(last=False)
        return False


class Forwarder:
    """One NDN node: CS + PIT with aggregation + longest-prefix FIB.

    Single-threaded by contract; all methods take the current simulated
    time explicitly and return the actions to perform.
    """

    def __init__(self, cs_capacity_bytes: int = 0):
        self.cs = ContentStore(cs_capacity_bytes)
        self.pit: dict[Name, PitEntry] = {}
        self._fib: dict[Name, FibEntry] = {}
        self._lpm_cache: dict[Name, FibEntry | None] = {}
        self.faces: dict[int, None] = {}
        self.counters = Counters()
        self._nonces = _NonceMemory()

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

    def fib_remove(self, prefix: Name):
        if prefix not in self._fib:
            raise UnknownPrefix(prefix)
        del self._fib[prefix]
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
        # Memoized per name; the memo is dropped on any FIB change.
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
        if face not in self.faces:
            raise UnknownFace(face)
        c = self.counters
        if interest.hop_limit == 0 or self._nonces.seen(interest.name, interest.nonce):
            c.drop(DROP_LOOP)
            return [Drop(DROP_LOOP)]
        data = self.cs.lookup(now, interest.name)
        if data is not None:
            c.cs_hits += 1
            return [SendData(face, data)]
        c.cs_misses += 1
        entry = self.pit.get(interest.name)
        if entry is not None:
            entry.add(face, interest.nonce)
            return []
        return self._forward_new(now, face, interest)

    def _forward_new(self, now: float, face: int, interest: Interest) -> list[Action]:
        fe = self.fib_longest_prefix_match(interest.name)
        hop = None
        if fe is not None:
            for f, _cost in fe.next_hops:
                if f != face:
                    hop = f
                    break
        if hop is None:
            self.counters.drop(DROP_NO_ROUTE)
            return [Drop(DROP_NO_ROUTE)]
        if interest.hop_limit <= 1:
            # Forwarding would emit hop_limit 0, which is never legal.
            self.counters.drop(DROP_LOOP)
            return [Drop(DROP_LOOP)]
        self.pit[interest.name] = PitEntry(
            interest.name, {(face, interest.nonce)}, {face: None},
            now + interest.lifetime_ms)
        return [SendInterest(hop, interest.decremented())]

    def on_data(self, now: float, face: int, d: Data) -> list[Action]:
        if face not in self.faces:
            raise UnknownFace(face)
        if compute_digest(d.payload) != d.digest:
            self.counters.drop(DROP_INTEGRITY)
            return [Drop(DROP_INTEGRITY)]
        entry = self.pit.pop(d.name, None)
        if entry is None:
            self.counters.drop(DROP_UNSOLICITED)
            return [Drop(DROP_UNSOLICITED)]
        self.cs_insert(now, d)
        return [SendData(f, d) for f in entry.faces if f != face]

    # -- table maintenance -------------------------------------------------

    def cs_insert(self, now: float, d: Data) -> list[Name]:
        accepted, evicted = self.cs.insert(now, d)
        if not accepted:
            self.counters.cs_rejections += 1
        return evicted

    def pit_expire(self, now: float) -> list[Name]:
        expired = [n for n, e in self.pit.items() if e.deadline <= now]
        for n in expired:
            del self.pit[n]
        self.counters.pit_timeouts += len(expired)
        return expired

    def mem_model_bytes(self) -> int:
        return self.cs.bytes + len(self.pit) * PIT_ENTRY_MEM_BYTES
