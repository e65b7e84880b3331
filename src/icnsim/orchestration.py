"""Multi-domain orchestration: slice lifecycle, quotas, linking, scaling.

The orchestrator owns per-domain VIMs (quota accountants), creates and
destroys CDN/ICN slices atomically, links a CDN slice to an ICN slice by
selecting one NDN node and giving it the gateway role, and applies a threshold
scale-out policy from VNF usage reports. ``slice_faults`` holds every
slice rule, shared with the static scenario validator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .forwarder import Forwarder
from .gateway import EmptyCandidates, Gateway, OriginRef, select_gateway
from .ndn import U32_MAX, Name
from .origin import CdnOrigin, ResolutionProfile
from .simnet import Host, Network

ICN_ROLES = ("ndn-node", "ndn-gateway")
CDN_ROLES = ("cache", "transcoder", "streamer")
VALID_ROLES = ICN_ROLES + CDN_ROLES


class QuotaExceeded(RuntimeError):
    def __init__(self, domain: str, message: str = ""):
        super().__init__(message or "quota exceeded in domain %r" % domain)
        self.domain = domain


class UnknownSlice(LookupError):
    pass


@dataclass(frozen=True, slots=True)
class Flavor:
    vcpus: int
    ram_mb: int
    disk_gb: int

    def __post_init__(self):
        if self.vcpus < 1 or self.ram_mb < 1 or self.disk_gb < 1:
            raise ValueError("flavor fields must all be >= 1")


@dataclass(slots=True)
class DomainSpec:
    name: str
    region: str
    quota: Flavor


@dataclass(slots=True)
class Allocation:
    id: int
    domain: str
    flavor: Flavor


class Vim:
    """Per-domain resource quota accountant."""

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        q = spec.quota
        self.remaining = [q.vcpus, q.ram_mb, q.disk_gb]
        self.live: dict[int, Allocation] = {}
        self._next_id = 0

    def allocate(self, flavor: Flavor) -> Allocation:
        need = (flavor.vcpus, flavor.ram_mb, flavor.disk_gb)
        if any(r < n for r, n in zip(self.remaining, need)):
            raise QuotaExceeded(self.spec.name)
        for i, n in enumerate(need):
            self.remaining[i] -= n
        alloc = Allocation(self._next_id, self.spec.name, flavor)
        self._next_id += 1
        self.live[alloc.id] = alloc
        return alloc

    def release(self, alloc: Allocation):
        if alloc.id not in self.live:
            raise ValueError("allocation %d not live" % alloc.id)
        del self.live[alloc.id]
        f = alloc.flavor
        for i, n in enumerate((f.vcpus, f.ram_mb, f.disk_gb)):
            self.remaining[i] += n


# A field range is (low, high, low_open); a None end is unbounded.
AT_LEAST_1 = (1, None, False)
NON_NEGATIVE = (0, None, False)
POSITIVE = (0, None, True)
UNIT = (0, 1, False)


def knob(default, rng):
    """A ``Knobs`` field: its default and its valid range."""
    return field(default=default, metadata={"range": rng})


@dataclass(slots=True)
class Knobs:
    """Every tuning value of a run; the scenario's ``knobs`` object."""

    chunk_size: int = knob(8192, AT_LEAST_1)
    window: int = knob(4, AT_LEAST_1)
    cs_capacity_bytes: int = knob(64 * 1024 * 1024, NON_NEGATIVE)
    gateway_weight: float = knob(0.5, UNIT)
    # A tick period (bucket_ms, scale_window_ms) of 0 would reschedule itself forever.
    bucket_ms: float = knob(1000.0, POSITIVE)
    origin_timeout_ms: float = knob(30_000.0, POSITIVE)
    per_packet_cost_ms: float = knob(0.02, NON_NEGATIVE)
    publish_freshness_ms: int = knob(3_600_000, (0, U32_MAX, False))
    interest_lifetime_ms: int = knob(4000, (0, U32_MAX, False))
    horizon_ms: float = knob(86_400_000.0, POSITIVE)
    transcode_rate_bps: float = knob(20e6, POSITIVE)
    scale_threshold: float = knob(0.8, NON_NEGATIVE)
    scale_window_ms: float = knob(10_000.0, POSITIVE)
    retransmit_max: int = knob(5, AT_LEAST_1)


@dataclass(slots=True)
class VnfSpec:
    role: str
    domain: str
    flavor: Flavor
    node: str
    cs_capacity_bytes: int | None = None


@dataclass(slots=True)
class SliceSpec:
    kind: str  # "CDN" | "ICN"
    duration_ms: float
    vnfs: list[VnfSpec]
    links: list[tuple[str, str, float, float]] = field(default_factory=list)


def slice_faults(spec: SliceSpec, domains, taken) -> list[tuple[str, str, str]]:
    """Every slice rule the spec breaks, as (code, sub-path, message).

    ``domains`` and ``taken`` hold the known domain names and the node ids
    in use. Sub-paths are ``vnfs.J.<field>``, ``links.J`` or "" (the slice).
    """
    if spec.kind not in ("CDN", "ICN"):
        return [("bad-value", "kind", "slice kind must be CDN or ICN")]
    faults = []
    nodes: set[str] = set()
    roles: set[str] = set()
    for j, v in enumerate(spec.vnfs):
        if v.role not in VALID_ROLES:
            faults.append(("bad-value", "vnfs.%d.role" % j, "unknown role %r" % v.role))
        elif v.domain not in domains:
            faults.append(("bad-reference", "vnfs.%d.domain" % j,
                           "unknown domain %r" % v.domain))
        elif v.node in taken or v.node in nodes:
            faults.append(("duplicate", "vnfs.%d.node" % j, "duplicate node %r" % v.node))
        else:
            nodes.add(v.node)
            roles.add(v.role)
    needed = "cache" if spec.kind == "CDN" else "ndn-node"
    if needed not in roles:
        faults.append(("invariant", "", "%s slice needs at least one %s" % (spec.kind, needed)))
    pairs: set[tuple[str, str]] = set()
    for j, (a, b, lat, bw) in enumerate(spec.links):
        pair = (a, b) if a < b else (b, a)
        if a not in nodes or b not in nodes:
            faults.append(("bad-reference", "links.%d" % j,
                           "intra-slice link references unknown node"))
        elif pair in pairs:
            faults.append(("duplicate", "links.%d" % j, "duplicate link %r-%r" % (a, b)))
        elif bw <= 0 or lat < 0:
            faults.append(("bad-value", "links.%d" % j, "bad link parameters"))
        pairs.add(pair)
    return faults


def allocate_all(vims: dict[str, Vim], vnfs: list[VnfSpec]) -> list[Allocation]:
    """One allocation per vnf, or none: QuotaExceeded releases the partial set."""
    allocs: list[Allocation] = []
    try:
        for v in vnfs:
            allocs.append(vims[v.domain].allocate(v.flavor))
    except QuotaExceeded:
        for a in allocs:
            vims[a.domain].release(a)
        raise
    return allocs


@dataclass(slots=True)
class VnfInstance:
    """A running vnf: its spec, its quota grant and its host (``host.id``
    names the instance)."""

    spec: VnfSpec
    allocation: Allocation
    host: Host


@dataclass(slots=True)
class SliceState:
    id: int
    spec: SliceSpec
    instances: list[VnfInstance]
    origin: CdnOrigin | None = None
    gateway_node: str | None = None
    linked_cdn: int | None = None
    prefix: Name | None = None  # content prefix of the link, on the ICN slice


class Orchestrator:
    """Creates slices on the shared network and accounts their resources.

    In ``cdn-only`` mode ICN slice nodes are plain IP routers (the baseline).
    """

    def __init__(self, net: Network, domains: list[DomainSpec],
                 knobs: Knobs | None = None, mode: str = "icn"):
        self.net = net
        self.knobs = knobs or Knobs()
        self.mode = mode
        self.vims = {d.name: Vim(d) for d in domains}
        self.slices: dict[int, SliceState] = {}
        self._next_slice = 0
        self.log: list[str] = []
        self._scale_marks: dict[str, tuple[float, float]] = {}  # node -> (t, busy)

    # -- slice lifecycle ----------------------------------------------------

    def create_slice(self, spec: SliceSpec) -> int:
        """Allocate and instantiate a slice; all-or-nothing."""
        faults = slice_faults(spec, self.vims, self.net.all_hosts)
        if faults:
            raise ValueError(faults[0][2])
        allocs = allocate_all(self.vims, spec.vnfs)
        sid = self._next_slice
        self._next_slice += 1
        state = SliceState(sid, spec, [])
        if spec.kind == "CDN":
            state.origin = CdnOrigin(self.knobs.transcode_rate_bps)
        for v, alloc in zip(spec.vnfs, allocs):
            self._instantiate(state, v, alloc)
        for a, b, lat, bw in spec.links:
            self.net.add_link(a, b, lat, bw)
        self.slices[sid] = state
        return sid

    def _instantiate(self, state: SliceState, v: VnfSpec, alloc: Allocation) -> VnfInstance:
        """Add the vnf's host to the network and the instance to the slice."""
        k = self.knobs
        fwd = origin = None
        if state.spec.kind == "ICN" and self.mode != "cdn-only":
            cs = v.cs_capacity_bytes if v.cs_capacity_bytes is not None else k.cs_capacity_bytes
            fwd = Forwarder(cs)
        elif v.role in ("cache", "streamer"):
            origin = state.origin
        host = Host(self.net, v.node, v.role, fwd=fwd, origin=origin, vcpus=v.flavor.vcpus,
                    per_packet_cost_ms=k.per_packet_cost_ms,
                    origin_timeout_ms=k.origin_timeout_ms)
        self.net.add_host(host)
        inst = VnfInstance(v, alloc, host)
        state.instances.append(inst)
        return inst

    def _live(self, sid: int) -> SliceState:
        state = self.slices.get(sid)
        if state is None:
            raise UnknownSlice(sid)
        return state

    def destroy_slice(self, sid: int):
        state = self._live(sid)
        del self.slices[sid]
        for inst in state.instances:
            self.vims[inst.allocation.domain].release(inst.allocation)
            self.net.remove_host(inst.host.id)

    # -- content plane helpers ------------------------------------------------

    def _cdn(self, sid: int) -> SliceState:
        state = self._live(sid)
        if state.origin is None:
            raise ValueError("slice %d is not a CDN slice" % sid)
        return state

    def upload(self, sid: int, content_id: str, payload: bytes, source_resolution: str):
        state = self._cdn(sid)
        obj = state.origin.upload(content_id, payload, source_resolution)
        self._configure_gateways(sid)
        return obj

    def transcode(self, sid: int, content_id: str, target: ResolutionProfile):
        state = self._cdn(sid)
        host = self._transcode_host(state)
        state.origin.on_cpu = host.charge_ms if host is not None else None
        obj = state.origin.transcode(content_id, target)
        self._configure_gateways(sid)
        return obj

    def _transcode_host(self, state: SliceState) -> Host | None:
        for role in ("transcoder", "cache"):
            for inst in state.instances:
                if inst.spec.role == role:
                    return inst.host
        return None

    def serving_node(self, sid: int) -> str:
        """The node baseline requests and gateway fetches target."""
        state = self._live(sid)
        for role in ("streamer", "cache"):
            for inst in state.instances:
                if inst.spec.role == role and inst.host.origin is not None:
                    return inst.host.id
        raise ValueError("slice %d has no serving node" % sid)

    # -- slice linking ----------------------------------------------------------

    def link_slices(self, cdn_sid: int, icn_sid: int, w: float,
                    demand: list[tuple[str, int]], prefix: Name) -> str:
        """Select the gateway, give it the gateway role, configure it and
        install routes toward it.

        ``demand`` pairs consumer attach nodes with request counts; the
        demand latency of a candidate is the count-weighted mean of its
        shortest-path latencies to those nodes.
        """
        self._cdn(cdn_sid)
        icn = self._live(icn_sid)
        serve = self.serving_node(cdn_sid)
        cands = [inst for inst in icn.instances if inst.host.fwd is not None]
        if not cands:
            raise EmptyCandidates("ICN slice %d has no NDN nodes" % icn_sid)
        total = sum(c for _n, c in demand)
        triples = []
        for inst in cands:
            to_cache = self.net.shortest_latency(inst.host.id, serve)
            if total > 0:
                to_demand = sum(
                    c * self.net.shortest_latency(inst.host.id, n) for n, c in demand
                ) / total
            else:
                to_demand = 0.0
            triples.append((inst.host.id, to_cache, to_demand))
        gw_node = select_gateway(triples, w)
        gw_host = self.net.hosts[gw_node]
        if not isinstance(gw_host.fwd, Gateway):
            gw_host.fwd = Gateway.take_over(gw_host.fwd, self.knobs.chunk_size,
                                            self.knobs.publish_freshness_ms)
        icn.gateway_node = gw_node
        icn.linked_cdn = cdn_sid
        icn.prefix = prefix
        self._configure_gateways(cdn_sid)
        self._install_routes(prefix, gw_node)
        self.log.append("link: slice %d -> slice %d via gateway %s" % (cdn_sid, icn_sid, gw_node))
        return gw_node

    def _configure_gateways(self, cdn_sid: int):
        """Map the CDN slice's catalog, under each link prefix, on every gateway
        linked to it, so new contents are servable without re-linking."""
        cdn = self.slices[cdn_sid]
        serve = self.serving_node(cdn_sid)
        for icn in self.slices.values():
            if icn.linked_cdn != cdn_sid:
                continue
            prefix_map = {}
            for content_id, resolution in cdn.origin.catalog():
                base = Name(icn.prefix.components + (content_id.encode(), resolution.encode()))
                prefix_map[base] = (content_id, resolution)
            self.net.hosts[icn.gateway_node].fwd.configure_origin(OriginRef(serve, prefix_map))

    def _install_routes(self, prefix: Name, gw_node: str):
        """Route the content prefix toward the gateway on every NDN node."""
        for host in self.net.hosts.values():
            if host.fwd is None or host.id == gw_node or host.origin is not None:
                continue
            nh = self.net.next_hop(host.id, gw_node)
            if nh is None:
                continue
            face = host.face_by_peer.get(nh)
            if face is None:
                continue
            cost = int(round(self.net.shortest_latency(host.id, gw_node)))
            host.fwd.fib_insert(prefix, [(face, cost)])

    # -- scaling -------------------------------------------------------------------

    def scale_check(self, sid: int, now: float) -> VnfInstance | None:
        """The first instance whose trailing-window cpu utilization exceeds
        the threshold."""
        state = self._live(sid)
        for inst in state.instances:
            last_t, last_busy = self._scale_marks.get(inst.host.id, (0.0, 0.0))
            span = now - last_t
            busy = inst.host.busy_ms_total
            self._scale_marks[inst.host.id] = (now, busy)
            if span <= 0:
                continue
            util = (busy - last_busy) / span
            if util > self.knobs.scale_threshold:
                return inst
        return None

    def handle_scale(self, sid: int, original: VnfInstance) -> VnfInstance | None:
        """Add a clone of the instance, named by the first free ``<node>-s<k>``,
        in the same domain."""
        state = self._live(sid)
        base = original.host.id
        k = 1
        while "%s-s%d" % (base, k) in self.net.all_hosts:
            k += 1
        node = "%s-s%d" % (base, k)
        spec = replace(original.spec, node=node)
        try:
            alloc = self.vims[spec.domain].allocate(spec.flavor)
        except QuotaExceeded:
            self.log.append("scale denied: quota exceeded in %s for slice %d"
                            % (spec.domain, sid))
            return None
        inst = self._instantiate(state, spec, alloc)
        host = inst.host
        # Clone the original's adjacency, then advertise equal-cost next hops.
        for peer, lat, mbps in self.net.links_of(base):
            self.net.add_link(node, peer, lat, mbps)
        if original.host.fwd is not None and host.fwd is not None:
            for e in original.host.fwd.fib_entries():
                hops = []
                for face, cost in e.next_hops:
                    peer = original.host.faces.get(face)
                    nf = host.face_by_peer.get(peer) if peer is not None else None
                    if nf is not None:
                        hops.append((nf, cost))
                if hops:
                    host.fwd.fib_insert(e.prefix, hops)
        for other in self.net.hosts.values():
            if other.fwd is None or other.id == node:
                continue
            to_new = other.face_by_peer.get(node)
            if to_new is None:
                continue
            for e in other.fwd.fib_entries():
                for face, cost in list(e.next_hops):
                    if other.faces.get(face) == base:
                        other.fwd.fib_add_next_hop(e.prefix, to_new, cost)
        self.log.append("scale out: slice %d added %s" % (sid, node))
        return inst
