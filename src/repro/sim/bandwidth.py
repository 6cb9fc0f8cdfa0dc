"""Fluid-flow bandwidth sharing with max-min fairness.

This module models contended interconnects -- the per-direction PCIe links
and the host memory bus -- as a :class:`FlowNetwork` of capacity-limited
:class:`Link` s.  A *flow* (one data transfer or memory copy) traverses one
or more links, optionally has its own rate cap (e.g. "k memcpy threads can
move at most k * per-core-bandwidth"), and receives a rate according to
**max-min fairness with progressive filling**:

    All unfrozen flows' rates rise in lockstep until either a flow reaches
    its cap or a link saturates; affected flows freeze; repeat.

Whenever a flow starts or finishes, every active flow's progress is advanced
and the allocation is recomputed, so contention effects (two GPUs sharing a
PCIe root complex, parallel memcpy competing with merges for the memory bus)
emerge from the model rather than being hand-coded per experiment.

The recompute is *incremental*: flows are partitioned into link-connected
components (two flows are connected when they share a link, transitively),
and a join/leave/:meth:`FlowNetwork.set_capacity` only refills the
components its links can reach -- flows in untouched components keep their
rates bit-for-bit.  Filling is canonically **per component** so the
incremental result is exactly (to the last ulp) what a from-scratch
recompute produces; ``tests/sim/test_bandwidth_incremental_property.py``
pins that equality against the :meth:`FlowNetwork._recompute_full`
reference.  One fill serves every policy: a component whose links all
share plainly is one unweighted round of
:func:`repro.sim.allocators._fill_layer` with each link's budget its
capacity, and any weighted or layered policy routes it to
:func:`repro.sim.allocators.fill_component`.  A frozen flow that reached
its cap runs at exactly ``cap``.  Three hot-path refinements, all behind
the same contract:

* a *route table*: each distinct link list is validated once per
  network and becomes a :class:`Route` -- the weighted tuple its flows
  share, its distinct links and an id that stands for the weighted
  tuple in the shape key below;
* a *single-component shortcut*: each link counts its active flows, and
  when a link the seeds reach carries every active flow the closure is
  the whole network, so component discovery is skipped (every machine
  flow crosses the host bus, so this is the common case);
* a *shape-keyed fill cache*: each flow is interned to a shape id built
  from everything the fill reads of it (cap, route, priority, share),
  and a component's rates are cached under the tuple of its flows'
  shape ids in insertion order.  Capacity, policy and
  :meth:`FlowNetwork.reallocate` changes clear the cache, as does
  reaching :data:`_FILL_CACHE_SIZE` entries.

The network keeps flow state only.  A link's load is computed when read
(:meth:`FlowNetwork.link_snapshot`); its history is the flow ledger's
(:func:`repro.obs.flows.link_timelines`).

This is the standard fluid approximation used in network simulators; the
paper's phenomena that it captures directly:

* PCIe bandwidth shared between GPUs (Sec. IV-F, Experiment 2),
* host-to-host copies limited by a single core but able to exploit spare
  memory bandwidth when parallelised (PARMEMCPY, Sec. IV-F),
* bidirectional HtoD/DtoH overlap (PIPEDATA, Sec. III-D2).
"""

from __future__ import annotations

import heapq
import math
import typing as _t

from repro.errors import SimulationError
from repro.sim import allocators as _alloc
from repro.sim.engine import NORMAL, Environment
from repro.sim.events import Event

__all__ = ["Link", "Flow", "FlowNetwork", "FlowView", "LinkView"]

#: Completion slack, in bytes.  Flows whose remaining volume falls below
#: this are considered finished (guards against float round-off).
_EPS_BYTES = 1e-6

_INF = math.inf

#: Entries the shape-keyed fill cache (and the shape and route tables)
#: may hold before it is cleared.  A paper-scale sort needs a few dozen.
_FILL_CACHE_SIZE = 4096


class Link:
    """A capacity-limited pipe (bytes/second).

    :attr:`policy` selects the link's sharing discipline from the
    :mod:`repro.sim.allocators` family.  ``None`` (the default) means
    :class:`~repro.sim.allocators.FairShare` -- pure processor-sharing.
    """

    __slots__ = ("name", "capacity", "policy", "_left", "_wsum",
                 "_budget", "_mark", "_uf", "_nflows")

    def __init__(self, name: str, capacity: float) -> None:
        if not (capacity > 0):
            raise SimulationError(f"link {name!r} capacity must be > 0")
        self.name = name
        self.capacity = float(capacity)
        #: Per-link allocation policy (None = FairShare).
        self.policy: _alloc.BandwidthAllocator | None = None
        # Scratch registers for the progressive-filling rounds (headroom
        # left / weight sum of unfrozen flows / per-layer budget); valid
        # only inside FlowNetwork._fill() and the allocators' fill.
        self._left = 0.0
        self._wsum = 0.0
        self._budget = 0.0
        # Component-discovery scratch: generation mark and union-find
        # parent (None at a root, so no link points at itself); valid
        # only inside _dirty_components().
        self._mark = 0
        self._uf: "Link | None" = None
        #: Active flows crossing this link (each counted once).
        self._nflows = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Link {self.name!r} {self.capacity:.3g} B/s>"


class Flow:
    """One in-flight transfer across a set of links.

    ``links`` is a tuple of ``(link, weight)`` pairs: a flow progressing at
    payload rate ``r`` consumes ``r * weight`` capacity on each link.  A
    weight > 1 models amplification (e.g. a pageable CUDA copy is staged by
    the driver and touches host DRAM twice per payload byte).

    Progress is accumulated in one place -- :attr:`progressed`, the total
    bytes moved so far -- and :attr:`remaining` is always derived from it
    as ``max(0, nbytes - progressed)``.  A chain of per-interval
    subtractions (the previous scheme) let rounding drift accumulate across
    reallocation boundaries; a pathological capacity-flap sequence could
    strand a flow with a tiny negative residual.  One accumulator keeps
    ``progressed + remaining == nbytes`` exact and ``remaining``
    non-negative by construction.

    :attr:`event` is the completion event while the flow is active.  It
    is cleared when the flow completes, just before the flow becomes
    that event's value, so the two never form a reference cycle and
    refcounting frees them as soon as the waiter drops the flow.
    """

    __slots__ = ("nbytes", "progressed", "remaining", "cap", "links", "rate",
                 "event", "label", "start_time", "fid", "_mark", "_shape",
                 "priority", "share", "tenant", "route", "_last_t",
                 "_last_rate", "_last_progressed")

    def __init__(self, nbytes: float, route: "Route", cap: float,
                 event: Event, label: str, start_time: float,
                 priority: int = 0, share: float = 1.0,
                 tenant: str | None = None) -> None:
        self.nbytes = float(nbytes)
        self.progressed = 0.0
        self.remaining = float(nbytes)
        self.cap = float(cap)
        #: The validated route; :attr:`links` is its weighted tuple.
        self.route = route
        self.links = route.links
        self.rate = 0.0
        self.event = event
        self.label = label
        self.start_time = start_time
        self.fid = -1    # ledger-assigned flow id (-1 = not recorded)
        self._mark = 0   # component-discovery scratch
        self._shape = -1  # fill-cache shape id (FlowNetwork._intern)
        # QoS attributes: consulted only by weighted/layered link
        # policies; FairShare links ignore them entirely.
        self.priority = priority
        self.share = share
        self.tenant = tenant


class Route:
    """One validated link list of a :class:`FlowNetwork`.

    :attr:`links` is the ``(link, weight)`` tuple every flow on the
    route shares, :attr:`distinct` its links with each counted once, and
    :attr:`rid` a per-network id: two routes of one network have the
    same id exactly when their weighted tuples are equal.
    """

    __slots__ = ("links", "distinct", "rid")

    def __init__(self, links: tuple[tuple[Link, float], ...],
                 rid: int) -> None:
        self.links = links
        self.distinct = tuple(dict.fromkeys(l for l, _w in links))
        self.rid = rid


class FlowView(_t.NamedTuple):
    """Read-only snapshot of one active flow (the public tooling surface;
    link objects are reduced to their names)."""

    label: str
    nbytes: float
    progressed: float
    remaining: float
    rate: float
    cap: float
    links: tuple[tuple[str, float], ...]
    start_time: float
    tenant: str | None = None
    priority: int = 0
    share: float = 1.0


class LinkView(_t.NamedTuple):
    """Read-only snapshot of one link: capacity, aggregate allocated
    rate (including link weights), active-flow count, and utilization."""

    name: str
    capacity: float
    rate: float
    n_flows: int
    utilization: float


class FlowNetwork:
    """Tracks all active flows and keeps their rates max-min fair."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._links: list[Link] = []
        self._link_set: set[Link] = set()
        self._flows: list[Flow] = []
        # Fill cache: shape tuple -> shape id, and a component's shape-id
        # tuple -> its rates.  Ids are never reused, so clearing the
        # shape table can only cause misses, never a wrong hit.
        self._shapes: dict[tuple, int] = {}
        self._next_shape = 0
        self._fills: dict[tuple[int, ...], tuple[float, ...]] = {}
        # Route table: the caller's link entries -> their validated
        # Route, and each weighted tuple -> its Route (so equal routes
        # share one id and the shape table sees what it saw before).
        self._routes: dict[tuple, Route] = {}
        self._route_ids: dict[tuple[tuple[Link, float], ...], Route] = {}
        self._next_route = 0
        self._last_update = env.now
        self._wakeup: Event | None = None
        self._gen = 0   # generation counter for component-discovery marks
        self.completed_flows = 0
        #: Optional :class:`repro.obs.flows.FlowLedger`.  When ``None``
        #: (the default) every instrumentation hook is a single ``is
        #: None`` check -- zero overhead when disabled.  The ledger never
        #: schedules simulation events (the bus neutrality invariant).
        self.ledger = None

    # -- construction ---------------------------------------------------------

    def add_link(self, name: str, capacity: float) -> Link:
        """Create and register a link."""
        link = Link(name, capacity)
        self._links.append(link)
        self._link_set.add(link)
        return link

    # -- public API -------------------------------------------------------------

    def transfer(self, nbytes: float,
                 links: _t.Sequence[Link | tuple[Link, float]],
                 cap: float = _INF, label: str = "flow",
                 priority: int | None = None, share: float | None = None,
                 tenant: str | None = None) -> Event:
        """Start a flow of ``nbytes`` across ``links``; returns its
        completion event (value = the :class:`Flow`).

        Each entry of ``links`` is a :class:`Link` (weight 1.0) or a
        ``(link, weight)`` pair.  A link list is validated the first time
        this network sees it and cached as a :class:`Route`, so callers on
        the hot path pass constant tuples.  ``cap`` bounds the flow's own
        payload rate regardless of link headroom.  A zero-byte transfer
        completes immediately.

        ``priority``/``share``/``tenant`` are the flow's QoS attributes,
        consulted only by weighted/layered link policies.  When omitted
        they default from the calling process's
        :class:`~repro.sim.allocators.QosTag` (inherited from the process
        that spawned it), falling back to ``(0, 1.0, None)`` -- so
        existing single-run code, which never tags processes, is
        unaffected.
        """
        # Validate everything before any state changes.  NaN fails every
        # comparison, so each check is phrased to reject it.
        if not 0 <= nbytes < _INF:
            raise SimulationError(
                f"transfer size must be finite and >= 0, got {nbytes!r}")
        if priority is None or share is None or tenant is None:
            proc = self.env._active
            tag = proc.tag if proc is not None else None
            if tag is not None:
                if priority is None:
                    priority = tag.priority
                if share is None:
                    share = tag.share
                if tenant is None:
                    tenant = tag.tenant
        if priority is None:
            priority = 0
        if share is None:
            share = 1.0
        elif not (share > 0):
            raise SimulationError(f"flow share must be > 0, got {share!r}")
        if type(links) is not tuple:
            links = tuple(links)
        try:
            route = self._routes.get(links)
        except TypeError:   # an unhashable entry: _validate names it
            route = None
        weighted = self._validate(links) if route is None else route.links
        if not weighted and not math.isfinite(cap):
            raise SimulationError(
                "a flow needs at least one link or a finite rate cap")
        if not cap > 0:
            raise SimulationError(f"flow rate cap must be > 0, got {cap!r}")
        if route is None:
            route = self._add_route(links, weighted)

        ev = Event(self.env)
        now = self.env._now
        if nbytes <= _EPS_BYTES:
            flow = Flow(nbytes, route, cap, ev, label, now, priority, share,
                        tenant)
            self.completed_flows += 1
            if self.ledger is not None:
                self.ledger.on_start(flow, now)
                self.ledger.on_end(flow, now)
            # No Flow <-> Event cycle: the completed flow lets go of its
            # event before becoming the event's value.
            flow.event = None
            ev.succeed(flow)
            return ev

        self._advance()
        flow = Flow(nbytes, route, cap, ev, label, now, priority, share,
                    tenant)
        self._flows.append(flow)
        self._intern(flow)
        for l in route.distinct:
            l._nflows += 1
        if self.ledger is not None:
            self.ledger.on_start(flow, now)
        # Only the component the new flow joins needs refilling.
        self._update(seed_flows=(flow,))
        return ev

    def _validate(self, entries: tuple) -> tuple[tuple[Link, float], ...]:
        """The weighted ``(link, weight)`` tuple of a link list; raises
        on a foreign link or a weight that is not finite and > 0."""
        weighted: list[tuple[Link, float]] = []
        for entry in entries:
            link, weight = entry if isinstance(entry, tuple) else (entry, 1.0)
            if link not in self._link_set:
                raise SimulationError(f"{link!r} not part of this network")
            if not 0 < weight < _INF:
                raise SimulationError(
                    f"link weight must be finite and > 0, got {weight}")
            weighted.append((link, float(weight)))
        return tuple(weighted)

    def _add_route(self, entries: tuple,
                   weighted: tuple[tuple[Link, float], ...]) -> Route:
        """Cache the validated ``entries`` as a :class:`Route`."""
        if len(self._routes) >= _FILL_CACHE_SIZE:
            self._routes.clear()
            self._route_ids.clear()
        route = self._route_ids.get(weighted)
        if route is None:
            route = self._route_ids[weighted] = Route(
                weighted, self._next_route)
            self._next_route += 1
        self._routes[entries] = route
        return route

    def set_capacity(self, link: Link, capacity: float) -> None:
        """Change a link's capacity mid-run (fault injection: a degraded
        PCIe link or host bus during a bandwidth-degradation window).

        Active flows are first advanced at their old rates, then the rates
        of the link's connected component are recomputed max-min fair under
        the new capacity and the next completion is rescheduled.
        """
        if link not in self._link_set:
            raise SimulationError(f"{link!r} not part of this network")
        if not (capacity > 0):
            raise SimulationError(
                f"link {link.name!r} capacity must be > 0, got {capacity!r}")
        self._advance()
        link.capacity = float(capacity)
        self._fills.clear()
        if self.ledger is not None:
            self.ledger.on_capacity(link.name, link.capacity, self.env.now)
        self._update(seed_links=(link,))

    def set_policy(self, link: Link,
                   policy: "_alloc.BandwidthAllocator | None") -> None:
        """Install an allocation policy on ``link`` (``None`` restores the
        default FairShare behaviour).

        Active flows are advanced at their old rates first, then the
        link's connected component is refilled under the new policy.
        """
        if link not in self._link_set:
            raise SimulationError(f"{link!r} not part of this network")
        if policy is not None and not isinstance(
                policy, _alloc.BandwidthAllocator):
            raise SimulationError(
                f"policy must be a BandwidthAllocator, got {policy!r}")
        self._advance()
        link.policy = policy
        self._fills.clear()
        self._update(seed_links=(link,))

    def reallocate(self,
                   mutate: _t.Callable[[Flow], None] | None = None) -> None:
        """Advance every flow, optionally mutate QoS attributes
        (``mutate(flow)`` may rewrite ``priority``/``share``), and refill
        the whole network.

        This is the adaptive controller's knob: it lets a control epoch
        re-draw level maps or re-weight a tenant's in-flight transfers
        without restarting them.  Progress accounting stays exact -- the
        advance happens before any rate changes, so the ledger's
        rate-integral invariant is preserved.

        The fill cache is cleared (a policy's parameters, such as
        :attr:`~repro.sim.allocators.FixedLevels.levels`, may have been
        edited in place) and every flow is re-interned.
        """
        self._advance()
        self._fills.clear()
        for f in self._flows:
            if mutate is not None:
                mutate(f)
            self._intern(f)
        self._update(seed_flows=self._flows, seed_links=self._links)

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def flow_snapshot(self) -> tuple[FlowView, ...]:
        """Read-only view of the currently active flows.

        Progress is projected to the current time as a pure read (the
        flows themselves only accumulate at allocator updates, in
        exactly one step per rate segment -- the ledger's bit-exact
        rate-integral invariant depends on that, so the view must not
        advance them)."""
        dt = self.env.now - self._last_update
        views = []
        for f in self._flows:
            progressed = f.progressed + (f.rate * dt if dt > 0.0 else 0.0)
            if progressed > f.nbytes:
                progressed = f.nbytes
            rem = f.nbytes - progressed
            views.append(FlowView(f.label, f.nbytes, progressed,
                                  rem if rem > 0.0 else 0.0,
                                  f.rate, f.cap,
                                  tuple((l.name, w) for l, w in f.links),
                                  f.start_time, f.tenant, f.priority,
                                  f.share))
        return tuple(views)

    def link_snapshot(self) -> tuple[LinkView, ...]:
        """Read-only view of every registered link's current state,
        computed when read.  A link's rate sums the active flows' rates
        times their weights in insertion order, one term per weighted
        entry of a route; its flow count is the link's own count of
        active flows, each once however often its route lists the
        link."""
        rates = {l: 0.0 for l in self._links}
        for f in self._flows:
            for l, w in f.links:
                rates[l] += f.rate * w
        return tuple(LinkView(l.name, l.capacity, rates[l], l._nflows,
                              rates[l] / l.capacity)
                     for l in self._links)

    # -- internals --------------------------------------------------------------

    def _advance(self) -> None:
        """Progress every active flow to the current time."""
        now = self.env._now
        dt = now - self._last_update
        if dt > 0:
            for flow in self._flows:
                flow.progressed += flow.rate * dt
                rem = flow.nbytes - flow.progressed
                flow.remaining = rem if rem > 0.0 else 0.0
        self._last_update = now

    def _intern(self, flow: Flow) -> None:
        """Give ``flow`` the shape id of everything the fill reads of it."""
        shape = (flow.cap, flow.route.rid, flow.priority, flow.share)
        sid = self._shapes.get(shape)
        if sid is None:
            if len(self._shapes) >= _FILL_CACHE_SIZE:
                self._shapes.clear()
            sid = self._shapes[shape] = self._next_shape
            self._next_shape += 1
        flow._shape = sid

    @staticmethod
    def _find(link: Link) -> Link:
        """Union-find root of ``link`` (path-halving)."""
        while True:
            parent = link._uf
            if parent is None:
                return link
            grand = parent._uf
            if grand is None:
                return parent
            link._uf = grand
            link = grand

    def _dirty_components(self, seed_flows: _t.Sequence[Flow],
                          seed_links: _t.Sequence[Link],
                          ) -> list[list[Flow]]:
        """The link-connected components reachable from the seeds.

        Each component is a list of flows in insertion order (components
        ordered by their first flow).  The partition is a pure function
        of the current flow/link topology, so refilling a dirty component
        here yields bit-identical rates to a from-scratch recompute
        partitioning the whole network.

        Discovery state lives in ``_mark`` generation counters on the
        links and flows themselves -- no per-call sets or dicts, which
        keeps the common join/leave path at a few microseconds.

        Shortcut: when a link the seeds reach carries every active flow,
        all flows form one component, so the closure is the whole
        network in insertion order -- exactly what the scan below would
        find.
        """
        gen = self._gen + 1
        self._gen = gen
        touched: list[Link] = []
        for l in seed_links:
            if l._mark != gen:
                l._mark = gen
                touched.append(l)
        for f in seed_flows:
            f._mark = gen
            for l, _w in f.links:
                if l._mark != gen:
                    l._mark = gen
                    touched.append(l)
        flows = self._flows
        n = len(flows)
        if n:
            for l in touched:
                if l._nflows == n:
                    return [flows]
        # Fixpoint: grow the touched-link set through flows that straddle.
        changed = True
        while changed:
            changed = False
            for f in flows:
                if f._mark == gen:
                    continue
                for l, _w in f.links:
                    if l._mark == gen:
                        f._mark = gen
                        for l2, _w2 in f.links:
                            if l2._mark != gen:
                                l2._mark = gen
                                touched.append(l2)
                                changed = True
                        break
        dirty = [f for f in flows if f._mark == gen]

        # Partition into actual components (the closure may span several
        # disconnected ones, e.g. after two unrelated flows finish in the
        # same wakeup).  Union-find over the touched links; linkless flows
        # are singletons.
        if len(dirty) <= 1:
            return [dirty] if dirty else []
        for l in touched:
            l._uf = None
        find = self._find
        for f in dirty:
            links = f.links
            if len(links) > 1:
                first = find(links[0][0])
                for l, _w in links[1:]:
                    root = find(l)
                    if root is not first:
                        root._uf = first
        groups: dict[int, list[Flow]] = {}
        components: list[list[Flow]] = []
        singleton_key = 0
        for f in dirty:
            if f.links:
                key = id(find(f.links[0][0]))
            else:
                singleton_key -= 1
                key = singleton_key
            bucket = groups.get(key)
            if bucket is None:
                bucket = groups[key] = []
                components.append(bucket)
            bucket.append(f)
        return components

    @staticmethod
    def _fill(flows: list[Flow]) -> None:
        """Fill ONE connected component under its links' policies.

        A pure function of the component's flows (in insertion order) and
        its links' capacities/policies -- the incremental/full equivalence
        rests on that purity.  When every link shares plainly (``policy
        is None`` or an unweighted, unlayered policy) the component is one
        unweighted progressive fill with each link's budget its capacity;
        any weighted or layered policy routes it to
        :func:`repro.sim.allocators.fill_component`.
        """
        links = list(dict.fromkeys([l for f in flows for l, _w in f.links]))
        for l in links:
            pol = l.policy
            if pol is not None and (pol.weighted or pol.layered):
                _alloc.fill_component(flows, links)
                return
        for l in links:
            l._budget = l.capacity
        _alloc._fill_layer(flows, links, False)

    def _update(self, seed_flows: _t.Sequence[Flow] = (),
                seed_links: _t.Sequence[Link] = ()) -> None:
        """Refill the components the seeds can reach and reschedule the
        completion wakeup."""
        fills = self._fills
        for component in self._dirty_components(seed_flows, seed_links):
            key = tuple([f._shape for f in component])
            rates = fills.get(key)
            if rates is None:
                # Looked up at call time, so a patched _fill applies.
                self._fill(component)
                if len(fills) >= _FILL_CACHE_SIZE:
                    fills.clear()
                fills[key] = tuple([f.rate for f in component])
            else:
                for f, rate in zip(component, rates):
                    f.rate = rate

        # Capture the granted rates *after* every refill, not just when a
        # flow's own rate changed: each _advance() accumulation step is
        # immediately followed by exactly one _update(), so consecutive
        # captures bracket exactly one `progressed += rate * dt` -- the
        # recorded rate integral reproduces the bytes moved bit for bit.
        if self.ledger is not None:
            self.ledger.on_update(self.env._now, self._flows)

        self._reschedule_wakeup()

    def _recompute_full(self) -> None:
        """From-scratch reference: refill *every* component.

        Semantically (and, by design, bit-for-bit) equivalent to the
        incremental :meth:`_update`, and it bypasses the fill cache, so
        comparing the two also checks every cached rate; the hypothesis
        battery in
        ``tests/sim/test_bandwidth_incremental_property.py`` holds the two
        to ulp equality over random join/leave/degrade sequences.
        """
        for component in self._dirty_components(self._flows, self._links):
            self._fill(component)
        if self.ledger is not None:
            self.ledger.on_update(self.env.now, self._flows)
        self._reschedule_wakeup()

    def _reschedule_wakeup(self) -> None:
        """Point the single wakeup event at the earliest completion.

        A fresh event per reschedule: its sequence number breaks ties
        with other events at the same instant."""
        wake = self._wakeup
        if wake is not None:   # Environment.unschedule, inlined
            wake._cancelled = True
            wake.callbacks = None
            self._wakeup = None
        flows = self._flows
        if not flows:
            return
        horizon = _INF
        for f in flows:
            if f.rate > 0:
                h = f.remaining / f.rate
                if h < horizon:
                    horizon = h
        if horizon == _INF:  # pragma: no cover - all rates zero
            raise SimulationError("flows present but no bandwidth allocated")
        if not horizon >= 0:   # pragma: no cover - rates/volumes are finite
            raise SimulationError(
                f"delay must be >= 0, cannot schedule at {horizon!r}")
        env = self.env
        wake = Event(env)
        wake._ok = True
        wake._value = None
        wake.callbacks.append(self._on_wakeup)  # type: ignore[union-attr]
        # Environment.schedule(wake, horizon), inlined: the same record,
        # (when, NORMAL, seq), on the same queue.
        seq = env._seq
        env._seq = seq + 1
        now = env._now
        if horizon == 0.0:
            env._now_normal.append((now, NORMAL, seq, wake))
        else:
            when = now + horizon
            if when == now:   # underflows to now: keep seq order
                env._now_normal.append((when, NORMAL, seq, wake))
            else:
                heapq.heappush(env._future, (when, NORMAL, seq, wake))
        self._wakeup = wake

    def _on_wakeup(self, _event: Event) -> None:
        self._wakeup = None
        self._advance()
        # Completion tolerance: a flow whose remaining volume would drain
        # within float round-off of the current instant *is* done.  The
        # time-relative term matters: at simulated time T the granularity
        # of the event clock is ~ulp(T), so up to rate * ulp(T) bytes of
        # residue is pure round-off; without this the network can spiral
        # through infinitely many zero-length wakeups.
        now = self.env._now
        time_eps = 1e-12 * (1.0 + now)
        flows = self._flows
        finished = []
        seeds: list[Link] = []
        for f in flows:
            rem = f.remaining
            if (rem <= _EPS_BYTES or rem <= 1e-12 * f.nbytes
                    or (f.rate > 0 and rem <= f.rate * time_eps)):
                finished.append(f)
                seeds += f.route.distinct
        if finished:
            for f in finished:
                flows.remove(f)
                for l in f.route.distinct:
                    l._nflows -= 1
            self.completed_flows += len(finished)
            if self.ledger is not None:
                for f in finished:
                    self.ledger.on_end(f, now)
        # Departures only perturb the components the finished flows were
        # in; seed with their links.
        self._update(seed_links=seeds)
        for f in finished:
            f.remaining = 0.0
            ev, f.event = f.event, None   # no Flow <-> Event cycle
            ev.succeed(f)
