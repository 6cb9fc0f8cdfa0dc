"""Pluggable per-link bandwidth-allocation policies.

:mod:`repro.sim.bandwidth` historically implemented exactly one sharing
discipline: pure processor-sharing (every flow crossing a bottleneck gets
an equal rate, i.e. max-min fairness with unit weights).  The multi-tenant
service needs per-tenant QoS, so the discipline becomes a per-link
*policy* drawn from a small allocator family modeled after psim's
``BandwidthAllocator`` hierarchy:

:class:`FairShare`
    Plain max-min fairness: flow priorities and shares are ignored and
    the component is one unweighted progressive fill of
    :func:`_fill_layer` with each link's budget its capacity.  This is
    the default policy of every link (``policy is None`` means
    FairShare).
:class:`MaxMinFair`
    Weighted max-min fairness: progressive filling where each flow's rate
    rises proportionally to its ``share`` weight, so a tenant with share
    2.0 receives twice the bottleneck bandwidth of a share-1.0 tenant.
:class:`FixedLevels`
    Hard partitioning: each priority class is confined to a fixed
    fraction of the link's capacity (its *level*).  Levels are floors
    **and** ceilings -- unused level capacity is NOT spilled to other
    classes, which is what makes the adaptive controller's job
    meaningful: it re-draws the level map each control epoch to hand
    idle capacity to backlogged classes.
:class:`StrictPriority`
    Strict layering: higher-priority flows are filled first and lower
    classes receive only the leftovers -- a starved class gets exactly
    zero (the starvation-ordering property the allocator battery pins).

Policies only *parameterise* the fill; the fill itself
(:func:`fill_component`) remains a pure function of the component's flows
(in insertion order) and its links, so the incremental/full recompute
equivalence of :mod:`repro.sim.bandwidth` carries over unchanged.

Mixed-policy components are resolved conservatively: the component is
layered by priority if *any* of its links is layered
(:class:`StrictPriority`/:class:`FixedLevels`), and weighted by flow
shares if *any* link is weighted.  Per-layer budgets are still computed
per link from that link's own policy.

:class:`QosTag` is the glue to the engine: the service stamps a tag on
each job's root process, :class:`~repro.sim.engine.Process` propagates it
to child processes, and :meth:`~repro.sim.bandwidth.FlowNetwork.transfer`
reads it off :attr:`~repro.sim.engine.Environment.active_process` so
every flow a job starts -- however deep inside machine primitives --
carries the tenant's priority and share without plumbing QoS arguments
through every runner.
"""

from __future__ import annotations

import math
import typing as _t

from repro.errors import SimulationError

__all__ = [
    "BandwidthAllocator", "FairShare", "MaxMinFair", "FixedLevels",
    "StrictPriority", "QosTag", "ALLOCATORS", "make_allocator",
    "fill_component",
]

_INF = math.inf
#: Rate slack for freezing decisions (bytes/second).
_EPS_RATE = 1e-9


class QosTag(_t.NamedTuple):
    """Per-process QoS metadata inherited by child processes and stamped
    onto every flow the process starts."""

    tenant: str | None = None
    priority: int = 0
    share: float = 1.0


class BandwidthAllocator:
    """Base class for per-link allocation policies.

    Two class flags drive the fill dispatch:

    ``weighted``
        flow ``share`` weights matter on this link;
    ``layered``
        flow ``priority`` classes matter on this link (the component is
        filled top priority first).

    A policy with neither flag set (FairShare) leaves the component to
    the plain unweighted fill.
    """

    name: str = "base"
    weighted: bool = False
    layered: bool = False

    def layer_budget(self, link: "_t.Any", priority: int,
                     headroom: float) -> float:
        """Capacity this link offers to priority class ``priority`` given
        ``headroom`` (capacity not consumed by higher classes)."""
        return headroom

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


class FairShare(BandwidthAllocator):
    """Pure processor-sharing: ignores both flow priorities and shares,
    exactly like a link with no policy at all."""

    name = "fair-share"


class MaxMinFair(BandwidthAllocator):
    """Weighted max-min fairness: rates rise in proportion to each flow's
    ``share`` weight during progressive filling."""

    name = "max-min"
    weighted = True


class StrictPriority(BandwidthAllocator):
    """Strict priority layering: class ``p`` flows see only the capacity
    left over by every class above ``p``.  Within a class, filling is
    weighted max-min by ``share``."""

    name = "strict-priority"
    weighted = True
    layered = True


class FixedLevels(BandwidthAllocator):
    """Hard capacity partitioning by priority class.

    ``levels`` maps a priority class to the fraction of link capacity
    reserved for it; fractions must be positive and sum to at most 1.
    A class appearing in the map is guaranteed its fraction (the *floor*
    property the allocator battery pins) and also confined to it (no
    spillover) -- reclaiming unused level capacity is the adaptive
    controller's job, which rewrites :attr:`levels` between control
    epochs.  Flows whose priority is not in the map share the residual
    fraction ``1 - sum(levels.values())``.
    """

    name = "fixed-levels"
    weighted = True
    layered = True

    def __init__(self, levels: _t.Mapping[int, float]) -> None:
        if not levels:
            raise SimulationError("FixedLevels needs at least one level")
        total = 0.0
        for prio, frac in levels.items():
            if not (0.0 < frac <= 1.0):
                raise SimulationError(
                    f"level fraction for class {prio} must be in (0, 1], "
                    f"got {frac!r}")
            total += frac
        if total > 1.0 + 1e-12:
            raise SimulationError(
                f"level fractions sum to {total:.6g} > 1")
        self.levels: dict[int, float] = {int(p): float(f)
                                         for p, f in levels.items()}

    def fraction(self, priority: int) -> float:
        """The capacity fraction available to ``priority`` (residual for
        unmapped classes)."""
        frac = self.levels.get(priority)
        if frac is not None:
            return frac
        residual = 1.0 - sum(self.levels.values())
        return residual if residual > 0.0 else 0.0

    def layer_budget(self, link: _t.Any, priority: int,
                     headroom: float) -> float:
        budget = link.capacity * self.fraction(priority)
        return budget if budget < headroom else headroom

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{p}:{f:g}" for p, f in sorted(self.levels.items()))
        return f"<FixedLevels {inner}>"


#: Registry: CLI/service-facing allocator names -> factory.  ``FixedLevels``
#: requires a level map, supplied by the caller (the service builds one
#: from its tenants' shares).
ALLOCATORS: dict[str, type[BandwidthAllocator]] = {
    FairShare.name: FairShare,
    MaxMinFair.name: MaxMinFair,
    FixedLevels.name: FixedLevels,
    StrictPriority.name: StrictPriority,
}


def make_allocator(name: str,
                   levels: _t.Mapping[int, float] | None = None,
                   ) -> BandwidthAllocator:
    """Instantiate an allocator by registry name.

    ``levels`` is required for ``fixed-levels`` and ignored otherwise.
    """
    try:
        cls = ALLOCATORS[name]
    except KeyError:
        raise SimulationError(
            f"unknown allocator {name!r}; choose from "
            f"{sorted(ALLOCATORS)}") from None
    if cls is FixedLevels:
        if levels is None:
            raise SimulationError(
                "allocator 'fixed-levels' needs a level map")
        return FixedLevels(levels)
    return cls()


# -- the generalised fill -----------------------------------------------------

def _fill_layer(flows: list, links: list, weighted: bool) -> None:
    """Weighted progressive filling of one priority layer.

    All unfrozen flows' rates rise in lockstep until a flow reaches its
    cap or a link's budget runs out; affected flows freeze; repeat.  A
    flow's payload rate rises by ``delta * share`` per round (``delta``
    when unweighted), consuming ``delta * share * link_weight`` on each
    link's *budget* (``link._budget``, set by the caller: the capacity
    for a plain component, a policy's layer budget otherwise).  A flow
    frozen at its cap runs at exactly ``cap``, not ``cap`` less the
    round-off of the deltas.

    Flows crossing a link whose budget is already exhausted are frozen at
    exactly rate 0 before any round runs -- that exactness is the
    starvation-ordering guarantee for :class:`StrictPriority` and the
    confinement guarantee for :class:`FixedLevels`.
    """
    for f in flows:
        f.rate = 0.0
    unfrozen = []
    for f in flows:
        starved = False
        for l, _w in f.links:
            if l._budget <= _EPS_RATE * l.capacity:
                starved = True
                break
        if not starved:
            unfrozen.append(f)
    while unfrozen:
        delta = _INF
        for f in unfrozen:
            w = f.share if weighted else 1.0
            d = (f.cap - f.rate) / w
            if d < delta:
                delta = d
        for l in links:
            l._wsum = 0.0
        for f in unfrozen:
            fw = f.share if weighted else 1.0
            for l, w in f.links:
                l._wsum += fw * w
        for l in links:
            if l._wsum > 0.0:
                d = l._budget / l._wsum
                if d < delta:
                    delta = d
        if delta < 0:
            delta = 0.0
        if delta == _INF:  # pragma: no cover - guarded at transfer()
            raise SimulationError("unbounded flow rate")
        for f in unfrozen:
            fw = f.share if weighted else 1.0
            f.rate += delta * fw
            for l, w in f.links:
                used = delta * fw * w
                l._budget -= used
                l._left -= used
        still = []
        for f in unfrozen:
            if f.rate >= f.cap - _EPS_RATE:
                f.rate = f.cap   # snap-to-cap
                continue
            saturated = False
            for l, _w in f.links:
                if l._budget <= _EPS_RATE * l.capacity:
                    saturated = True
                    break
            if saturated:
                continue
            still.append(f)
        if len(still) == len(unfrozen):  # pragma: no cover - defensive
            break
        unfrozen = still


def fill_component(flows: list, links: list) -> None:
    """Fill ONE connected component under its links' policies.

    Called by ``FlowNetwork._fill`` only when at least one link carries a
    weighted or layered policy; pure-FairShare components never reach
    this function.  It is a pure function of the component's flows
    (insertion order) and links, so incremental and from-scratch
    recomputes stay bit-identical.
    """
    weighted = False
    layered = False
    for l in links:
        pol = l.policy
        if pol is not None:
            if pol.weighted:
                weighted = True
            if pol.layered:
                layered = True

    for l in links:
        l._left = l.capacity

    if not layered:
        for l in links:
            l._budget = l._left
        _fill_layer(flows, links, weighted)
        return

    classes: list[int] = sorted({f.priority for f in flows}, reverse=True)
    for prio in classes:
        layer = [f for f in flows if f.priority == prio]
        for l in links:
            pol = l.policy
            headroom = l._left
            if headroom < 0.0:
                headroom = 0.0
            l._budget = (pol.layer_budget(l, prio, headroom)
                         if pol is not None else headroom)
        _fill_layer(layer, links, weighted)
