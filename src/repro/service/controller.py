"""The adaptive QoS controller: epoch-driven level reallocation.

:class:`~repro.sim.allocators.FixedLevels` confines every priority class
to a fixed fraction of each link -- floors *and* ceilings, no spillover.
That makes an idle tenant's reservation dead bandwidth.  The controller
closes the loop: every ``epoch_s`` of simulated time it samples which
priority classes are *backlogged* (have running or queued jobs), shrinks
the levels of idle classes by ``reclaim`` (default 90% of the idle
reservation) and hands the freed fraction to backlogged classes pro-rata
by their base levels, then triggers
:meth:`~repro.sim.bandwidth.FlowNetwork.reallocate` so in-flight
transfers immediately see the new partitioning.  When a class becomes
backlogged again the next epoch restores its base level -- reservations
are loaned, never sold.

The controller is a plain simulation process: its sampling is passive,
its interventions happen only at epoch boundaries, and its behaviour is a
deterministic function of the job stream, so service verdicts stay
byte-stable.
"""

from __future__ import annotations

import typing as _t

from repro.errors import SimulationError
from repro.obs.events import EV
from repro.sim.allocators import FixedLevels

__all__ = ["AdaptiveController"]


class AdaptiveController:
    """Reallocates idle FixedLevels capacity to backlogged classes.

    Parameters
    ----------
    env, net:
        The simulation environment and the flow network to re-fill.
    targets:
        ``(link, policy)`` pairs to manage; every policy must be a
        :class:`FixedLevels` (they may be shared between links).
    demand_fn:
        Zero-argument callable returning the currently backlogged
        priority classes (running or queued jobs).  Supplied by the
        service so queued-but-not-admitted demand counts too.
    epoch_s:
        Control period in simulated seconds.
    reclaim:
        Fraction of an idle class's base level loaned out per epoch,
        in [0, 1).
    bus:
        Optional :class:`~repro.obs.events.EventBus`; each epoch is
        published as a ``service.epoch`` event.
    """

    def __init__(self, env, net, targets: _t.Sequence[tuple],
                 demand_fn: _t.Callable[[], _t.Iterable[int]],
                 epoch_s: float = 0.05, reclaim: float = 0.9,
                 bus=None) -> None:
        if not epoch_s > 0:   # NaN fails too
            raise SimulationError(f"epoch_s must be > 0, got {epoch_s}")
        if not 0.0 <= reclaim < 1.0:
            raise SimulationError(
                f"reclaim must be in [0, 1), got {reclaim}")
        for _link, pol in targets:
            if not isinstance(pol, FixedLevels):
                raise SimulationError(
                    f"controller targets must use FixedLevels, got {pol!r}")
        self.env = env
        self.net = net
        self.targets = list(targets)
        self.demand_fn = demand_fn
        self.epoch_s = epoch_s
        self.reclaim = reclaim
        self.bus = bus
        #: Base level maps, frozen at attach time; epochs re-draw the
        #: live maps but always start from these.
        self.base = [dict(pol.levels) for _link, pol in self.targets]
        #: One record per epoch (index, time, backlogged/idle classes,
        #: reclaimed fraction, resulting levels) -- the verdict's
        #: ``controller.epochs`` series.
        self.epochs: list[dict] = []
        self.proc = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the control loop (runs until the service run ends)."""
        self.proc = self.env.process(self._loop(), name="qos.controller")

    def _loop(self):
        index = 0
        while True:
            yield self.env.timeout(self.epoch_s)
            self._epoch(index)
            index += 1

    # -- one control epoch -------------------------------------------------

    def _epoch(self, index: int) -> None:
        demanded = frozenset(int(p) for p in self.demand_fn())
        changed = False
        freed_total = 0.0
        idle_total = 0.0
        levels_out: dict[str, float] = {}
        for (link, pol), base in zip(self.targets, self.base):
            idle = [p for p in base if p not in demanded]
            active = [p for p in base if p in demanded]
            new = dict(base)
            if idle and active:
                freed = 0.0
                for p in idle:
                    keep = base[p] * (1.0 - self.reclaim)
                    freed += base[p] - keep
                    new[p] = keep
                wsum = sum(base[p] for p in active)
                for p in active:
                    new[p] = base[p] + freed * (base[p] / wsum)
                freed_total += freed
                idle_total += sum(base[p] for p in idle)
            if new != pol.levels:
                pol.levels.clear()
                pol.levels.update(new)
                changed = True
            for p, f in new.items():
                levels_out[f"{link.name}:{p}"] = f
        if changed:
            self.net.reallocate()
        base_classes = {p for b in self.base for p in b}
        rec = {
            "index": index,
            "t": self.env.now,
            "backlogged": sorted(demanded & base_classes),
            "idle": sorted(base_classes - demanded),
            "reclaimed_fraction": (freed_total / idle_total
                                   if idle_total > 0.0 else 0.0),
            "changed": changed,
            "levels": levels_out,
        }
        self.epochs.append(rec)
        if self.bus is not None:
            self.bus.emit(EV.EPOCH, index=index, t=rec["t"],
                          backlogged=rec["backlogged"], idle=rec["idle"],
                          reclaimed_fraction=rec["reclaimed_fraction"],
                          changed=changed)

    # -- verdict summary ----------------------------------------------------

    def summary(self) -> dict:
        """Scalar controller stats for the service verdict."""
        reclaiming = [e["reclaimed_fraction"] for e in self.epochs
                      if e["idle"] and e["backlogged"]]
        return {
            "n_epochs": len(self.epochs),
            "epoch_s": self.epoch_s,
            "reclaim": self.reclaim,
            "epochs_reclaiming": len(reclaiming),
            "mean_reclaimed_fraction": (sum(reclaiming) / len(reclaiming)
                                        if reclaiming else 0.0),
        }
