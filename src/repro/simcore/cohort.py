"""Cohort events: struct-of-arrays batch scheduling for homogeneous timers.

Large simulations are dominated by *populations* of identical timers —
GridFTP chunk completions, Condor job completions, EC2 boot delays.
Scheduling each as its own timeout allocates a full
:class:`~repro.simcore.events.SimEvent` (often a whole generator resume)
per timer.  An :class:`EventCohort` registers N such timers as one
record: NumPy arrays of fire times, optional entity ids and payload
scalars, and a single ``apply(cohort, start, stop)`` callback.

Each member is one queue entry: the kernel pops it like any other timer
and calls ``apply(cohort, k, k + 1)``.  What the cohort saves is the
producer's side — one registration, one shared callback list and no
per-member closure or generator.

Ordering contract
-----------------
Members are staged into the kernel's pending list at registration time
with freshly drawn insertion ids, in member-index order.  Insertion ids
are globally monotonic, so members keep their position relative to every
other event in the simulation, and members sharing a fire time execute
in ascending index order.  ``events_processed`` and the queue depth
count members exactly like plain timers.

Registration is all-or-nothing: every fire time is checked before any
member is staged, so a rejected cohort leaves nothing behind.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .events import SimEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel import Simulator

__all__ = ["EventCohort"]

ApplyFn = Callable[["EventCohort", int, int], None]


class _CohortMember(SimEvent):
    """One queue entry for member ``index``.

    Allocated inline by :class:`EventCohort` via ``__new__`` (members
    are created in bulk; even a flat ``__init__`` call is measurable at
    cohort scale) with only the attributes the drain loop reads:
    ``callbacks`` (one list shared by every member of the cohort —
    popping clears the event's *attribute*, never the list), ``_ok``,
    ``_defused``, and ``index``.
    """

    __slots__ = ("index",)


class EventCohort:
    """N homogeneous timers registered as one struct-of-arrays record.

    Created via :meth:`Simulator.schedule_cohort`; producers keep a
    reference for its :attr:`done` event (fires once every member has
    been applied) and for the arrays ``apply`` indexes into.
    """

    __slots__ = (
        "sim",
        "layer",
        "_times",
        "entity_ids",
        "payload",
        "apply",
        "size",
        "done",
        "_remaining",
        "cause",
    )

    def __init__(
        self,
        sim: "Simulator",
        times: Sequence[float],
        apply: ApplyFn,
        payload: object = None,
        entity_ids: object = None,
        layer: str = "cohort",
        cause: object = None,
    ) -> None:
        self.sim = sim
        self.layer = layer
        # Opaque causal baggage for observability: producers stash the obs
        # span id(s) that provoked this cohort (one id, or a per-member
        # sequence) so `apply` can thread cause links onto spans it opens
        # without a per-member closure.  The kernel never
        # reads it; None (the obs-off default) costs one slot write.
        self.cause = cause
        # Kept as handed in; normalized to float64 lazily (see `times`).
        # Producers registering thousands of small cohorts (negotiator
        # ticks, per-file chunk plans) would otherwise pay an ndarray
        # round-trip per registration.
        self._times = times
        self.entity_ids = entity_ids
        self.payload = payload
        self.apply = apply
        self.size = n = len(times)
        self.done = SimEvent(sim)
        self._remaining = n
        if n == 0:
            self.done.succeed(self)
            return
        tl = times.tolist() if isinstance(times, np.ndarray) else times
        now = sim._now
        # Check every time before staging any member: a rejected cohort
        # must not leave earlier members queued.  ``not (t >= now)`` also
        # rejects NaN, which every ordered comparison answers False.
        for t in tl:
            if not (t >= now):
                raise ValueError(f"cohort fire time in the past ({t} < {now})")
        pending = sim._pending
        eid = sim._eid
        cbs = [self._fire_member]
        new = _CohortMember.__new__
        for k in range(n):
            ev = new(_CohortMember)
            ev.callbacks = cbs
            ev._ok = True
            ev._defused = False
            ev.index = k
            pending.append((tl[k], next(eid), ev))

    @property
    def times(self) -> np.ndarray:
        """Member fire times as a float64 array (normalized on first read)."""
        t = self._times
        if not isinstance(t, np.ndarray):
            t = self._times = np.asarray(t, dtype=np.float64)
        return t

    # -- kernel callbacks --------------------------------------------------
    def _fire_member(self, ev: SimEvent) -> None:
        """Apply exactly one member."""
        k = ev.index  # type: ignore[attr-defined]
        self.apply(self, k, k + 1)
        obs = self.sim.obs
        if obs.enabled:
            obs.counter(f"cohort.events.{self.layer}").inc()
        self._remaining -= 1
        if self._remaining == 0:
            self.done.succeed(self)
