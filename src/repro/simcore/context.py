"""Simulation context: the bundle every component receives.

A :class:`SimContext` owns the kernel, the named RNG streams, and a simple
structured trace log.  Passing one object keeps constructor signatures flat
and makes whole-system determinism a single-seed affair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..obs.recorder import recorder_for_context
from .kernel import Simulator
from .rng import RandomStreams


@dataclass
class TraceRecord:
    """One structured trace event emitted by a component."""

    time: float
    source: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)


class TraceLog:
    """In-memory structured log with optional live subscribers.

    Storage is struct-of-arrays style: ``emit`` appends a plain tuple
    (simulations log tens of thousands of records on hot paths, and a
    tuple append is several times cheaper than a dataclass construction);
    :class:`TraceRecord` objects are materialized lazily — and cached —
    the first time :attr:`records` is read.  Live subscribers force the
    record into existence at emit time, so they see the same objects.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[float, str, str, dict[str, Any]]] = []
        self._records: list[TraceRecord] = []
        self._subscribers: list[Callable[[TraceRecord], None]] = []

    @property
    def records(self) -> list[TraceRecord]:
        recs = self._records
        rows = self._rows
        if len(recs) < len(rows):
            recs.extend(
                TraceRecord(time=t, source=s, kind=k, detail=d)
                for t, s, k, d in rows[len(recs):]
            )
        return recs

    def emit(self, time: float, source: str, kind: str, **detail: Any) -> None:
        self._rows.append((time, source, kind, detail))
        if self._subscribers:
            rec = self.records[-1]
            for sub in self._subscribers:
                sub(rec)

    def subscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        self._subscribers.append(fn)

    def filter(self, kind: str | None = None, source: str | None = None) -> list[TraceRecord]:
        out = self.records
        if kind is not None:
            out = [r for r in out if r.kind == kind]
        if source is not None:
            out = [r for r in out if r.source == source]
        return list(out)


class SimContext:
    """Kernel + RNG + trace, the spine threaded through every subsystem."""

    def __init__(
        self,
        seed: int = 0,
        initial_time: float = 0.0,
        obs: object = None,
    ) -> None:
        self.seed = seed
        self.sim = Simulator(initial_time=initial_time)
        self.rng = RandomStreams(seed)
        self.trace = TraceLog()
        #: observability recorder (see :mod:`repro.obs`): pass an
        #: :class:`~repro.obs.ObsRecorder` or ``True`` to record spans and
        #: metrics; the default is the shared null recorder unless an
        #: ``obs.capture()`` block is active, in which case a fresh
        #: recorder is created and registered with it.
        self.obs = recorder_for_context(obs, self.sim)
        self.sim.obs = self.obs

    @property
    def now(self) -> float:
        return self.sim.now

    def stream(self, name: str) -> np.random.Generator:
        return self.rng.stream(name)

    def log(self, source: str, kind: str, **detail: Any) -> None:
        self.trace.emit(self.sim.now, source, kind, **detail)

    def provenance(self) -> dict:
        """Everything a replay needs to rebuild an equivalent context:
        the seed plus the kernel's end-of-run counters."""
        return {"seed": self.seed, **self.sim.provenance()}
