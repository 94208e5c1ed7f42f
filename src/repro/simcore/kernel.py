"""The discrete-event simulation kernel.

:class:`Simulator` owns the clock and the event queue.  Components schedule
:class:`~repro.simcore.events.SimEvent` objects; processes (generators) are
driven by :class:`~repro.simcore.process.Process`.  Determinism: events at
equal times are processed in (priority, insertion order).

Performance notes
-----------------
The queue is split in two.  Timed events live on a binary heap keyed by
``(time, (priority << 53) + insertion-order)`` — the priority/insertion
tiebreak packed into a single integer so heap sifts compare one field,
not two.  New timed entries are staged in a pending list and merged
lazily — bulk loads heapify in O(n) instead of paying n O(log n)
pushes.  Zero-delay NORMAL-priority events —
``succeed()``/``fail()`` triggers, resource grants, store handoffs, by far
the most common schedule — go to a FIFO deque instead, skipping the
``O(log n)`` heap push/pop entirely.  Because insertion order is globally
monotonic, the deque is always sorted by insertion order, and the drain
loop merges deque and heap by comparing ``(priority, insertion-order)``
whenever the heap's head shares the current timestamp, so observable
ordering is bit-identical to a single heap.  The run loop is deliberately
inlined (no per-event ``step()`` call) and drains all events of one
timestamp before re-checking the stop conditions.

This is the kernel's only event path, and :meth:`Simulator.call_at` is
its one timer primitive: each timer is one queue entry that carries its
callback's arguments.  A calendar-queue timer store, batching
same-timestamp timers into one entry and a struct-of-arrays timer-batch
type were measured no faster end to end on any benchmark workload
(EXPERIMENTS.md, "Kernel mode collapse" and "One timer primitive").

Per-simulator counters (:attr:`Simulator.events_processed`,
:attr:`Simulator.peak_queue_depth`) feed the scale benchmarks.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Callable, Optional

from ..obs.recorder import NULL_RECORDER
from .errors import EmptySchedule, SimulationError, StopSimulation
from .events import LAZY, NORMAL, URGENT, AllOf, AnyOf, SimEvent, Timeout
from .process import Process, ProcessGenerator

__all__ = ["Simulator", "URGENT", "NORMAL", "LAZY"]


class _FnCallback:
    """Adapter invoking ``fn(*args)`` as an event callback.

    Timers run on hot paths (Condor completions, EC2 boots, GridFTP
    slices); a slotted adapter carrying the arguments avoids allocating
    a closure per timer the way ``lambda _ev: fn(*args)`` would.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., None], args: tuple) -> None:
        self.fn = fn
        self.args = args

    def __call__(self, _event: SimEvent) -> None:
        self.fn(*self.args)


class Simulator:
    """Event loop with a virtual clock measured in seconds."""

    __slots__ = (
        "_now",
        "_queue",
        "_pending",
        "_immediate",
        "_eid",
        "_active_process",
        "events_processed",
        "peak_queue_depth",
        "obs",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: timed/prioritised events as ``(time, key, event)`` where
        #: ``key = (priority << 53) + insertion-id`` packs the tiebreak
        #: into one integer: URGENT keys are negative, NORMAL keys are the
        #: bare insertion id, LAZY keys exceed 2**53.  One comparison
        #: level instead of two, and a smaller tuple per entry.
        self._queue: list[tuple[float, int, SimEvent]] = []
        #: timed entries scheduled but not yet sifted into the heap.  Bulk
        #: loads (staging thousands of timers before the first pop) flush
        #: with one O(n) ``heapify`` instead of n O(log n) pushes; trickle
        #: inserts fall back to ``heappush``.  Pop order depends only on
        #: the (unique) sort keys, so the internal arrangement produced by
        #: either flush path yields identical event ordering.
        self._pending: list[tuple[float, int, SimEvent]] = []
        #: zero-delay NORMAL events at the current time: (insertion id, event)
        self._immediate: deque[tuple[int, SimEvent]] = deque()
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: events popped and executed since construction
        self.events_processed: int = 0
        #: high-water mark of pending events (heap + immediate deque)
        self.peak_queue_depth: int = 0
        #: observability recorder; the shared null singleton unless a
        #: :class:`~repro.simcore.context.SimContext` installs a live one.
        #: The hot drain loops never consult it — :meth:`run` checks
        #: ``obs.enabled`` once per call, so instrumentation off costs
        #: nothing per event.
        self.obs = NULL_RECORDER

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def provenance(self) -> dict:
        """The kernel facts a provenance bundle needs to cross-check this
        simulator: the deterministic end-of-run counters a replay must
        match."""
        return {
            "now": self._now,
            "events_processed": self.events_processed,
            "peak_queue_depth": self.peak_queue_depth,
        }

    @property
    def queue_depth(self) -> int:
        """Number of scheduled-but-unprocessed events: the heap, the
        unflushed staging list and the zero-delay FIFO."""
        return len(self._queue) + len(self._pending) + len(self._immediate)

    # -- factories ---------------------------------------------------------
    def event(self) -> SimEvent:
        """Create a fresh, untriggered event."""
        return SimEvent(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    def call_at(self, when: float, fn: Callable[..., None], *args) -> SimEvent:
        """Run ``fn(*args)`` at absolute simulated time ``when``.

        The entry is staged at ``when`` itself: ``now + (when - now)``
        can round to a neighbouring float.  Timers due at the same time
        fire in the order they were scheduled.
        """
        if not (when >= self._now):  # also rejects NaN
            raise ValueError(f"cannot schedule in the past ({when} < {self._now})")
        ev = SimEvent(self)
        ev._value = None
        ev._ok = True
        ev.callbacks.append(_FnCallback(fn, args))
        # Inlined Simulator._schedule at an absolute time; a NORMAL
        # priority packs to the bare insertion id.
        self._pending.append((when, next(self._eid), ev))
        return ev

    def call_in(self, delay: float, fn: Callable[..., None], *args) -> SimEvent:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        ev = Timeout(self, delay)
        ev.callbacks.append(_FnCallback(fn, args))
        return ev

    # -- scheduling --------------------------------------------------------
    # NOTE: the hot constructors (Timeout.__init__, call_at,
    # SimEvent.succeed/fail) inline this push to save a call per event;
    # keep them in sync.
    def _schedule(self, event: SimEvent, delay: float = 0.0, priority: int = NORMAL) -> None:
        if delay == 0.0 and priority == NORMAL:
            self._immediate.append((next(self._eid), event))
        else:
            self._pending.append(
                (self._now + delay, (priority << 53) + next(self._eid), event)
            )

    def _flush_pending(self) -> None:
        """Merge deferred timed entries into the heap (see ``_pending``)."""
        pending = self._pending
        queue = self._queue
        if len(pending) << 3 >= len(queue):
            queue.extend(pending)
            heapify(queue)
        else:
            for entry in pending:
                heappush(queue, entry)
        pending.clear()

    def _pop_next(self) -> tuple[float, SimEvent]:
        """Remove and return the next ``(time, event)`` in processing order."""
        if self._pending:
            self._flush_pending()
        immediate = self._immediate
        queue = self._queue
        if immediate:
            if queue:
                head = queue[0]
                # A heap entry beats the deque head only at the same
                # timestamp with a smaller packed (priority, insertion id)
                # key; deque entries are NORMAL, so bare-id comparison
                # suffices (URGENT keys are negative, LAZY keys > 2**53).
                if head[0] == self._now and head[1] < immediate[0][0]:
                    return heappop(queue)[0], head[2]
            return self._now, immediate.popleft()[1]
        if queue:
            when, _key, event = heappop(queue)
            return when, event
        raise EmptySchedule("no scheduled events")

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._immediate:
            return self._now
        if self._pending:
            self._flush_pending()
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        depth = self.queue_depth
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth
        when, event = self._pop_next()
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("event queue time went backwards")
        self._now = when
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks or ():
            cb(event)
        if event._ok is False and not event._defused:
            # Nobody waited on a failed event: surface the error loudly.
            raise event.value  # type: ignore[misc]

    def _drain(self, until_f: Optional[float]) -> None:
        """The hot loop: run events until the queue empties or ``until_f``.

        Equivalent to ``while _queue: step()`` but with the scheduling
        structures bound to locals and all events of the current timestamp
        drained in one inner pass.  Ordering is identical to repeated
        ``step()`` calls; only the interpreter overhead differs.

        The queue-depth high-water mark is sampled where depth can peak:
        once on entry, then after each callback batch (only callbacks
        schedule new events; between batches depth strictly falls), plus
        once at exit for events left unprocessed by ``until_f``.  The
        maximum over those samples is the exact peak, and callback-less
        events (bare timers) pay nothing.
        """
        queue = self._queue
        pending = self._pending
        immediate = self._immediate
        pop_immediate = immediate.popleft
        flush = self._flush_pending
        now = self._now
        processed = 0
        peak = self.peak_queue_depth
        depth = len(queue) + len(pending) + len(immediate)
        if depth > peak:
            peak = depth
        try:
            while True:
                if pending:
                    flush()
                if immediate:
                    event = None
                    if queue:
                        head = queue[0]
                        if head[0] == now and head[1] < immediate[0][0]:
                            event = heappop(queue)[2]
                    if event is None:
                        event = pop_immediate()[1]
                elif queue:
                    entry = heappop(queue)
                    when = entry[0]
                    if when > now:
                        if until_f is not None and when > until_f:
                            heappush(queue, entry)
                            now = until_f
                            return
                        now = when
                    event = entry[2]
                else:
                    if until_f is not None:
                        now = until_f
                    return
                processed += 1
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    # Publish the clock only when user code is about to run;
                    # callback-less events (bare timers) skip the store.
                    self._now = now
                    for cb in callbacks:
                        cb(event)
                    depth = len(queue) + len(pending) + len(immediate)
                    if depth > peak:
                        peak = depth
                if event._ok is False and not event._defused:
                    raise event.value  # type: ignore[misc]
        finally:
            depth = len(queue) + len(pending) + len(immediate)
            if depth > peak:
                peak = depth
            self._now = now
            self.events_processed += processed
            self.peak_queue_depth = peak

    def run(self, until: float | SimEvent | None = None) -> object:
        """Run until the queue drains, a time is reached, or an event fires.

        ``until`` may be ``None`` (drain), a number (absolute time), or an
        event (stop when it is processed, returning its value — or raising
        it, if the event failed).

        The per-simulator counters (:attr:`events_processed`,
        :attr:`peak_queue_depth`) **persist across calls**: each ``run()``
        accumulates onto the totals rather than resetting them, so a
        scenario staged as several ``run(until=...)`` phases reports the
        same counts as one uninterrupted drain.  Sample before/after a
        call to attribute counts to one phase.

        With a live observability recorder installed (see
        :mod:`repro.obs`), every call records a ``kernel.run`` span on the
        ``kernel`` track carrying the number of events the call processed, and updates the ``kernel.events`` /
        ``kernel.runs`` counters and the ``kernel.peak_queue_depth``
        gauge.  The disabled recorder skips all of it after one flag test.
        """
        obs = self.obs
        if not obs.enabled:
            return self._run(until)
        span = obs.start("kernel.run", track="kernel")
        before = self.events_processed
        try:
            result = self._run(until)
        except BaseException as exc:
            span.set(events=self.events_processed - before)
            obs.finish(span, status="error", error=repr(exc))
            raise
        delta = self.events_processed - before
        span.set(events=delta)
        obs.finish(span)
        obs.counter("kernel.runs").inc()
        obs.counter("kernel.events").inc(delta)
        obs.gauge("kernel.peak_queue_depth").set(self.peak_queue_depth)
        return result

    def _run(self, until: float | SimEvent | None) -> object:
        stop_value: dict = {}
        until_f: Optional[float] = None
        if isinstance(until, SimEvent):
            if until.processed:
                if not until.ok:
                    raise until.value  # type: ignore[misc]
                return until.value
            def _stop(ev: SimEvent) -> None:
                stop_value["value"] = ev.value
                stop_value["ok"] = ev.ok
                raise StopSimulation()
            until.callbacks.append(_stop)
        elif until is not None:
            until_f = float(until)
            if until_f < self._now:
                raise ValueError(f"until ({until_f}) is in the past (now={self._now})")

        # Pause the cyclic garbage collector for the drain: the hot loop
        # allocates thousands of short-lived events/tuples per run, which
        # trips gen-0 collections constantly (measured ~35% of kernel
        # wall on the scale grid) while the kernel itself creates no
        # reference cycles that need collecting mid-run.  Re-enabled (and
        # nesting-safe) on exit; a deferred collection then reclaims any
        # cycles model code made.
        paused_gc = gc.isenabled()
        if paused_gc:
            gc.disable()
        try:
            self._drain(until_f)
        except StopSimulation:
            if not stop_value.get("ok", True):
                raise stop_value["value"]  # type: ignore[misc]
            return stop_value.get("value")
        finally:
            if paused_gc:
                gc.enable()
        if until_f is None and isinstance(until, SimEvent):
            raise SimulationError(
                "event queue drained before the awaited event triggered"
            )
        return None
