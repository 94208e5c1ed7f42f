"""A Condor-like high-throughput scheduler: matchmaking over a dynamic pool.

The paper deploys Galaxy with a Condor head node managing "a set of Condor
worker nodes in a dynamic Condor pool.  In this model Galaxy jobs are
transparently assigned to Condor worker nodes for parallel execution"
(Sec. III-B), and the use case's speed-up comes from adding a faster
worker at runtime.  The pieces implemented here mirror Condor's daemons:

* **MachineAd / Startd** — a machine advertises slots (one per core);
* **Schedd** — the per-cluster job queue;
* **Negotiator** — a periodic matchmaking cycle assigning idle jobs to
  free slots: job *requirements* filter machines, job *rank* (default:
  fastest machine) orders them;
* **CondorPool** — the collector/facade wiring it together, with dynamic
  add/remove (drain or evict) of workers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Any, Callable, Optional

from .. import calibration
from ..simcore import LAZY, SimContext, SimEvent
from .node import ClusterNode

Requirements = Callable[["MachineAd"], bool]
Rank = Callable[["MachineAd"], float]


class JobState(str, enum.Enum):
    IDLE = "idle"
    RUNNING = "running"
    COMPLETED = "completed"
    REMOVED = "removed"
    HELD = "held"


class CondorError(Exception):
    pass


@dataclass
class MachineAd:
    """What a startd advertises to the collector."""

    name: str
    cores: int
    memory_gb: float
    cpu_factor: float
    io_factor: float = 1.0
    node: Optional[ClusterNode] = None
    attrs: dict[str, Any] = field(default_factory=dict)


@dataclass
class CondorJob:
    """One queued unit of work.

    ``cpu_work`` is in m1.small-seconds; actual runtime is
    ``cpu_work / machine.cpu_factor``.  ``on_complete`` lets the submitter
    (Galaxy's Condor runner) attach real computation to the simulated job.
    """

    id: int
    owner: str
    cpu_work: float
    io_work: float = 0.0
    req_memory_gb: float = 0.0
    requirements: Optional[Requirements] = None
    rank: Optional[Rank] = None
    on_complete: Optional[Callable[["CondorJob"], None]] = None
    state: JobState = JobState.IDLE
    submit_time: float = 0.0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    machine_name: Optional[str] = None
    evictions: int = 0
    completed: Optional[SimEvent] = None  # fires when COMPLETED
    # obs causal carriers: ids of the job's current condor.wait /
    # condor.run spans, so each phase span can cite its predecessor
    # (wait <- submitter's span, run <- wait, requeued wait <- run) even
    # though matching happens in batched negotiation cycles.  None
    # whenever observability is disabled.
    wait_span_id: Optional[int] = None
    run_span_id: Optional[int] = None

    def matches(self, machine: MachineAd) -> bool:
        if self.req_memory_gb > machine.memory_gb:
            return False
        if self.requirements is not None and not self.requirements(machine):
            return False
        return True

    def rank_of(self, machine: MachineAd) -> float:
        return self.rank(machine) if self.rank is not None else machine.cpu_factor

    @property
    def queue_wait_s(self) -> Optional[float]:
        return None if self.start_time is None else self.start_time - self.submit_time


class Startd:
    """Machine daemon executing claimed jobs, one per slot.

    Completions are *not* per-job processes: the negotiation cycle that
    claims a job schedules :meth:`_finish_job` as one plain timer at its
    finish time.  Each claim draws a sequence token; eviction /
    ``condor_rm`` bumps the slot's token so a stale completion timer
    no-ops instead of being interrupted.
    """

    def __init__(self, ctx: SimContext, machine: MachineAd) -> None:
        self.ctx = ctx
        self.machine = machine
        self.busy: dict[int, CondorJob] = {}  # slot id -> job
        self.draining = False
        self._claims: dict[int, int] = {}  # slot id -> claim sequence token
        self._claim_seq = 0
        self._drained_event: Optional[SimEvent] = None
        #: owning pool; keeps the pool's free-slot index current
        self.pool: Optional["CondorPool"] = None

    @property
    def free_slots(self) -> int:
        if self.draining:
            return 0
        return self.machine.cores - len(self.busy)

    def claim(self, job: CondorJob, pool: "CondorPool") -> tuple[int, int, float]:
        """Assign ``job`` to a free slot; returns (slot, token, finish time).

        The caller (the negotiation cycle) is responsible for scheduling
        the completion timer (:meth:`_finish_job` at the finish time)
        and for removing the job from the schedd's idle queue
        (``_job_left_queue``) once its scan is over, which lets the scan
        iterate the queue without copying it.
        """
        if self.free_slots < 1:
            raise CondorError(f"{self.machine.name} has no free slot")
        busy = self.busy
        slot = 0
        while slot in busy:  # lowest free slot; free_slots >= 1 bounds it
            slot += 1
        busy[slot] = job
        job.state = JobState.RUNNING
        job.start_time = self.ctx.now
        job.machine_name = self.machine.name
        obs = self.ctx.obs
        if obs.enabled:
            track = f"condor/job-{job.id}"
            obs.finish_open(track)  # the condor.wait span
            job.run_span_id = obs.start(
                "condor.run",
                track=track,
                cause=job.wait_span_id,
                job=job.id,
                machine=self.machine.name,
            ).id
            obs.histogram("condor.queue_wait_s").observe(
                self.ctx.now - job.submit_time
            )
        self._claim_seq += 1
        self._claims[slot] = self._claim_seq
        pool._update_free(self)
        duration = (
            job.cpu_work / self.machine.cpu_factor
            + job.io_work / self.machine.io_factor
        )
        return slot, self._claim_seq, self.ctx.now + duration

    def _finish_job(
        self, slot: int, token: int, job: CondorJob, pool: "CondorPool"
    ) -> None:
        """Completion timer for one claim (skips superseded claims)."""
        if self._claims.get(slot) != token:
            return  # evicted or condor_rm'd; the slot moved on
        del self.busy[slot]
        del self._claims[slot]
        pool._update_free(self)
        job.state = JobState.COMPLETED
        job.end_time = self.ctx.now
        if job.on_complete is not None:
            job.on_complete(job)
        if job.completed is not None and not job.completed.triggered:
            job.completed.succeed(job)
        obs = self.ctx.obs
        if obs.enabled:
            obs.finish_open(f"condor/job-{job.id}")  # the condor.run span
            obs.counter("condor.completions").inc()
        pool._job_finished(job)
        self._check_drained()

    def _abort(self, slot: int, job: CondorJob, pool: "CondorPool") -> None:
        """Free a claimed slot before completion (evict or ``condor_rm``).

        Bumping the claim token is what cancels the pending completion:
        its timer fires on schedule and no-ops on the mismatch.
        """
        del self.busy[slot]
        self._claims.pop(slot, None)
        pool._update_free(self)
        obs = self.ctx.obs
        if job.state == JobState.REMOVED:
            # condor_rm while running: free the slot, nothing to rematch
            if obs.enabled:
                obs.finish_open(
                    f"condor/job-{job.id}", status="cancelled", error="condor_rm"
                )
        else:
            # Evicted: job goes back to idle for rematching.
            job.state = JobState.IDLE
            pool.schedd._job_requeued(job)
            job.machine_name = None
            job.start_time = None
            job.evictions += 1
            if obs.enabled:
                track = f"condor/job-{job.id}"
                obs.finish_open(track, status="error", error="evicted")
                job.wait_span_id = obs.start(
                    "condor.wait",
                    track=track,
                    cause=job.run_span_id,
                    job=job.id,
                    requeued=True,
                ).id
                obs.counter("condor.evictions").inc()
        pool._wake_negotiator()
        self._check_drained()

    def evict_all(self) -> None:
        pool = self.pool
        for slot, job in sorted(self.busy.items()):
            self._abort(slot, job, pool)

    def drain(self) -> SimEvent:
        """Stop matching new jobs; event fires when the last job finishes."""
        self.draining = True
        if self.pool is not None:
            self.pool._update_free(self)
        if self._drained_event is None:
            self._drained_event = self.ctx.sim.event()
        self._check_drained()
        return self._drained_event

    def _check_drained(self) -> None:
        if self.draining and not self.busy and self._drained_event is not None:
            if not self._drained_event.triggered:
                self._drained_event.succeed(self.machine.name)


#: (submit_time, id): the idle queue's order, and fair share's tiebreak
_submission_order = attrgetter("submit_time", "id")

#: scale putting every finite float on an integer grid (2**-1074 is the
#: smallest positive subnormal), so sums of work values are exact
_EXACT_SCALE = 1 << 1074


def _exact(x: float) -> int:
    """``x`` in units of 2**-1074: integer addition is then exact."""
    num, den = x.as_integer_ratio()  # den is a power of two
    return num << (1075 - den.bit_length())


def _resorted(jobs: dict[int, CondorJob]) -> dict[int, CondorJob]:
    """``jobs`` re-keyed in (submit_time, id) order (after a requeue)."""
    return {j.id: j for j in sorted(jobs.values(), key=_submission_order)}


class Schedd:
    """The job queue."""

    def __init__(self) -> None:
        self.jobs: dict[int, CondorJob] = {}
        self._next_id = 1
        # Idle jobs indexed separately so a negotiation cycle never scans
        # (or sorts) the full queue history.  Submission order is already
        # (submit_time, id) order — ids are monotonic and sim time never
        # goes backwards — so the dict stays sorted until an eviction
        # re-queues an old job out of order, which marks it dirty.
        self._idle: dict[int, CondorJob] = {}
        self._idle_dirty = False
        # The same idle jobs bucketed per owner, each bucket in
        # (submit_time, id) order.  Buckets share the global index's
        # laziness: an eviction only dirties its own owner.
        self._idle_by_owner: dict[str, dict[int, CondorJob]] = {}
        self._dirty_owners: set[str] = set()
        #: owners whose head idle job may have changed since the pool's
        #: fair-share index last looked (a dict, for a deterministic order)
        self._changed_owners: dict[str, None] = {}
        #: exact cpu+io work of the idle queue in units of 2**-1074, so the
        #: backlog snapshot is O(1) and never drifts from the true sum
        self._idle_work = 0

    def submit(self, job_kwargs: dict, ctx: SimContext) -> CondorJob:
        job = CondorJob(id=self._next_id, submit_time=ctx.now, **job_kwargs)
        job.completed = ctx.sim.event()
        self._next_id += 1
        self.jobs[job.id] = job
        self._enqueue(job)
        return job

    def _enqueue(self, job: CondorJob) -> None:
        self._idle[job.id] = job
        self._idle_work += _exact(job.cpu_work + job.io_work)
        bucket = self._idle_by_owner.get(job.owner)
        if bucket is None:
            # a fresh submission only becomes its owner's head when the
            # bucket was empty; it is (submit_time, id)-last otherwise
            bucket = self._idle_by_owner[job.owner] = {}
            self._changed_owners[job.owner] = None
        bucket[job.id] = job

    def _job_requeued(self, job: CondorJob) -> None:
        """An eviction put ``job`` back to IDLE (possibly out of order)."""
        self._enqueue(job)
        self._idle_dirty = True
        self._dirty_owners.add(job.owner)
        self._changed_owners[job.owner] = None

    def _job_left_queue(self, job: CondorJob) -> None:
        """``job`` stopped being IDLE (claimed or removed)."""
        if self._idle.pop(job.id, None) is not None:
            self._idle_work -= _exact(job.cpu_work + job.io_work)
        bucket = self._idle_by_owner.get(job.owner)
        if bucket is not None and bucket.pop(job.id, None) is not None:
            self._changed_owners[job.owner] = None
            if not bucket:
                del self._idle_by_owner[job.owner]
                self._dirty_owners.discard(job.owner)

    def has_idle(self) -> bool:
        return bool(self._idle)

    def idle_count(self) -> int:
        """Number of idle jobs, without the sort :meth:`idle_jobs` may do."""
        return len(self._idle)

    def idle_count_of(self, owner: str) -> int:
        """One owner's idle-job count (0 when the owner has none queued)."""
        bucket = self._idle_by_owner.get(owner)
        return len(bucket) if bucket else 0

    @property
    def idle_work(self) -> float:
        """Total cpu+io work currently idle (m1.small-seconds), O(1).

        Correctly rounded, like ``math.fsum`` over the idle jobs; exactly
        ``0.0`` on an empty queue.
        """
        return self._idle_work / _EXACT_SCALE

    def idle_jobs(self) -> list[CondorJob]:
        return list(self.iter_idle())

    def idle_owners(self) -> list[str]:
        """Owners with at least one idle job (order is not significant)."""
        return list(self._idle_by_owner)

    def iter_idle(self):
        """Live (submit_time, id)-ordered view of the idle queue.

        No copy is made: callers must not submit, requeue, or remove
        idle jobs while iterating (the negotiation cycle defers its
        queue removals to the end of the scan for exactly this reason).
        """
        if self._idle_dirty:
            self._idle = _resorted(self._idle)
            self._idle_dirty = False
        return self._idle.values()

    def iter_idle_of(self, owner: str):
        """Live ordered view of one owner's idle jobs (see :meth:`iter_idle`)."""
        bucket = self._idle_by_owner.get(owner)
        if not bucket:
            return ()
        if owner in self._dirty_owners:
            bucket = self._idle_by_owner[owner] = _resorted(bucket)
            self._dirty_owners.discard(owner)
        return bucket.values()

    def remove(self, job_id: int) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            raise CondorError(f"no such job {job_id}")
        if job.state == JobState.RUNNING:
            raise CondorError("evict via the pool before removing a running job")
        job.state = JobState.REMOVED
        self._job_left_queue(job)


class CondorPool:
    """Collector + negotiator + schedd: the pool facade Galaxy talks to."""

    def __init__(
        self,
        ctx: SimContext,
        negotiation_interval_s: float = calibration.CONDOR_NEGOTIATION_INTERVAL_S,
        fair_share: bool = True,
    ) -> None:
        self.ctx = ctx
        self.interval = negotiation_interval_s
        #: when True, idle jobs of lighter users match first (Condor's
        #: user-priority fair share, simplified to accumulated usage)
        self.fair_share = fair_share
        self.usage_by_owner: dict[str, float] = {}
        self.schedd = Schedd()
        self.startds: dict[str, Startd] = {}
        #: index of machines with at least one free slot, so negotiation
        #: never scans fully-loaded startds (name -> Startd)
        self._free: dict[str, Startd] = {}
        # Persistent fair-share owner index: a heap of (usage, head
        # submit_time, head id, owner) over owners with idle jobs, with
        # each owner's live entry in ``_owner_entry``.  Entries go stale
        # lazily (identity check on pop) and are re-pushed only for the
        # owners the schedd reports changed, so a cycle costs
        # O((matches + changed owners) log owners), not O(idle owners).
        self._owner_heap: list[tuple[float, float, int, str]] = []
        self._owner_entry: dict[str, tuple[float, float, int, str]] = {}
        self._stopped = False
        #: idle jobs remain but no non-draining slot exists to run them;
        #: the negotiator stops ticking until a machine joins
        self.stalled = False
        #: a LAZY wake event is armed (coalesces same-timestamp kicks)
        self._wake_armed = False
        #: when the periodic retry is due (last cycle + interval), or None
        #: when the last cycle left nothing it could retry
        self._tick_due: Optional[float] = None
        #: at most one ``condor.tick`` timer is ever queued
        self._tick_pending = False
        # Boot cycle: coalesces with same-timestamp add/submit kicks.
        self._wake_negotiator()

    # -- pool membership -----------------------------------------------------
    def add_node(self, node: ClusterNode, cores: Optional[int] = None) -> Startd:
        """Register a ClusterNode as an execute machine."""
        ad = MachineAd(
            name=node.name,
            cores=cores if cores is not None else node.cores,
            memory_gb=node.memory_gb,
            cpu_factor=node.cpu_factor,
            io_factor=node.io_factor,
            node=node,
        )
        return self.add_machine(ad)

    def add_machine(self, machine: MachineAd) -> Startd:
        if machine.name in self.startds:
            raise CondorError(f"machine {machine.name!r} already in pool")
        startd = Startd(self.ctx, machine)
        startd.pool = self
        self.startds[machine.name] = startd
        self._update_free(startd)
        self.ctx.obs.instant(
            "condor.startd-join", track="condor", machine=machine.name,
            cores=machine.cores,
        )
        self._wake_negotiator()
        return startd

    def remove_machine(self, name: str, drain: bool = True) -> SimEvent:
        """Remove a machine; returns an event firing once it is gone.

        ``drain=True`` lets running jobs finish; ``drain=False`` evicts them
        (they go back to idle and are rematched elsewhere).
        """
        startd = self.startds.get(name)
        if startd is None:
            raise CondorError(f"machine {name!r} not in pool")
        done = self.ctx.sim.event()
        if drain:
            drained = startd.drain()

            def _finish(_ev: SimEvent) -> None:
                self.startds.pop(name, None)
                self._free.pop(name, None)
                self.ctx.obs.instant(
                    "condor.startd-leave", track="condor", machine=name
                )
                done.succeed(name)

            if drained.processed:
                _finish(drained)
            else:
                drained.callbacks.append(_finish)
        else:
            startd.draining = True
            startd.evict_all()
            self.startds.pop(name, None)
            self._free.pop(name, None)
            self.ctx.obs.instant(
                "condor.startd-leave", track="condor", machine=name, evicted=True
            )
            done.succeed(name)
        return done

    # -- submission ------------------------------------------------------------
    def submit(
        self,
        cpu_work: float,
        owner: str = "nobody",
        io_work: float = 0.0,
        req_memory_gb: float = 0.0,
        requirements: Optional[Requirements] = None,
        rank: Optional[Rank] = None,
        on_complete: Optional[Callable[[CondorJob], None]] = None,
        cause: Optional[int] = None,
    ) -> CondorJob:
        if cpu_work < 0 or io_work < 0:
            raise CondorError("cpu_work/io_work must be >= 0")
        job = self.schedd.submit(
            dict(
                owner=owner,
                cpu_work=cpu_work,
                io_work=io_work,
                req_memory_gb=req_memory_gb,
                requirements=requirements,
                rank=rank,
                on_complete=on_complete,
            ),
            self.ctx,
        )
        obs = self.ctx.obs
        if obs.enabled:
            # ``cause`` names the submitter's span (a Galaxy job, a WaaS
            # workflow) so the queue-wait interval is causally reachable
            # from the operation that provoked it
            job.wait_span_id = obs.start(
                "condor.wait",
                track=f"condor/job-{job.id}",
                cause=cause,
                job=job.id,
                owner=owner,
            ).id
            obs.counter("condor.submits").inc()
        self._wake_negotiator()
        return job

    def when_done(self, job: CondorJob) -> SimEvent:
        assert job.completed is not None
        return job.completed

    def remove_job(self, job: CondorJob) -> None:
        """``condor_rm``: drop a queued job, or kill a running one."""
        if job.state in (JobState.COMPLETED, JobState.REMOVED):
            raise CondorError(f"job {job.id} is already {job.state.value}")
        was_running = job.state == JobState.RUNNING
        job.state = JobState.REMOVED
        self.schedd._job_left_queue(job)
        job.end_time = self.ctx.now
        if was_running:
            for startd in self.startds.values():
                for slot, running in list(startd.busy.items()):
                    if running is job:
                        startd._abort(slot, job, self)
        else:
            # idle: the running case closes its spans on interrupt delivery
            self.ctx.obs.finish_open(
                f"condor/job-{job.id}", status="cancelled", error="condor_rm"
            )

    # -- stats -------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self.schedd.idle_count()

    def queue_depth_of(self, owner: str) -> int:
        """Idle jobs queued by one owner (per-tenant backlog view)."""
        return self.schedd.idle_count_of(owner)

    @property
    def idle_work(self) -> float:
        """Backlogged cpu+io work (m1.small-seconds) awaiting a match."""
        return self.schedd.idle_work

    @property
    def running_count(self) -> int:
        return sum(len(s.busy) for s in self.startds.values())

    @property
    def total_slots(self) -> int:
        return sum(s.machine.cores for s in self.startds.values() if not s.draining)

    @property
    def total_cpu_capacity(self) -> float:
        """m1.small-seconds of work the pool retires per simulated second."""
        return sum(
            s.machine.cores * s.machine.cpu_factor
            for s in self.startds.values()
            if not s.draining
        )

    def machine_names(self) -> list[str]:
        return sorted(self.startds)

    def _job_finished(self, job: CondorJob) -> None:
        self.usage_by_owner[job.owner] = (
            self.usage_by_owner.get(job.owner, 0.0) + job.cpu_work + job.io_work
        )
        self.schedd._changed_owners[job.owner] = None  # its usage key moved
        # A slot freed up: try to match the next idle job right away.
        self._wake_negotiator()

    # -- negotiation --------------------------------------------------------------
    def _update_free(self, startd: Startd) -> None:
        """Re-index one machine after its slot occupancy changed."""
        name = startd.machine.name
        if startd.free_slots > 0 and name in self.startds:
            self._free[name] = startd
        else:
            self._free.pop(name, None)

    def shutdown(self) -> None:
        self._stopped = True
        self._wake_negotiator()

    def _wake_negotiator(self) -> None:
        # The negotiator is callback-driven (no resident process): a wake
        # arms one LAZY event, which defers the cycle until every
        # ordinary event at this timestamp has drained, so a burst of
        # same-time completions and submissions coalesces into a single
        # negotiation cycle (the armed flag makes the extra kicks free).
        if self._wake_armed or self._stopped:
            return
        self._wake_armed = True
        ev = SimEvent(self.ctx.sim)
        ev.callbacks.append(self._on_wake)
        ev.succeed(priority=LAZY)

    def _on_wake(self, _ev: SimEvent) -> None:
        self._wake_armed = False
        if not self._stopped:
            self._run_cycle()

    def _run_cycle(self) -> None:
        self._negotiation_cycle()
        if not self.schedd.has_idle():
            # Nothing to retry: no timer, so an idle simulation can drain
            # to completion (a pending tick finds no due time and dies).
            self._tick_due = None
            self.stalled = False
        elif not self._has_capacity():
            # Idle work but no slot that could ever take it: ticking
            # would spin forever.  Stall until add_machine kicks a cycle.
            self._tick_due = None
            if not self.stalled:
                self.stalled = True
                self.ctx.obs.instant(
                    "condor.stalled", track="condor", idle=self.schedd.idle_count()
                )
        else:
            # Unmatched work pending: retry one interval after this
            # cycle, or earlier on a submission/join/slot-free kick.
            self.stalled = False
            self._tick_due = self.ctx.now + self.interval
            if not self._tick_pending:
                self._arm_tick(self._tick_due)

    def _has_capacity(self) -> bool:
        """Some non-draining machine has a slot (free now or later)."""
        if self._free:
            return True
        return any(
            not s.draining and s.machine.cores > 0 for s in self.startds.values()
        )

    def _arm_tick(self, when: float) -> None:
        # The tick wakes the negotiator through the LAZY wake, so the
        # cycle still runs after every ordinary event of its timestamp.
        self._tick_pending = True
        self.ctx.sim.call_at(when, self._tick)

    def _tick(self) -> None:
        # The single pending tick: kicks since it was armed moved the
        # due time later, so either retry now or re-arm for the due time.
        self._tick_pending = False
        obs = self.ctx.obs
        if obs.enabled:
            obs.counter("condor.ticks").inc()
        due = self._tick_due
        if due is None or self._stopped:
            return
        if self.ctx.now >= due:
            self._wake_negotiator()
        else:
            self._arm_tick(due)

    def _refresh_owner_index(self) -> None:
        """Re-push the index entries of owners whose key may have moved."""
        changed = self.schedd._changed_owners
        if not changed:
            return
        usage = self.usage_by_owner
        heap = self._owner_heap
        live = self._owner_entry
        schedd = self.schedd
        for owner in changed:
            head = next(iter(schedd.iter_idle_of(owner)), None)
            if head is None:
                live.pop(owner, None)
                continue
            entry = (usage.get(owner, 0.0), head.submit_time, head.id, owner)
            if live.get(owner) != entry:
                live[owner] = entry
                heappush(heap, entry)
        changed.clear()
        if len(heap) > 2 * len(live):  # stale entries outnumber live owners
            heap[:] = live.values()
            heapify(heap)

    def _match_order(self):
        """Idle jobs in fair-share order, lazily, from the owner index.

        The order is a stable sort of the (submit_time, id)-ordered idle
        queue on accumulated usage, i.e. ascending (usage, submit_time,
        id).  Owners are popped from the persistent index only as the
        scan reaches them; a popped owner's later jobs follow through a
        small per-cycle cursor heap.  Popped owners are marked changed,
        so the next refresh re-pushes them with their new head — claimed
        or not.  An early break on slot exhaustion never touches the
        owners further down the index.
        """
        self._refresh_owner_index()
        heap = self._owner_heap
        live = self._owner_entry
        changed = self.schedd._changed_owners
        iter_idle_of = self.schedd.iter_idle_of
        pops = self.ctx.obs.counter("condor.owner_index_pops")
        cursors: list = []  # (usage, submit_time, id, job, owner's iterator)
        while True:
            while heap and live.get(heap[0][3]) is not heap[0]:
                heappop(heap)  # stale: that owner's key moved on
                pops.inc()
            if heap and (not cursors or heap[0] < cursors[0]):
                used, _t, _id, owner = heappop(heap)
                pops.inc()
                del live[owner]
                changed[owner] = None
                jobs = iter(iter_idle_of(owner))
                job = next(jobs)
            elif cursors:
                used, _t, _id, job, jobs = heappop(cursors)
            else:
                return
            # Live views, no copies: the cycle defers its queue removals
            # until the scan is over, so the buckets do not change under
            # the iterators.
            yield job
            nxt = next(jobs, None)
            if nxt is not None:
                heappush(cursors, (used, nxt.submit_time, nxt.id, nxt, jobs))

    def _negotiation_cycle(self) -> None:
        obs = self.ctx.obs
        if obs.enabled:
            obs.counter("condor.negotiation_cycles").inc()
        if not self._free:
            return  # every slot is claimed; nothing can match
        idle = self._match_order() if self.fair_share else self.schedd.iter_idle()
        matched = 0
        claims: list[tuple[Startd, int, int, CondorJob, float]] = []
        for job in idle:
            # the free-slot check tolerates entries staled by a drain;
            # one fused pass picks the best-ranked candidate (first wins
            # ties, matching max() over the old materialized list)
            best = None
            best_key = None
            for s in self._free.values():
                if s.free_slots > 0 and job.matches(s.machine):
                    key = (job.rank_of(s.machine), -len(s.busy), s.machine.name)
                    if best is None or key > best_key:
                        best = s
                        best_key = key
            if best is None:
                continue
            slot, token, finish = best.claim(job, self)
            claims.append((best, slot, token, job, finish))
            matched += 1
            if not self._free:
                break  # the cycle consumed the last free slot: stop pulling
        if matched:
            # The scan iterated live queue views; now that it is over,
            # retire the claimed jobs from the idle queue in one pass.
            # Each claim's completion timer is staged in match order.
            schedd = self.schedd
            call_at = self.ctx.sim.call_at
            for startd, slot, token, job, finish in claims:
                schedd._job_left_queue(job)
                call_at(finish, startd._finish_job, slot, token, job, self)
        if obs.enabled:
            if matched:
                obs.instant("condor.negotiate", track="condor", matched=matched)
                obs.counter("condor.matches").inc(matched)
            # gauge samples at every negotiation cycle: the Fig. 11
            # utilization/backlog curves straight from the trace
            slots = self.total_slots
            running = self.running_count
            obs.series("condor.pool_utilization").record(
                running / slots if slots else 0.0
            )
            obs.series("condor.idle_jobs").record(self.schedd.idle_count())
            obs.series("condor.running_jobs").record(running)
