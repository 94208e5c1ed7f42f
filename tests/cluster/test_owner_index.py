"""The negotiator's persistent fair-share owner index, its single pending
tick, the stalled state of a capacity-less pool, and exact idle backlog.

The index must reproduce the stable-sort specification
(:func:`fair_share_reference`) through every queue mutation, and one
cycle must pop O(stale + matches) index entries, not O(idle owners).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CondorPool, JobState, MachineAd
from repro.simcore import SimContext

from .test_fair_share import fair_share_reference


def _machine(name, cores=1, speed=1.0):
    return MachineAd(name=name, cores=cores, memory_gb=8.0, cpu_factor=speed)


class ReferencePool(CondorPool):
    """A pool that matches in the specification's order, re-sorted each cycle."""

    def _match_order(self):
        return iter(fair_share_reference(self))


# -- interleaved operations ------------------------------------------------

OWNERS = [f"u{i}" for i in range(12)]

op_st = st.one_of(
    st.tuples(
        st.just("submit"),
        st.sampled_from(OWNERS),
        st.sampled_from([1.0, 2.5, 4.0, 7.0]),
        st.integers(min_value=1, max_value=3),
    ),
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 1.0, 3.0, 8.0])),
    st.tuples(st.just("evict"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("rm_idle"), st.integers(min_value=0, max_value=99)),
    st.tuples(st.just("rm_running"), st.integers(min_value=0, max_value=99)),
    st.tuples(
        st.just("join"),
        st.integers(min_value=1, max_value=2),
        st.sampled_from([1.0, 2.0]),
    ),
)


def apply_op(ctx, pool, op, joined):
    """Apply one operation; ``joined`` counts machines ever added."""
    kind = op[0]
    if kind == "submit":
        _, owner, work, count = op
        for _ in range(count):
            pool.submit(cpu_work=work, owner=owner)
    elif kind == "run":
        ctx.sim.run(until=ctx.now + op[1])
    elif kind == "evict":
        names = pool.machine_names()
        if names:
            pool.remove_machine(names[op[1] % len(names)], drain=False)
    elif kind in ("rm_idle", "rm_running"):
        want = JobState.IDLE if kind == "rm_idle" else JobState.RUNNING
        jobs = [j for j in pool.schedd.jobs.values() if j.state == want]
        if jobs:
            pool.remove_job(jobs[op[1] % len(jobs)])
    elif kind == "join":
        _, cores, speed = op
        pool.add_machine(_machine(f"m{joined}", cores, speed))
        return joined + 1
    return joined


def make_pool(cls=CondorPool):
    ctx = SimContext(seed=51)
    pool = cls(ctx, negotiation_interval_s=5.0)
    pool.add_machine(_machine("m0", cores=2))
    return ctx, pool


def assert_index_invariant(pool):
    """Every owner with idle jobs is either marked changed or holds a live
    entry keyed on its current usage and head job; no other owner does."""
    schedd = pool.schedd
    for owner in schedd.idle_owners():
        if owner in schedd._changed_owners:
            continue
        head = next(iter(schedd.iter_idle_of(owner)))
        want = (pool.usage_by_owner.get(owner, 0.0), head.submit_time, head.id, owner)
        assert pool._owner_entry.get(owner) == want
    stale = set(pool._owner_entry) - set(schedd.idle_owners())
    assert stale <= set(schedd._changed_owners)


@given(ops=st.lists(op_st, min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_property_index_matches_reference_after_every_step(ops):
    ctx, pool = make_pool()
    joined = 1
    for op in ops:
        joined = apply_op(ctx, pool, op, joined)
        assert_index_invariant(pool)
        got = [j.id for j in pool._match_order()]
        assert got == [j.id for j in fair_share_reference(pool)]


@given(ops=st.lists(op_st, min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_property_index_pool_runs_in_lockstep_with_reference_pool(ops):
    """Left alone between cycles, the index matches exactly what the
    re-sorting specification matches: same machines, same times."""
    ctx, pool = make_pool()
    rctx, ref = make_pool(ReferencePool)
    joined = 1
    for op in ops:
        apply_op(rctx, ref, op, joined)
        joined = apply_op(ctx, pool, op, joined)
        got = [
            (j.id, j.state, j.machine_name, j.start_time, j.end_time)
            for j in pool.schedd.jobs.values()
        ]
        want = [
            (j.id, j.state, j.machine_name, j.start_time, j.end_time)
            for j in ref.schedd.jobs.values()
        ]
        assert got == want
        assert pool.usage_by_owner == ref.usage_by_owner
        assert_index_invariant(pool)


def equal_usage_pool():
    """At t=2: owners a and d have usage 1 each; one free machine, m0."""
    ctx = SimContext(seed=59)
    pool = CondorPool(ctx, negotiation_interval_s=5.0)
    pool.add_machine(_machine("m0"))
    pool.add_machine(_machine("m1"))
    pool.submit(cpu_work=1.0, owner="a")
    pool.submit(cpu_work=1.0, owner="d")
    ctx.sim.run(until=1.5)
    pool.remove_machine("m1")
    ctx.sim.run(until=2.0)
    return ctx, pool


def test_requeued_job_retakes_its_owners_index_position():
    """An evicted job re-enters ahead of its owner's indexed head; the
    index must re-key the owner, or an equal-usage rival jumps the queue."""
    ctx, pool = equal_usage_pool()
    a1 = pool.submit(cpu_work=10.0, owner="a")
    d1 = pool.submit(cpu_work=10.0, owner="d")
    a2 = pool.submit(cpu_work=10.0, owner="a")
    ctx.sim.run(until=3.0)  # a1 runs on m0; d stays indexed
    assert a1.machine_name == "m0"
    pool.add_machine(_machine("m2"))
    c1 = pool.submit(cpu_work=10.0, owner="c")
    ctx.sim.run(until=4.0)  # the newcomer c wins m2; a is indexed at a2
    assert c1.machine_name == "m2"
    pool.remove_machine("m0", drain=False)  # a1 back to idle, ahead of a2
    assert_index_invariant(pool)
    assert [j.id for j in pool._match_order()] == [a1.id, d1.id, a2.id]


def test_condor_rm_of_an_indexed_head_rekeys_its_owner():
    """Removing an owner's indexed head job must re-key the owner on its
    next job, or it keeps the removed job's place ahead of a rival."""
    ctx, pool = equal_usage_pool()
    a1 = pool.submit(cpu_work=10.0, owner="a")
    d1 = pool.submit(cpu_work=10.0, owner="d")
    a2 = pool.submit(cpu_work=10.0, owner="a")
    c1 = pool.submit(cpu_work=10.0, owner="c")
    ctx.sim.run(until=3.0)  # the newcomer c takes m0; a and d stay indexed
    assert c1.machine_name == "m0"
    pool.remove_job(a1)
    assert_index_invariant(pool)
    assert [j.id for j in pool._match_order()] == [d1.id, a2.id]


# -- work counter: a cycle pops O(stale + matches), not O(owners) ----------


def test_cycle_pops_track_matches_not_idle_owners():
    ctx = SimContext(seed=52, obs=True)
    pool = CondorPool(ctx, negotiation_interval_s=5.0)
    pool.add_machine(_machine("m", cores=1))
    owners = 10_000
    for _ in range(2):
        for i in range(owners):
            pool.submit(cpu_work=10.0, owner=f"t{i:05d}")
    pops = ctx.obs.counter("condor.owner_index_pops")
    cycles = ctx.obs.counter("condor.negotiation_cycles")
    matches = ctx.obs.counter("condor.matches")
    ctx.sim.run(until=1.0)  # the boot cycle indexes every owner, matches one
    assert matches.value == 1
    assert pops.value == 1
    ctx.sim.run(until=95.0)  # nine more completions, each freeing the slot
    assert matches.value == 10
    # each match pops its own entry; a served owner is re-keyed on its
    # second job and new usage, and is not reached while others have less
    assert pops.value <= 2 * matches.value
    assert cycles.value >= matches.value
    assert len(pool._owner_heap) <= 2 * owners
    assert pool.queue_depth == 2 * owners - 10


# -- one pending tick -------------------------------------------------------


def test_kicks_do_not_multiply_pending_ticks():
    """Every completion kicks a cycle; the retry timer stays single."""
    ctx = SimContext(seed=53, obs=True)
    pool = CondorPool(ctx, negotiation_interval_s=5.0)
    pool.add_machine(_machine("m", cores=1))
    jobs = [pool.submit(cpu_work=1.0, owner="a") for _ in range(200)]
    ctx.sim.run()
    assert all(j.state == JobState.COMPLETED for j in jobs)
    metrics = ctx.obs.metrics
    ticks = metrics.counter("condor.ticks").value
    # 200 cycles (one per completion) but one tick per elapsed interval,
    # plus at most one re-arm each
    assert ctx.obs.counter("condor.negotiation_cycles").value >= 200
    assert 0 < ticks <= 2 * (ctx.now / pool.interval) + 2


def test_tick_retries_an_unmatched_job_one_interval_after_the_last_cycle():
    ctx = SimContext(seed=54)
    pool = CondorPool(ctx, negotiation_interval_s=5.0)
    pool.add_machine(_machine("small", cores=2))
    big = pool.submit(cpu_work=1.0, owner="a")
    big.req_memory_gb = 16.0  # nothing fits yet
    ctx.sim.run(until=2.0)
    pool.submit(cpu_work=10.0, owner="b")  # a kick at t=2 moves the due time
    ctx.sim.run(until=3.5)
    pool.startds["small"].machine.memory_gb = 32.0  # no kick: wait for the tick
    ctx.sim.run(until=6.9)
    assert big.state == JobState.IDLE  # the t=5 tick was re-armed, not run
    ctx.sim.run(until=7.1)
    assert big.state == JobState.RUNNING and big.start_time == 7.0


# -- stalled: idle work and no slot to run it -------------------------------


def test_capacity_less_pool_stalls_instead_of_ticking_forever():
    ctx = SimContext(seed=55, obs=True)
    pool = CondorPool(ctx, negotiation_interval_s=5.0)
    jobs = [pool.submit(cpu_work=3.0, owner=o) for o in ("a", "b", "a")]
    ctx.sim.run()  # unbounded: must return
    assert pool.stalled
    assert all(j.state == JobState.IDLE for j in jobs)
    assert [i["name"] for i in ctx.obs.instants] == ["condor.stalled"]
    pool.add_machine(_machine("m", cores=1))
    ctx.sim.run()
    assert not pool.stalled
    assert all(j.state == JobState.COMPLETED for j in jobs)


def test_draining_only_pool_stalls_then_recovers_on_join():
    ctx = SimContext(seed=56)
    pool = CondorPool(ctx, negotiation_interval_s=5.0)
    pool.add_machine(_machine("old", cores=1))
    jobs = [pool.submit(cpu_work=4.0, owner="a") for _ in range(3)]
    ctx.sim.run(until=1.0)
    pool.remove_machine("old", drain=True)
    ctx.sim.run()
    assert pool.stalled
    assert [j.state for j in jobs] == [
        JobState.COMPLETED, JobState.IDLE, JobState.IDLE
    ]
    pool.add_machine(_machine("new", cores=2))
    ctx.sim.run()
    assert not pool.stalled
    assert all(j.state == JobState.COMPLETED for j in jobs)


# -- exact idle backlog -------------------------------------------------------

work_st = st.sampled_from([0.1, 0.2, 0.3, 1e16, 1.0, 1e-3, 3.0, 0.7])

backlog_op_st = st.one_of(
    st.tuples(st.just("submit"), work_st, work_st),
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.05, 0.5, 2.0])),
    st.tuples(st.just("evict"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("rm_idle"), st.integers(min_value=0, max_value=99)),
    st.tuples(st.just("rm_running"), st.integers(min_value=0, max_value=99)),
    st.tuples(st.just("join"), st.integers(min_value=1, max_value=2)),
)


def assert_backlog_exact(pool):
    idle = [j for j in pool.schedd.jobs.values() if j.state == JobState.IDLE]
    assert pool.idle_work == math.fsum(j.cpu_work + j.io_work for j in idle)
    if not idle:
        assert pool.idle_work == 0.0


@given(ops=st.lists(backlog_op_st, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_property_idle_work_is_exact_through_claim_evict_and_rm(ops):
    ctx = SimContext(seed=57)
    pool = CondorPool(ctx, negotiation_interval_s=5.0)
    joined = 0
    for op in ops:
        kind = op[0]
        if kind == "submit":
            # tiny cpu_work keeps 1e16-work jobs short enough to finish
            pool.submit(cpu_work=op[1] * 1e-17, io_work=op[2], owner="o")
        elif kind == "join":
            pool.add_machine(
                MachineAd(
                    name=f"m{joined}", cores=op[1], memory_gb=8.0,
                    cpu_factor=1.0, io_factor=1e17,
                )
            )
            joined += 1
        else:
            apply_op(ctx, pool, op, joined)
        assert_backlog_exact(pool)


def test_idle_work_returns_to_exact_zero():
    """0.1 + 0.2 - 0.1 - 0.2 is not 0.0 in floats; the backlog must be."""
    ctx = SimContext(seed=58)
    pool = CondorPool(ctx, negotiation_interval_s=5.0)
    jobs = [pool.submit(cpu_work=w, owner="o") for w in (0.1, 0.2, 1e16, 0.3)]
    assert pool.idle_work == math.fsum(j.cpu_work for j in jobs)
    for job in (jobs[2], jobs[0], jobs[3], jobs[1]):
        pool.remove_job(job)
        assert_backlog_exact(pool)
    assert pool.idle_work == 0.0
