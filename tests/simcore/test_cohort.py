"""Timer cohorts: ``call_at`` fan-outs, unit contracts plus differential fuzzing.

``call_at(when, fn, *args)`` is the kernel's one timer primitive; a
producer with a cohort of timers (Condor completions, GridFTP slices,
EC2 boots, WaaS arrivals) schedules one entry per member in a loop.  The
fuzz suite drives randomly interleaved fan-outs and plain timeouts, and
demands the same callback trace, ``events_processed`` and
``peak_queue_depth`` as the same program with every fan-out member
registered as a plain ``sim.timeout`` in index order.  Collision-rich
delays keep same-timestamp interleaving covered.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import ObsRecorder
from repro.simcore import Simulator

#: collision-rich delay grid: repeated values force same-timestamp runs
DELAY_GRID = (0.0, 0.25, 0.25, 0.25, 0.5, 1.0, 1.0, 2.0)

PROGRAM = st.lists(
    st.tuples(
        st.sampled_from(["cohort", "timers"]),
        st.lists(st.sampled_from(DELAY_GRID), min_size=0, max_size=10),
    ),
    min_size=1,
    max_size=8,
)


def _run_program(program, as_timers: bool = False, chained: bool = False):
    """Execute a mixed fan-out/timer program; return its observable state.

    A cohort schedules ``call_at(now + delay, member, idx, k)`` per
    member.  ``as_timers=True`` is the reference: each member becomes
    one ``sim.timeout(delay)`` with a callback, registered in index order.

    ``chained=True`` makes every member schedule a follow-up timer a
    quarter second later (the same primitive as the member itself),
    exercising registration at a non-zero clock and depth accounting
    while members fan out new work.
    """
    sim = Simulator()
    trace: list[tuple] = []

    def schedule(delay, fn, *args):
        if as_timers:
            sim.timeout(delay).callbacks.append(lambda _ev: fn(*args))
        else:
            sim.call_at(sim.now + delay, fn, *args)

    def follow_up(idx, k):
        trace.append((sim.now, "chained", idx, k))

    def member(idx, k):
        trace.append((sim.now, "member", idx, k))
        if chained:
            schedule(0.25, follow_up, idx, k)

    for idx, (kind, delays) in enumerate(program):
        if kind == "cohort":
            for k, delay in enumerate(delays):
                schedule(delay, member, idx, k)
        else:
            for j, delay in enumerate(delays):
                ev = sim.timeout(delay)
                ev.callbacks.append(
                    lambda e, idx=idx, j=j: trace.append((sim.now, "timer", idx, j))
                )
    sim.run()
    return trace, sim.events_processed, sim.peak_queue_depth


@given(program=PROGRAM)
@settings(max_examples=60, deadline=None)
def test_differential_fuzz_cohorts_match_plain_timers(program):
    """Trace/counters/depth identical to one plain timeout per member."""
    reference = _run_program(program, as_timers=True)
    assert _run_program(program) == reference


@given(program=PROGRAM)
@settings(max_examples=30, deadline=None)
def test_differential_fuzz_with_scheduling_applies(program):
    """Same equivalence when every member schedules new work."""
    reference = _run_program(program, as_timers=True, chained=True)
    assert _run_program(program, chained=True) == reference


# ---------------------------------------------------------------------------
# Unit contracts
# ---------------------------------------------------------------------------

#: the two forms producers compute fire times in: a sequence of Python
#: scalars, one per timer (Condor ticks, GridFTP chunk plans), or a
#: float64 NumPy vector whose elements reach ``call_at`` as ``np.float64``
TIME_FORMS = {
    "scalar": list,
    "cohort": lambda times: np.asarray(times, dtype=np.float64),
}


@pytest.fixture(params=list(TIME_FORMS))
def form(request):
    return TIME_FORMS[request.param]


def _fan_out(sim, times, fn):
    """One ``call_at(when, fn, k)`` per member; the entry events in order."""
    return [sim.call_at(when, fn, k) for k, when in enumerate(times)]


def test_members_apply_in_index_order(form):
    sim = Simulator()
    seen = []
    _fan_out(sim, form([1.0, 1.0, 1.0, 2.0]), seen.append)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.events_processed == 4  # one entry per member, nothing else


def test_past_fire_time_rejected(form):
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError, match="in the past"):
        _fan_out(sim, form([4.0]), lambda k: None)


def test_registration_depth_counts_members_not_entries(form):
    sim = Simulator()
    _fan_out(sim, form([1.0] * 8), lambda k: None)
    assert sim.queue_depth == 8
    sim.run()
    assert sim.events_processed == 8
    assert sim.peak_queue_depth == 8


def test_done_awaitable_from_process(form):
    """The entry event ``call_at`` returns for the last member is a plain
    event a process can wait on."""
    sim = Simulator()
    got = []

    def waiter():
        entries = _fan_out(sim, form([1.0, 2.0]), lambda k: None)
        value = yield entries[-1]
        got.append((value, sim.now))

    sim.process(waiter())
    sim.run()
    assert got == [(None, 2.0)]


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def _metered_sim():
    sim = Simulator()
    rec = ObsRecorder(label="cohort-test", clock=lambda: sim.now)
    sim.obs = rec
    return sim, rec


def test_obs_does_not_change_simulation_results(form):
    def scenario(sim):
        seen = []
        _fan_out(sim, form([1.0, 1.0, 2.0]), seen.append)
        sim.run()
        return seen, sim.events_processed, sim.peak_queue_depth, sim.now

    plain = Simulator()
    metered, _rec = _metered_sim()
    assert scenario(plain) == scenario(metered)
