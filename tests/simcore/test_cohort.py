"""Cohort events: unit contracts plus differential fuzzing.

The contract under test is the one ``repro.simcore.cohort`` documents:
registering N timers as one cohort changes how the producer schedules
them, never what the simulation computes.  The fuzz suite drives randomly
interleaved cohorts and plain timers, and demands the same member
application trace, ``events_processed`` and ``peak_queue_depth`` as the
same program with every cohort member registered as a plain
``sim.timeout`` in index order.
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
    """Execute a mixed cohort/timer program; return its observable state.

    ``as_timers=True`` is the reference: each cohort becomes one
    ``sim.timeout`` per member, registered in index order, plus a done
    event succeeded after the last member — what the cohort does
    internally, spelled out with the kernel's plain API.

    ``chained=True`` makes every cohort member schedule a follow-up timer,
    exercising depth accounting while members fan out new work.
    """
    sim = Simulator()
    trace: list[tuple] = []
    dones = []
    for idx, (kind, delays) in enumerate(program):
        if kind == "cohort":

            def member(k, idx=idx):
                trace.append((sim.now, "member", idx, k))
                if chained:
                    ev = sim.timeout(0.25)
                    ev.callbacks.append(
                        lambda e, idx=idx, k=k: trace.append(
                            (sim.now, "chained", idx, k)
                        )
                    )

            if as_timers:
                done = sim.event()
                remaining = [len(delays)]
                if not delays:
                    done.succeed()

                def fire(_ev, k, done=done, remaining=remaining, member=member):
                    member(k)
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        done.succeed()

                for k, delay in enumerate(delays):
                    sim.timeout(delay).callbacks.append(
                        lambda ev, k=k, fire=fire: fire(ev, k)
                    )
                dones.append(done)
            else:

                def apply(cohort, start, stop, member=member):
                    for k in range(start, stop):
                        member(k)

                cohort = sim.schedule_cohort(list(delays), apply, layer=f"l{idx % 3}")
                dones.append(cohort.done)
        else:
            for j, delay in enumerate(delays):
                ev = sim.timeout(delay)
                ev.callbacks.append(
                    lambda e, idx=idx, j=j: trace.append((sim.now, "timer", idx, j))
                )
    sim.run()
    assert all(d.triggered for d in dones)
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
    """Same equivalence when every member's apply schedules new work."""
    reference = _run_program(program, as_timers=True, chained=True)
    assert _run_program(program, chained=True) == reference


# ---------------------------------------------------------------------------
# Unit contracts
# ---------------------------------------------------------------------------

#: the two forms producers hand fire times in, which take different
#: registration branches: a sequence of Python scalars, one per timer
#: (Condor ticks, GridFTP chunk plans) or a float64 cohort vector
#: (``EventCohort`` itself calls ``tolist()`` on it before checking)
TIME_FORMS = {
    "scalar": list,
    "cohort": lambda times: np.asarray(times, dtype=np.float64),
}


@pytest.fixture(params=list(TIME_FORMS))
def form(request):
    return TIME_FORMS[request.param]


def test_members_apply_in_index_order(form):
    sim = Simulator()
    seen = []
    cohort = sim.schedule_cohort(
        form([1.0, 1.0, 1.0, 2.0]),
        lambda c, i, j: seen.extend(range(i, j)),
    )
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert cohort.done.triggered
    assert cohort.done.value is cohort
    assert sim.events_processed == 5  # 4 members + the done event


def test_empty_cohort_done_fires_without_running(form):
    sim = Simulator()
    cohort = sim.schedule_cohort(form([]), lambda c, i, j: pytest.fail("no members"))
    assert cohort.done.triggered
    assert cohort.size == 0
    sim.run()
    assert sim.events_processed == 1  # only the done event itself


def test_past_fire_time_rejected(form):
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError, match="in the past"):
        sim.schedule_cohort(form([4.0]), lambda c, i, j: None)


def test_rejected_registration_stages_no_members():
    """A bad time anywhere rejects the whole cohort, leaving no orphans."""
    sim = Simulator()
    applied = []
    with pytest.raises(ValueError, match="in the past"):
        sim.schedule_cohort(
            [5.0, 5.0, -1.0], lambda c, i, j: applied.extend(range(i, j))
        )
    sim.run()
    assert applied == []
    assert sim.events_processed == 0
    assert sim.queue_depth == 0


def test_registration_depth_counts_members_not_entries(form):
    sim = Simulator()
    sim.schedule_cohort(form([1.0] * 8), lambda c, i, j: None)
    assert sim.queue_depth == 8
    sim.run()
    assert sim.events_processed == 9  # 8 members + the done event


def test_times_property_normalizes_lazily():
    sim = Simulator()
    cohort = sim.schedule_cohort([1.0, 2.0], lambda c, i, j: None)
    assert isinstance(cohort.times, np.ndarray)
    assert cohort.times.dtype == np.float64
    assert cohort.times.tolist() == [1.0, 2.0]
    sim.run()


def test_done_awaitable_from_process(form):
    sim = Simulator()
    got = []

    def waiter():
        cohort = sim.schedule_cohort(form([1.0, 2.0]), lambda c, i, j: None)
        value = yield cohort.done
        got.append((value, sim.now))

    sim.process(waiter())
    sim.run()
    assert len(got) == 1
    assert got[0][1] == 2.0


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def _metered_sim():
    sim = Simulator()
    rec = ObsRecorder(label="cohort-test", clock=lambda: sim.now)
    sim.obs = rec
    return sim, rec


def test_records_per_member_layer_counter():
    sim, rec = _metered_sim()
    sim.schedule_cohort([1.0, 1.0, 2.0], lambda c, i, j: None, layer="condor.tick")
    sim.run()
    assert rec.metrics.counter("cohort.events.condor.tick").value == 3


def test_obs_does_not_change_simulation_results(form):
    def scenario(sim):
        seen = []
        sim.schedule_cohort(
            form([1.0, 1.0, 2.0]), lambda c, i, j: seen.extend(range(i, j))
        )
        sim.run()
        return seen, sim.events_processed, sim.peak_queue_depth, sim.now

    plain = Simulator()
    metered, _rec = _metered_sim()
    assert scenario(plain) == scenario(metered)
