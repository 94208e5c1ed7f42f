"""The vectorised CRData engines against their reference formulations.

The references below are the textbook implementations the engines
replaced: Bolstad quantile normalisation through a stable argsort and
explicit ranks, and a top table built as one ``TopTableRow`` per probe
sorted with Python's stable sort.  The fast engines must agree with them
bit for bit, because tool outputs are compared byte for byte on replay.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special, stats

from repro.crdata import USECASE_TOOL_ID, install_crdata_tools
from repro.crdata.engines import diffexpr, normalize
from repro.galaxy import GalaxyApp, JobState
from repro.simcore import SimContext
from repro.workloads import make_four_cel_archive


# -- references --------------------------------------------------------------------


def ref_quantile_normalize(matrix):
    m = np.asarray(matrix, dtype=float)
    order = np.argsort(m, axis=0, kind="stable")
    ranks = np.empty_like(order)
    rows = np.arange(m.shape[0])[:, None]
    np.put_along_axis(ranks, order, rows, axis=0)
    sorted_vals = np.take_along_axis(m, order, axis=0)
    return sorted_vals.mean(axis=1)[ranks]


def ref_benjamini_hochberg(p):
    p = np.asarray(p, dtype=float)
    n = p.size
    order = np.argsort(p)
    ranked = p[order] * n / (np.arange(n) + 1)
    ranked = np.minimum.accumulate(ranked[::-1])[::-1]
    out = np.empty(n)
    out[order] = np.clip(ranked, 0.0, 1.0)
    return out


def ref_prior(s2, df):
    s2 = np.maximum(s2, 1e-12)
    z = np.log(s2)
    e_z = z.mean()
    v_z = z.var(ddof=1) if z.size > 1 else 0.0
    rest = v_z - special.polygamma(1, df / 2.0)
    if rest <= 1e-8:
        return np.inf, float(np.exp(e_z))
    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if special.polygamma(1, mid) > rest:
            lo = mid
        else:
            hi = mid
    d0 = 2.0 * 0.5 * (lo + hi)
    s02 = np.exp(
        e_z + special.digamma(df / 2.0) - np.log(df / 2.0)
        - special.digamma(d0 / 2.0) + np.log(d0 / 2.0)
    )
    return float(d0), float(s02)


def ref_moderated_t_test(m, mask):
    """Returns (rows, d0, s0_sq); rows are (name, logFC, AveExpr, t, p, adj)."""
    m = np.asarray(m, dtype=float)
    n2, n1 = int(mask.sum()), int((~mask).sum())
    names = [f"row_{i}" for i in range(m.shape[0])]
    g1, g2 = m[:, ~mask], m[:, mask]
    log_fc = g2.mean(axis=1) - g1.mean(axis=1)
    df = n1 + n2 - 2
    pooled_var = (
        g1.var(axis=1, ddof=1) * (n1 - 1) + g2.var(axis=1, ddof=1) * (n2 - 1)
    ) / df
    d0, s02 = ref_prior(pooled_var, df)
    if np.isinf(d0):
        post_var = np.full_like(pooled_var, s02)
        df_total = np.inf
    else:
        post_var = (d0 * s02 + df * pooled_var) / (d0 + df)
        df_total = d0 + df
    t = log_fc / np.sqrt(post_var * (1.0 / n1 + 1.0 / n2))
    if np.isinf(df_total):
        p = 2.0 * stats.norm.sf(np.abs(t))
    else:
        p = 2.0 * stats.t.sf(np.abs(t), df_total)
    adj = ref_benjamini_hochberg(p)
    ave = m.mean(axis=1)
    rows = [
        (names[i], float(log_fc[i]), float(ave[i]), float(t[i]), float(p[i]), float(adj[i]))
        for i in range(m.shape[0])
    ]
    rows.sort(key=lambda r: r[4])
    return rows, d0, s02


def _fields(row):
    return (row.name, row.log_fc, row.mean_expr, row.t_stat, row.p_value, row.adj_p_value)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# -- quantile normalisation ----------------------------------------------------------

shapes = st.tuples(st.integers(1, 40), st.integers(1, 8))


@settings(max_examples=150, deadline=None)
@given(hnp.arrays(np.int64, shapes, elements=st.integers(0, 4)))
def test_quantile_normalize_matches_reference_on_tie_heavy_integers(m):
    got = normalize.quantile_normalize(m)
    assert got.flags.c_contiguous
    assert _same_bits(got, ref_quantile_normalize(m))


@settings(max_examples=100, deadline=None)
@given(shapes, st.integers(0, 2**32 - 1), st.booleans())
def test_quantile_normalize_matches_reference_on_tie_free_lognormals(shape, seed, fortran):
    m = np.random.default_rng(seed).lognormal(2.0, 1.0, size=shape)
    if fortran:
        m = np.asfortranarray(m)
    got = normalize.quantile_normalize(m)
    assert got.flags.c_contiguous
    assert _same_bits(got, ref_quantile_normalize(m))


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(np.float64, shapes, elements=st.sampled_from([1.0, 2.5, 3.0, 7.25])),
    st.integers(0, 2**32 - 1),
)
def test_quantile_normalize_matches_reference_on_mixed_tied_columns(m, seed):
    """Some columns tied, some not, F-ordered: only the tied ones take the
    stable sort, and the scatter back must not mix them up."""
    rng = np.random.default_rng(seed)
    free = rng.random(m.shape[1]) < 0.5
    m[:, free] = rng.lognormal(1.0, 0.5, size=(m.shape[0], int(free.sum())))
    m = np.asfortranarray(m)
    got = normalize.quantile_normalize(m)
    assert got.flags.c_contiguous
    assert _same_bits(got, ref_quantile_normalize(m))


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (25, 1)])
def test_quantile_normalize_degenerate_shapes(shape):
    m = np.random.default_rng(0).lognormal(size=shape)
    assert _same_bits(normalize.quantile_normalize(m), ref_quantile_normalize(m))


def test_rma_on_use_case_archive_keeps_row_mean_summation_order():
    """An F-ordered result would change ``mean(axis=1)`` in the last bit."""
    raw = make_four_cel_archive().intensities()
    values = normalize.rma(raw)
    assert values.flags.c_contiguous
    ref = np.log2(ref_quantile_normalize(raw + 16.0))
    assert _same_bits(values.mean(axis=1), ref.mean(axis=1))


# -- top table ----------------------------------------------------------------------


@st.composite
def two_group_designs(draw):
    n1 = draw(st.integers(2, 4))
    n2 = draw(st.integers(2, 4))
    n_probes = draw(st.integers(1, 40))
    if draw(st.booleans()):  # tie-heavy: repeated p-values and variances
        m = draw(
            hnp.arrays(np.float64, (n_probes, n1 + n2),
                       elements=st.sampled_from([5.0, 6.0, 7.0, 8.0]))
        )
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        m = np.random.default_rng(seed).normal(8.0, 1.0, size=(n_probes, n1 + n2))
    mask = np.array([False] * n1 + [True] * n2)
    return m, mask


@settings(max_examples=150, deadline=None)
@given(two_group_designs())
def test_moderated_t_rows_match_reference(design):
    m, mask = design
    with np.errstate(all="ignore"):
        res = diffexpr.moderated_t_test(m, mask)
        rows, d0, s02 = ref_moderated_t_test(m, mask)
    assert [_fields(r) for r in res.rows] == rows
    assert (res.d0, res.s0_sq) == (d0, s02)
    assert [_fields(r) for r in res.top(5)] == rows[:5]
    ref_lines = [diffexpr.TOP_TABLE_HEADER] + [diffexpr.TopTableRow(*r).as_tsv() for r in rows]
    assert res.as_tsv(5) == "\n".join(ref_lines[:6]) + "\n"
    assert res.as_tsv() == "\n".join(ref_lines) + "\n"
    assert [_fields(r) for r in res.significant(0.05)] == [r for r in rows if r[5] <= 0.05]


def test_trigamma_is_polygamma_bit_for_bit():
    x = np.concatenate([np.geomspace(1e-6, 1e6, 400), [0.5, 1.0, 1.5, 2.0, 36.0]])
    assert _same_bits(special.zeta(2, x), special.polygamma(1, x))


# -- work pin -----------------------------------------------------------------------


def test_use_case_job_builds_only_the_rows_it_writes(monkeypatch):
    """affyDifferentialExpression with top_n=50 builds at most 50 row
    objects, not one per probe: an exact, host-independent work count."""
    built = []

    class CountingRow(diffexpr.TopTableRow):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(diffexpr, "TopTableRow", CountingRow)
    ctx = SimContext(seed=9)
    app = GalaxyApp(ctx, job_overheads=(0.0, 0.0))
    install_crdata_tools(app.toolbox)
    app.create_user("pin")
    history = app.create_history("pin", "pin")
    arch = make_four_cel_archive()
    ds = app.upload_data(
        history, "fourCelFileSamples.zip", data=arch.to_bytes(),
        size=arch.declared_size, ext="zip",
    )
    job = app.run_tool("pin", history, USECASE_TOOL_ID, params={"top_n": 50}, inputs=[ds])
    app.ctx.sim.run(until=app.jobs.when_done(job))
    assert job.state == JobState.OK, job.stderr
    assert arch.n_probes == 4000
    assert 0 < len(built) <= 50
