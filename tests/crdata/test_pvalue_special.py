"""The moderated t-test's p-values come from ``scipy.special``.

``diffexpr.moderated_t_test`` evaluates ``2*stdtr(df, -|t|)`` and
``2*ndtr(-|t|)`` instead of ``2*stats.t.sf(|t|, df)`` and
``2*stats.norm.sf(|t|)``, so the use-case tool never imports
``scipy.stats``.  These pins hold the swap to the bytes of the old
expressions: finite and infinite prior df (the ``np.isinf(d0)``
branch), t in {0, ±inf, NaN}, and random draws.
"""

import numpy as np
import pytest
from scipy import special, stats

from repro.crdata.engines import diffexpr

EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, 5e-324, 1e300, 40.0])


def _t_values(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    draws = np.concatenate([
        rng.standard_normal(2000),
        rng.standard_t(3, 2000) * 10,
        rng.uniform(-60, 60, 500),
    ])
    return np.concatenate([EDGES, -EDGES, draws])


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("df", [0.5, 1.0, 2.0, 4.0, 6.3, 52.58967513617897 + 2, 1e6])
def test_stdtr_matches_t_sf_byte_for_byte(df, seed):
    t = _t_values(seed)
    a = np.abs(t)
    assert _same_bytes(2.0 * special.stdtr(df, -a), 2.0 * stats.t.sf(a, df))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ndtr_matches_norm_sf_byte_for_byte(seed):
    t = _t_values(seed)
    a = np.abs(t)
    assert _same_bytes(2.0 * special.ndtr(-a), 2.0 * stats.norm.sf(a))


def _stats_p(res, df):
    """The result's p-values as ``scipy.stats`` computes them from its t."""
    a = np.abs(res.t_stat)
    if np.isinf(res.d0):
        return 2.0 * stats.norm.sf(a)
    return 2.0 * stats.t.sf(a, res.d0 + df)


def test_moderated_t_test_p_values_unchanged_finite_prior():
    rng = np.random.default_rng(11)
    values = rng.standard_normal((300, 6))
    values[:10, 3:] += 2.0
    values[20, :] = values[20, 0]           # zero variance: a huge |t|
    values[21, :] = 0.0                     # zero variance and zero fold change
    values[22, 0] = np.nan                  # a NaN probe
    mask = np.array([False, False, False, True, True, True])
    res = diffexpr.moderated_t_test(values, mask)
    assert np.isfinite(res.d0)
    assert _same_bytes(res.p_value, _stats_p(res, df=4))


def test_moderated_t_test_p_values_unchanged_infinite_prior():
    rng = np.random.default_rng(12)
    mask = np.array([False, True, False, True, False, True])
    # every probe has the same within-group spread, so the prior df is
    # infinite and the t statistic is referred to the normal
    values = rng.standard_normal((300, 1)) + np.array([0.0, 1.0, 0.3, 1.4, -0.2, 0.9])
    values[:10][:, mask] += 2.0
    values[22, 0] = np.nan
    res = diffexpr.moderated_t_test(values, mask)
    assert np.isinf(res.d0)
    assert _same_bytes(res.p_value, _stats_p(res, df=4))
