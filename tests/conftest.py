import tracemalloc

import numpy as np
import pytest

from psqrnn import paneldata
from psqrnn.paneldata import PanelDataset


def make_panel(y, z=None, x=None, start_year=2000):
    """Balanced panel from raw arrays; default empty covariate blocks."""
    y = np.asarray(y, dtype=float)
    n, t = y.shape
    z = np.zeros((n, t, 0)) if z is None else np.asarray(z, dtype=float)
    x = np.zeros((n, t, 0)) if x is None else np.asarray(x, dtype=float)
    mask = np.zeros((n, t, 1 + z.shape[2] + x.shape[2]), dtype=bool)
    individuals = tuple(f"i{k}" for k in range(n))
    periods = tuple(range(start_year, start_year + t))
    return PanelDataset(individuals, periods, y, z, x, mask)


def quantile_interval(values, tau):
    """Sort-based sample quantile as a (lo, hi) set.

    The empirical check-loss minimizer is the interval between the two
    bracketing order statistics when n * tau is an integer, and a single
    order statistic otherwise.
    """
    ys = np.sort(np.asarray(values, dtype=float).ravel())
    n = ys.size
    m = n * tau
    k = int(np.floor(m + 1e-9))
    if abs(m - k) < 1e-9 and 1 <= k < n:
        return float(ys[k - 1]), float(ys[k])
    k = int(np.ceil(m - 1e-9))
    return float(ys[k - 1]), float(ys[k - 1])


def interval_distance(value, interval):
    lo, hi = interval
    return max(lo - value, value - hi, 0.0)


@pytest.fixture(params=[1, 3])
def small_blocks(request, monkeypatch):
    """Read and write panel files 1 or 3 rows at a time, so blocks split every panel."""
    monkeypatch.setattr(paneldata, "_BLOCK_ROWS", request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def assert_datasets_equal(a: PanelDataset, b: PanelDataset):
    assert a.individuals == b.individuals
    assert a.periods == b.periods
    assert a.response_name == b.response_name
    assert a.z_names == b.z_names
    assert a.x_names == b.x_names
    assert np.array_equal(a.y, b.y, equal_nan=True)
    assert np.array_equal(a.z, b.z, equal_nan=True)
    assert np.array_equal(a.x, b.x, equal_nan=True)
    assert np.array_equal(a.missing_mask, b.missing_mask)


def traced_peak(call):
    """call()'s result and the peak of the memory it allocated, its result included."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
