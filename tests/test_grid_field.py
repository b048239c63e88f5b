"""Grids, fields, quadrature, windows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpsol.errors import ConfigurationError, RangeError
from gpsol.grid_field import (
    ComplexField,
    build_grid,
    density,
    simpson,
    window_indices,
)

PI2_OVER_6 = 1.6449340668482264  # integral of x^2 sech^2 x over the real line


def test_grid_basics():
    g = build_grid(-150.0, 150.0, 4097)
    assert g.x.shape == (4097,)
    assert g.x[0] == -150.0
    assert g.x[-1] == 150.0
    assert g.dx == pytest.approx(300.0 / 4096, rel=0, abs=0.0)
    steps = np.diff(g.x)
    assert np.max(np.abs(steps - g.dx)) < 1e-13


def test_grid_x_is_readonly():
    g = build_grid(0.0, 1.0, 17)
    with pytest.raises(ValueError):
        g.x[0] = 5.0


@pytest.mark.parametrize("args", [
    (1.0, 0.0, 17),      # reversed bounds
    (0.0, 1.0, 16),      # even point count
    (0.0, 1.0, 15),      # too few points
    (0.0, 1.0, 2 ** 62 + 1),  # a complex row past numpy's largest array
])
def test_grid_rejects_bad_parameters(args):
    with pytest.raises(ConfigurationError):
        build_grid(*args)


def test_field_validation():
    g = build_grid(0.0, 1.0, 17)
    f = ComplexField(g, np.ones(17))
    assert f.values.dtype == np.complex128
    with pytest.raises(ConfigurationError):
        ComplexField(g, np.ones(16))
    bad = np.ones(17)
    bad[3] = np.nan
    with pytest.raises(ConfigurationError):
        ComplexField(g, bad)


def test_density_is_re2_plus_im2_into_kept_rows():
    rng = np.random.default_rng(3)
    u = rng.normal(size=33) + 1j * rng.normal(size=33)
    expected = u.real ** 2 + u.imag ** 2
    assert np.array_equal(density(u), expected)
    out = np.empty((2, 33))
    dens = density(u, out)
    assert np.shares_memory(dens, out[0])
    assert np.array_equal(dens, expected)


def test_simpson_exact_on_cubic():
    g = build_grid(0.0, 2.0, 21)
    vals = g.x ** 3 - g.x
    assert simpson(vals, g.dx) == pytest.approx(4.0 - 2.0, abs=1e-13)


def test_simpson_localized_integrand():
    g = build_grid(-40.0, 40.0, 2001)
    vals = g.x ** 2 / np.cosh(g.x) ** 2
    assert simpson(vals, g.dx) == pytest.approx(PI2_OVER_6, abs=1e-12)


def test_simpson_rejects_even_sample_count():
    with pytest.raises(ConfigurationError):
        simpson(np.ones(10), 0.1)


def test_window_indices():
    g = build_grid(-10.0, 10.0, 21)
    i0, i1 = window_indices(g, -2.5, 2.5)
    assert (i0, i1) == (8, 13)
    assert (i1 - i0) % 2 == 1
    with pytest.raises(RangeError):
        window_indices(g, 7.0, 11.0)  # sticks out on the right
    with pytest.raises(RangeError):
        window_indices(g, -0.4, 0.4)  # fewer than three points


def test_window_indices_forces_odd_count():
    g = build_grid(0.0, 10.0, 21)  # dx = 0.5
    i0, i1 = window_indices(g, 3.75, 6.25)
    assert (i1 - i0) % 2 == 1
    x = g.x[i0:i1]
    assert np.all(x >= 3.75 - 1e-12)
    assert np.all(x <= 6.25 + 1e-12)
    # [3.25, 10] holds points 7..20: the bottom point goes, the grid's last stays
    assert window_indices(g, 3.25, 10.0) == (8, 21)
    # short of the last point, [3.25, 9] holds 7..18 and the top one goes
    assert window_indices(g, 3.25, 9.0) == (7, 18)


ODD_LENGTHS = st.integers(1, 600).map(lambda k: 2 * k + 1)  # 3 .. 1201


@settings(max_examples=60, deadline=None)
@given(n=ODD_LENGTHS, n_rows=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       dx=st.floats(1e-3, 10.0))
def test_simpson_rows_equal_one_dimensional_rule(n, n_rows, seed, dx):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n_rows, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (n_rows, 1))
    together = simpson(rows, dx)
    assert together.shape == (n_rows,)
    for k in range(n_rows):
        alone = simpson(rows[k], dx)
        assert isinstance(alone, float)
        assert together[k] == alone  # bitwise, not approximately


COEFS = st.floats(-10.0, 10.0)


@settings(max_examples=60, deadline=None)
@given(coefs=st.tuples(COEFS, COEFS, COEFS, COEFS), lo=st.floats(-5.0, 5.0),
       length=st.floats(0.1, 10.0), n=st.integers(8, 200).map(lambda k: 2 * k + 1))
def test_simpson_exact_on_cubics(coefs, lo, length, n):
    a, b, c, d = coefs
    g = build_grid(lo, lo + length, n)
    hi = g.x_max

    def antiderivative(x):
        return a * x ** 4 / 4.0 + b * x ** 3 / 3.0 + c * x ** 2 / 2.0 + d * x

    vals = a * g.x ** 3 + b * g.x ** 2 + c * g.x + d
    span = max(abs(g.x_min), abs(hi))
    scale = (g.x_max - g.x_min) * (abs(a) * span ** 3 + abs(b) * span ** 2
                                   + abs(c) * span + abs(d))
    expected = antiderivative(hi) - antiderivative(g.x_min)
    assert abs(simpson(vals, g.dx) - expected) <= 1e-12 * g.n_points * (scale + 1.0)


@settings(max_examples=100, deadline=None)
@given(x_min=st.floats(-100.0, 100.0), length=st.floats(1.0, 200.0),
       n=st.integers(8, 1000).map(lambda k: 2 * k + 1),
       lo_at=st.floats(0.0, 1.0), hi_at=st.floats(0.0, 1.0))
def test_window_indices_odd_inside_grid_and_equal_to_searchsorted(
        x_min, length, n, lo_at, hi_at):
    g = build_grid(x_min, x_min + length, n)
    lo, hi = (g.x_min + at * (g.x_max - g.x_min) for at in sorted((lo_at, hi_at)))
    if lo < g.x[0] or hi > g.x[-1]:  # rounding pushed the window past an end point
        with pytest.raises(RangeError):
            window_indices(g, lo, hi)
        return
    i0 = int(np.searchsorted(g.x, lo, side="left"))
    i1 = int(np.searchsorted(g.x, hi, side="right"))
    if (i1 - i0) % 2 == 0:  # the grid's last point is never the one dropped
        if i1 == g.n_points:
            i0 += 1
        else:
            i1 -= 1
    if i1 - i0 < 3:
        with pytest.raises(RangeError):
            window_indices(g, lo, hi)
        return
    assert window_indices(g, lo, hi) == (i0, i1)
    assert (i1 - i0) % 2 == 1
    assert 0 <= i0 < i1 <= g.n_points
    assert np.all((g.x[i0:i1] >= lo) & (g.x[i0:i1] <= hi))
