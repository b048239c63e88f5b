"""Grids, stencils, quadrature."""

import numpy as np
import pytest

from gpsol.errors import ConfigurationError, RangeError
from gpsol.grid_field import (
    ComplexField,
    SpatialGrid,
    build_grid,
    d1_samples,
    d2_samples,
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
    clone = f.copy()
    clone.values[0] = 7.0
    assert f.values[0] == 1.0


def test_first_derivative_exact_on_quartic():
    # the five-point stencils (interior and one-sided) close at degree 4
    g = build_grid(1.0, 2.0, 17)
    f = g.x ** 4 - 3.0 * g.x ** 2 + 2.0
    expected = 4.0 * g.x ** 3 - 6.0 * g.x
    assert np.max(np.abs(d1_samples(f, g.dx) - expected)) < 1e-10


def test_second_derivative_exact_on_quintic():
    g = build_grid(1.0, 2.0, 17)
    f = g.x ** 5 + g.x ** 3
    expected = 20.0 * g.x ** 3 + 6.0 * g.x
    assert np.max(np.abs(d2_samples(f, g.dx) - expected)) < 1e-9


def test_derivatives_fourth_order_convergence():
    errs1, errs2 = [], []
    for n in (201, 401):
        g = build_grid(-1.0, 1.0, n)
        f = np.sin(3.0 * g.x)
        errs1.append(np.max(np.abs(d1_samples(f, g.dx) - 3.0 * np.cos(3.0 * g.x))))
        errs2.append(np.max(np.abs(d2_samples(f, g.dx) + 9.0 * np.sin(3.0 * g.x))))
    assert errs1[0] / errs1[1] > 12.0
    assert errs2[0] / errs2[1] > 12.0


def test_derivatives_handle_complex_fields():
    g = build_grid(-2.0, 2.0, 401)
    f = np.exp(1j * g.x)
    d1 = d1_samples(f, g.dx)
    d2 = d2_samples(f, g.dx)
    assert d1.dtype == d2.dtype == np.complex128
    assert np.max(np.abs(d1 - 1j * f)) < 5e-9
    assert np.max(np.abs(d2 + f)) < 1e-8


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
    i0, i1 = window_indices(g, 0.0, 2.5)
    assert (i0, i1) == (8, 13)
    assert (i1 - i0) % 2 == 1
    with pytest.raises(RangeError):
        window_indices(g, 9.0, 2.0)  # sticks out on the right
    with pytest.raises(RangeError):
        window_indices(g, 0.0, 0.4)  # fewer than three points


def test_window_indices_forces_odd_count():
    g = build_grid(0.0, 10.0, 21)  # dx = 0.5
    i0, i1 = window_indices(g, 5.0, 1.25)
    assert (i1 - i0) % 2 == 1
    x = g.x[i0:i1]
    assert np.all(x >= 5.0 - 1.25 - 1e-12)
    assert np.all(x <= 5.0 + 1.25 + 1e-12)
