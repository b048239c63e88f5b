"""Interaction profiles and the derivative perturbation they induce."""

import numpy as np
import pytest

from gpsol.errors import ConfigurationError, SingularityError
from gpsol.grid_field import build_grid
from gpsol.inhomogeneity import (
    make_generic,
    make_homogeneous,
    make_inverse_square,
)


@pytest.fixture
def grid():
    return build_grid(-150.0, 150.0, 2049)


def test_inverse_square_values(grid):
    p = make_inverse_square(1.0, -200.0, grid)
    assert p.g(0.0) == pytest.approx(1.0 / 40000.0, rel=1e-15)
    assert p.inv_sqrt_g(0.0) == pytest.approx(200.0, rel=1e-15)
    # w = -200 + x is negative on the whole grid; 1/sqrt(g) must be |w|
    assert np.all(p.inv_sqrt_g(grid.x) > 0.0)
    assert p.g(100.0) == pytest.approx(1.0e-4, rel=1e-13)


def test_inverse_square_coefficients(grid):
    p = make_inverse_square(1.0, -200.0, grid)
    x = grid.x
    w = -200.0 + x
    # coefficient of du/dx collapses to C/w, no branch on the sign of w
    assert np.max(np.abs(p.advection_coef(x) * w - 1.0)) < 1e-13
    assert np.all(p.potential_coef(x) == 0.0)
    # 1/g = w^2, so its second derivative is the constant 2 C^2
    assert np.max(np.abs(p.second_derivative_inv_g(x) - 2.0)) < 1e-13


def test_inverse_square_positive_branch():
    grid = build_grid(-150.0, 150.0, 257)
    p = make_inverse_square(-1.0, -200.0, grid)  # w = -200 - x < 0 everywhere
    assert p.advection_coef(0.0) == pytest.approx(-1.0 / -200.0, rel=1e-14)
    q = make_inverse_square(1.0, 200.0, grid)  # w = 200 + x > 0 everywhere
    assert q.advection_coef(0.0) == pytest.approx(1.0 / 200.0, rel=1e-14)


def test_inverse_square_rejects_interior_singularity(grid):
    with pytest.raises(SingularityError):
        make_inverse_square(1.0, -100.0, grid)  # singular at x = 100
    with pytest.raises(ConfigurationError):
        make_inverse_square(0.0, 0.0, grid)


def test_homogeneous_profile():
    p = make_homogeneous(2.0)
    x = np.linspace(-5.0, 5.0, 11)
    assert np.all(p.g(x) == 2.0)
    assert np.all(p.advection_coef(x) == 0.0)
    assert np.all(p.potential_coef(x) == 0.0)
    assert p.contains(-1e9, 1e9)
    with pytest.raises(ConfigurationError):
        make_homogeneous(0.0)
    with pytest.raises(ConfigurationError):
        make_homogeneous(-1.0)


def test_generic_profile_matches_closed_forms():
    # g = exp(x^2/2): 1/sqrt(g) = exp(-x^2/4), so the perturbation
    # coefficients are -x/2 and x^2/4 - 1/2 in closed form.
    h = lambda x: np.exp(-0.25 * np.asarray(x) ** 2)
    p = make_generic(
        fn_g=lambda x: np.exp(0.5 * np.asarray(x) ** 2),
        fn_inv_sqrt_g=h,
        fn_d1_inv_sqrt_g=lambda x: -0.5 * np.asarray(x) * h(x),
        fn_d2_inv_sqrt_g=lambda x: (0.25 * np.asarray(x) ** 2 - 0.5) * h(x),
        x_lo=-6.0, x_hi=6.0,
    )
    x = np.linspace(-5.0, 5.0, 41)
    assert np.max(np.abs(p.advection_coef(x) + 0.5 * x)) < 1e-13
    assert np.max(np.abs(p.potential_coef(x) - (0.25 * x * x - 0.5))) < 1e-13


def test_generic_profile_validation():
    ones = lambda x: np.ones_like(np.asarray(x, dtype=np.float64))
    with pytest.raises(ConfigurationError):
        make_generic(ones, ones, ones, "not-callable", -1.0, 1.0)
    with pytest.raises(ConfigurationError):
        make_generic(ones, ones, ones, ones, 1.0, -1.0)
    negative = lambda x: -ones(x)
    with pytest.raises(ConfigurationError):
        make_generic(negative, ones, ones, ones, -1.0, 1.0)
