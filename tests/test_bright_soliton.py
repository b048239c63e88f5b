"""Bright soliton ansatz, reduced tiers, and center extraction.

Quadrature expectations frozen from adaptive Gauss-Kronrod integration of
the same integrals (C = 1, D = -200, window half-width 17/(2 eta)).
"""

import numpy as np
import pytest

from gpsol.errors import ExtractionError, ParameterError, RangeError
from gpsol.grid_field import build_grid, density, simpson
from gpsol.inhomogeneity import make_inverse_square
from gpsol import bright_soliton as bright

# (eta, xi, zeta) -> (d eta, d xi, d zeta, d phi) per unit scaled time
FULL_RHS_ORACLE = {
    (0.5, 0.25, 0.0): (-5.000102817259817e-03, -3.333485221789252e-03,
                       -1.000041126903738e+00, -7.499892477023138e-01),
    (0.5, 0.0, 0.0): (0.0, -3.333485221789252e-03, 0.0, -9.999892477023138e-01),
    (0.25, 0.25, 0.0): (-2.500205687841571e-03, -8.334852704393530e-04,
                        -1.000164550273067e+00, 1.076249829532903e-05),
}


@pytest.fixture(scope="module")
def grid():
    return build_grid(-150.0, 150.0, 4097)


@pytest.fixture(scope="module")
def profile(grid):
    return make_inverse_square(1.0, -200.0, grid)


def test_params_validation():
    with pytest.raises(ParameterError):
        bright.BrightSolitonParams(eta=0.0, xi=0.0, zeta=0.0)
    with pytest.raises(ParameterError):
        bright.BrightSolitonParams(eta=-0.5, xi=0.0, zeta=0.0)
    p = bright.BrightSolitonParams(eta=0.5, xi=0.25, zeta=1.0)
    assert p.phi == 0.0


def test_ansatz_shape(grid):
    p = bright.BrightSolitonParams(eta=0.5, xi=0.25, zeta=0.0, phi=0.4)
    f = bright.ansatz(p, grid)
    dens = np.abs(f.values) ** 2
    expected = 4.0 * p.eta ** 2 / np.cosh(2.0 * p.eta * (grid.x - p.zeta)) ** 2
    assert np.max(np.abs(dens - expected)) < 1e-14
    j = np.argmin(np.abs(grid.x))  # zeta = 0 is a grid point
    assert f.values[j] == pytest.approx(1j * np.exp(-1j * 0.4), abs=1e-14)
    # total mass of the ansatz is 4 eta
    assert simpson(dens, grid.dx) == pytest.approx(4.0 * p.eta, rel=1e-12)


def test_full_rhs_against_quadrature_oracle(grid, profile):
    for (eta, xi, zeta), expected in FULL_RHS_ORACLE.items():
        got = bright.rhs_full(
            bright.BrightSolitonParams(eta=eta, xi=xi, zeta=zeta), profile, grid)
        for g_val, e_val in zip(got, expected):
            assert g_val == pytest.approx(e_val, abs=1e-12)


def test_full_rhs_grid_independent(grid, profile):
    other_grid = build_grid(-60.0, 60.0, 1639)
    other_profile = make_inverse_square(1.0, -200.0, other_grid)
    p = bright.BrightSolitonParams(eta=0.5, xi=0.25, zeta=0.0)
    a = bright.rhs_full(p, profile, grid)
    b = bright.rhs_full(p, other_profile, other_grid)
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-11


def test_full_rhs_window_must_fit():
    grid = build_grid(-20.0, 20.0, 641)
    profile = make_inverse_square(1.0, -200.0, grid)
    with pytest.raises(RangeError):
        bright.rhs_full(
            bright.BrightSolitonParams(eta=0.5, xi=0.0, zeta=10.0), profile, grid)


def test_taylor_rhs_closed_form(profile):
    p = bright.BrightSolitonParams(eta=0.5, xi=0.25, zeta=0.0)
    d_eta, d_xi, d_zeta = bright.rhs_taylor(p, profile)
    adv = 1.0 / -200.0
    assert d_eta == pytest.approx(8.0 * 0.5 * 0.25 * adv, rel=1e-14)
    assert d_xi == pytest.approx((8.0 / 3.0) * 0.25 * adv, rel=1e-14)
    assert d_zeta == -4.0 * 0.25


def test_taylor_full_consistency(grid, profile):
    for eta in (0.25, 0.5):
        p = bright.BrightSolitonParams(eta=eta, xi=0.25, zeta=0.0)
        full = bright.rhs_full(p, profile, grid)
        taylor = bright.rhs_taylor(p, profile)
        assert abs(full[1] - taylor[1]) / abs(taylor[1]) < 1e-3


def test_eta_closed_form():
    assert bright.eta_closed_form(-100.0, 0.5, 0.0, 1.0, -200.0) == pytest.approx(
        2.0 / 9.0, rel=1e-14)
    assert bright.eta_closed_form(0.0, 0.5, 0.0, 1.0, -200.0) == 0.5
    zs = np.array([-100.0, 0.0, 100.0])
    vals = bright.eta_closed_form(zs, 0.5, 0.0, 1.0, -200.0)
    assert vals.shape == (3,)
    assert np.all(np.diff(vals) > 0.0)  # amplitude grows toward the singularity
    with pytest.raises(RangeError):
        bright.eta_closed_form(200.0, 0.5, 0.0, 1.0, -200.0)
    with pytest.raises(ParameterError):
        bright.eta_closed_form(0.0, -0.5, 0.0, 1.0, -200.0)


def test_eom_values():
    # center force at the starting point pulls toward the singularity side
    assert bright.eom_rhs(0.0, 0.5, 0.0, 1.0, -200.0) == pytest.approx(
        1.0 / 300.0, rel=1e-14)
    assert bright.effective_potential(0.0, 0.5, 0.0, 1.0, -200.0) == pytest.approx(
        -1.0 / 6.0, rel=1e-14)
    # the well vanishes far from the singularity
    assert abs(bright.effective_potential(-1e6, 0.5, 0.0, 1.0, -200.0)) < 1e-12


@pytest.mark.parametrize("fn", [bright.eta_closed_form, bright.eom_rhs,
                                bright.effective_potential])
def test_pinned_scalar_and_array_inputs(fn):
    # floats (np.float64 included) and 0-d arrays give a float, arrays an array
    for z in (-60.0, np.float64(-60.0), np.asarray(-60.0), -60):
        out = fn(z, 0.5, 0.0, 1.0, -200.0)
        assert type(out) is float
        assert out == fn(-60.0, 0.5, 0.0, 1.0, -200.0)
    zs = np.array([-60.0, 0.0])
    vals = fn(zs, 0.5, 0.0, 1.0, -200.0)
    assert isinstance(vals, np.ndarray)
    assert vals == pytest.approx([fn(z, 0.5, 0.0, 1.0, -200.0) for z in zs], rel=1e-15)
    for singular in (200.0, np.float64(200.0), np.asarray(200.0), np.array([0.0, 200.0])):
        with pytest.raises(RangeError):
            fn(singular, 0.5, 0.0, 1.0, -200.0)


def test_eom_matches_potential_gradient():
    h = 1e-5
    for z in (-60.0, 0.0, 40.0):
        grad = (bright.effective_potential(z + h, 0.5, 0.0, 1.0, -200.0)
                - bright.effective_potential(z - h, 0.5, 0.0, 1.0, -200.0)) / (2 * h)
        assert bright.eom_rhs(z, 0.5, 0.0, 1.0, -200.0) == pytest.approx(
            -grad, abs=1e-10)


def test_extract_center(grid):
    for eta, xi, zeta in ((0.5, 0.0, 7.0), (0.5, 0.25, -3.2), (0.25, 0.5, 40.0)):
        f = bright.ansatz(bright.BrightSolitonParams(eta=eta, xi=xi, zeta=zeta), grid)
        dens = density(f.values)
        assert bright.extract_center(dens, grid) == pytest.approx(zeta, abs=1e-6)
        work = np.empty(grid.n_points)
        assert bright.extract_center(dens, grid, work) == bright.extract_center(dens, grid)
    with pytest.raises(ExtractionError):
        bright.extract_center(np.zeros(grid.n_points), grid)
