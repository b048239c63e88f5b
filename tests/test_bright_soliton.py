"""Bright soliton ansatz, reduced tiers, and center extraction.

Quadrature expectations frozen from adaptive Gauss-Kronrod integration of
the same integrals (C = 1, D = -200, window half-width 17/(2 eta)).
"""

import numpy as np
import pytest

from gpsol.errors import ExtractionError, ParameterError, RangeError
from gpsol.grid_field import build_grid, density, simpson
from gpsol.inhomogeneity import closed_form_w, make_generic, make_inverse_square
from gpsol import bright_soliton as bright
from gpsol import dark_soliton as dark

# (eta, xi, zeta) -> (d eta, d xi, d zeta) per unit scaled time
FULL_RHS_ORACLE = {
    (0.5, 0.25, 0.0): (-5.000102817259817e-03, -3.333485221789252e-03,
                       -1.000041126903738e+00),
    (0.5, 0.0, 0.0): (0.0, -3.333485221789252e-03, 0.0),
    (0.25, 0.25, 0.0): (-2.500205687841571e-03, -8.334852704393530e-04,
                        -1.000164550273067e+00),
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
        assert got == pytest.approx(expected, abs=1e-12)


def _cosine_profile(x_lo, x_hi):
    # 1/sqrt(g) = 1 + 0.1 cos(2 pi x / 60): advection and V_eff are both on
    k = 2.0 * np.pi / 60.0
    h = lambda x: 1.0 + 0.1 * np.cos(k * np.asarray(x))
    return make_generic(
        fn_inv_sqrt_g=h,
        fn_d1_inv_sqrt_g=lambda x: -0.1 * k * np.sin(k * np.asarray(x)),
        fn_d2_inv_sqrt_g=lambda x: -0.1 * k * k * np.cos(k * np.asarray(x)),
        x_lo=x_lo, x_hi=x_hi,
    )


def _field_rates(params, profile, grid):
    """(d eta, d xi, d zeta)/d tau of the field equation at the sech ansatz.

    u_t = i (u_xx / 2 + coef u_x - V_eff u + |u|^2 u) moves N = int |u|^2,
    M = Im int u* u_x and the centroid Z = int x |u|^2 / N, which the
    ansatz ties to eta = N/4, xi = -M/(2N) and zeta; d/dtau = 2 d/dt.
    """
    x, dx = grid.x, grid.dx
    eta, xi, zeta = params.eta, params.xi, params.zeta
    u = bright.ansatz(params, grid).values
    z = 2.0 * eta * (x - zeta)
    a = -2j * xi - 2.0 * eta * np.tanh(z)  # u_x = a u
    u_x = a * u
    u_xx = (a * a - 4.0 * eta * eta / np.cosh(z) ** 2) * u
    v_eff = -0.5 * profile.potential_coef(x)
    dens = np.abs(u) ** 2
    u_t = 1j * (0.5 * u_xx + profile.advection_coef(x) * u_x - v_eff * u + dens * u)
    dens_t = 2.0 * np.real(np.conj(u) * u_t)
    n, n_t = simpson(dens, dx), simpson(dens_t, dx)
    m = simpson(np.imag(np.conj(u) * u_x), dx)
    # by parts, int u* u_xt = -int u_x* u_t
    m_t = -2.0 * simpson(np.imag(np.conj(u_x) * u_t), dx)
    centroid = simpson(x * dens, dx) / n
    return (2.0 * n_t / 4.0,
            2.0 * (-m_t / (2.0 * n) + m * n_t / (2.0 * n * n)),
            2.0 * (simpson(x * dens_t, dx) - centroid * n_t) / n)


@pytest.mark.parametrize("shape", ["inverse-square", "cosine"])
@pytest.mark.parametrize("eta, xi, zeta", [(0.5, 0.25, 0.0), (0.5, 0.0, 7.5),
                                           (0.25, 0.5, 7.5)])
def test_full_rhs_equals_field_rates_at_the_ansatz(grid, profile, shape, eta, xi, zeta):
    # the adiabatic equations are the field's exact moment rates while the
    # field is the ansatz; off the cosine's symmetry points, at zeta = 7.5,
    # the V_eff term of d xi is not zero
    if shape == "cosine":
        profile = _cosine_profile(grid.x_min, grid.x_max)
    p = bright.BrightSolitonParams(eta=eta, xi=xi, zeta=zeta)
    got = bright.rhs_full(p, profile, grid)
    want = _field_rates(p, profile, grid)
    for g_val, w_val in zip(got, want, strict=True):
        assert abs(g_val - w_val) <= 1e-11 * abs(w_val) + 1e-14


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


def test_taylor_rhs_is_bitwise_the_advection_coef_form(grid):
    # C/w is bitwise the profile's C sign(w)/|w|, on either sign of w and at C = 0
    profiles = [make_inverse_square(C, D, grid)
                for C, D in ((1.0, -200.0), (-1.0, 200.0), (1.0, 200.0))]
    for profile in profiles + [make_inverse_square(0.0, 0.5, grid)]:
        for eta, xi, zeta in ((0.5, 0.25, -120.0), (0.5, -0.3, -3.2), (0.25, 0.5, 0.0),
                              (0.7, 0.1, 0.1), (0.5, 0.25, 47.5), (1.0, 2.0, 140.0)):
            adv = float(profile.advection_coef(zeta))
            want = (8.0 * eta * xi * adv, (8.0 / 3.0) * eta * eta * adv, -4.0 * xi)
            params = bright.BrightSolitonParams(eta=eta, xi=xi, zeta=zeta)
            assert bright.rhs_taylor(params, profile) == want


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


@pytest.mark.parametrize("fn", [
    bright.eta_closed_form, bright.eom_rhs, bright.effective_potential,
    # dark's particle models and w itself, in the same (z, ...) call shape
    pytest.param(lambda z, *_: dark.eom_rhs(z, 0.0, 1.0, -200.0), id="dark_eom_rhs"),
    pytest.param(lambda z, *_: dark.eom_a_rhs(z, 1.0, -200.0), id="dark_eom_a_rhs"),
    pytest.param(lambda z, *_: closed_form_w(z, 1.0, -200.0), id="closed_form_w"),
])
def test_pinned_scalar_and_array_inputs(fn):
    # floats (np.float64 included), ints and 0-d arrays give a float, arrays
    # an array: the closed_form_w contract every closed form inherits
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
    # one work row serves every sample; what it held before is never read
    work = np.full(grid.n_points, np.nan)
    for eta, xi, zeta in ((0.5, 0.0, 7.0), (0.5, 0.25, -3.2), (0.25, 0.5, 40.0)):
        f = bright.ansatz(bright.BrightSolitonParams(eta=eta, xi=xi, zeta=zeta), grid)
        dens = density(f.values)
        assert bright.extract_center(dens, grid, work) == pytest.approx(zeta, abs=1e-6)
    with pytest.raises(ExtractionError):
        bright.extract_center(np.zeros(grid.n_points), grid, work)
