"""Dark soliton ansatz, reduced dynamics tiers, and center extraction.

The quadrature expectations below were frozen from adaptive Gauss-Kronrod
integration of the same integrals (C = 1, D = -200, window half-width
17/B around the center); the package values must land on them to within
rounding noise.
"""

import numpy as np
import pytest

from gpsol.errors import ExtractionError, ParameterError, RangeError
from gpsol.grid_field import build_grid, density
from gpsol.inhomogeneity import make_generic, make_homogeneous, make_inverse_square
from gpsol.ode_engine import OdeSystem, rk4_integrate
from gpsol import dark_soliton as dark

# (A, x0) -> (dA/dt, dx0/dt) from the independent quadrature oracle
FULL_RHS_ORACLE = {
    (0.0, 0.0): (-3.333360206364700e-03, 0.000000000000000e+00),
    (0.25, 0.0): (-3.125026873083275e-03, 2.500047667837996e-01),
    (0.5, 0.0): (-2.500026873290914e-03, 5.000119171243093e-01),
    (0.5, -10.0): (-2.380975595028088e-03, 5.000108091135559e-01),
}

V_AT_ORIGIN = -3.5322115776986909  # -(2/3) ln 200
H_AT_REST = -584.803547642573  # -(1/2) (200^2)^(2/3)
H_UNIT_MOMENTUM = -584.8031201485863


@pytest.fixture(scope="module")
def grid():
    return build_grid(-150.0, 150.0, 4097)


@pytest.fixture(scope="module")
def profile(grid):
    return make_inverse_square(1.0, -200.0, grid)


def test_params_validation():
    p = dark.DarkSolitonParams(A=0.6, x0=1.0)
    assert p.B == pytest.approx(0.8, rel=1e-15)
    with pytest.raises(ParameterError):
        dark.DarkSolitonParams(A=1.0, x0=0.0)
    with pytest.raises(ParameterError):
        dark.DarkSolitonParams(A=-1.5, x0=0.0)


def test_ansatz_shape(grid):
    p = dark.DarkSolitonParams(A=0.25, x0=0.0)
    f = dark.ansatz(p, grid)
    j = np.argmin(np.abs(grid.x))  # x = 0 is a grid point
    assert f.values[j] == pytest.approx(1j * 0.25, abs=1e-14)
    dens = np.abs(f.values) ** 2
    expected = 1.0 - p.B ** 2 / np.cosh(p.B * grid.x) ** 2
    assert np.max(np.abs(dens - expected)) < 1e-13
    assert dens[0] == pytest.approx(1.0, abs=1e-12)


def test_full_rhs_against_quadrature_oracle(grid, profile):
    for (A, x0), expected in FULL_RHS_ORACLE.items():
        got = dark.rhs_full(dark.DarkSolitonParams(A=A, x0=x0), profile, grid)
        assert got[0] == pytest.approx(expected[0], abs=1e-12)
        assert got[1] == pytest.approx(expected[1], abs=1e-12)


def test_full_rhs_grid_independent(grid, profile):
    other_grid = build_grid(-60.0, 60.0, 1639)
    other_profile = make_inverse_square(1.0, -200.0, other_grid)
    p = dark.DarkSolitonParams(A=0.25, x0=0.0)
    a = dark.rhs_full(p, profile, grid)
    b = dark.rhs_full(p, other_profile, other_grid)
    assert a[0] == pytest.approx(b[0], abs=1e-11)
    assert a[1] == pytest.approx(b[1], abs=1e-11)


def test_full_rhs_window_must_fit():
    grid = build_grid(-20.0, 20.0, 641)
    profile = make_inverse_square(1.0, -200.0, grid)
    with pytest.raises(RangeError):
        dark.rhs_full(dark.DarkSolitonParams(A=0.0, x0=10.0), profile, grid)


def test_taylor_rhs_inverse_square(profile):
    dA, dx0 = dark.rhs_taylor(dark.DarkSolitonParams(A=0.5, x0=0.0), profile)
    assert dA == pytest.approx((2.0 / 3.0) * 0.75 / -200.0, rel=1e-14)
    assert dx0 == 0.5
    dA0, _ = dark.rhs_taylor(dark.DarkSolitonParams(A=0.0, x0=0.0), profile)
    assert dA0 == pytest.approx(-1.0 / 300.0, rel=1e-14)


def test_taylor_rhs_homogeneous():
    # the closed form at C = 0: exactly +0.0, sign bit included
    for g in (1.0, 2.0):
        dA, dx0 = dark.rhs_taylor(dark.DarkSolitonParams(A=0.3, x0=5.0),
                                  make_homogeneous(g))
        assert (dA, dx0) == (0.0, 0.3) and not np.signbit(dA)


def test_taylor_rhs_generic_keeps_curvature():
    # the same inverse-square shape supplied as generic callables keeps the
    # curvature correction in the center equation
    h = lambda x: np.abs(-200.0 + np.asarray(x, dtype=np.float64))
    p = make_generic(
        fn_g=lambda x: 1.0 / h(x) ** 2,
        fn_inv_sqrt_g=h,
        fn_d1_inv_sqrt_g=lambda x: np.sign(-200.0 + np.asarray(x, dtype=np.float64)),
        fn_d2_inv_sqrt_g=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        x_lo=-150.0, x_hi=150.0,
    )
    A = 0.5
    dA, dx0 = dark.rhs_taylor(dark.DarkSolitonParams(A=A, x0=0.0), p)
    assert dA == pytest.approx((2.0 / 3.0) * 0.75 / -200.0, rel=1e-13)
    curv = 2.0 / 200.0  # d2(1/g) = 2 C^2, divided by 1/sqrt(g) = 200
    assert dx0 == pytest.approx(A + 0.25 * (A / 0.75) * curv, rel=1e-13)


def test_taylor_rhs_full_rhs_consistency(grid, profile):
    for A in (0.0, 0.25, 0.5):
        p = dark.DarkSolitonParams(A=A, x0=0.0)
        dA_f, _ = dark.rhs_full(p, profile, grid)
        dA_t, _ = dark.rhs_taylor(p, profile)
        assert abs(dA_f - dA_t) / abs(dA_t) < 1e-3


def test_eom_values():
    assert dark.eom_rhs(0.0, 0.0, 1.0, -200.0) == pytest.approx(-1.0 / 300.0, rel=1e-15)
    assert dark.eom_rhs(0.0, 0.5, 1.0, -200.0) == pytest.approx(-0.0025, rel=1e-14)
    assert dark.eom_a_rhs(0.0, 1.0, -200.0) == pytest.approx(-1.0 / 300.0, rel=1e-15)
    # the small-velocity variant ignores v entirely
    assert dark.eom_a_rhs(10.0, 1.0, -200.0) == dark.eom_rhs(10.0, 0.0, 1.0, -200.0)
    with pytest.raises(RangeError):
        dark.eom_rhs(200.0, 0.0, 1.0, -200.0)
    with pytest.raises(RangeError):
        dark.eom_a_rhs(200.0, 1.0, -200.0)
    # the singular point is caught for np.float64 and array centers too
    for singular in (np.float64(200.0), np.asarray(200.0), np.array([0.0, 200.0])):
        with pytest.raises(RangeError):
            dark.eom_rhs(singular, 0.0, 1.0, -200.0)
        with pytest.raises(RangeError):
            dark.eom_a_rhs(singular, 1.0, -200.0)


def test_effective_potential():
    assert dark.effective_potential(0.0, 1.0, -200.0) == pytest.approx(
        V_AT_ORIGIN, abs=1e-12)
    xs = np.array([-50.0, 0.0, 50.0])
    vals = dark.effective_potential(xs, 1.0, -200.0)
    assert vals.shape == (3,)
    # force = -dV/dx0 must reproduce the small-velocity acceleration
    h = 1e-4
    for x0 in (-40.0, 0.0, 60.0):
        grad = (dark.effective_potential(x0 + h, 1.0, -200.0)
                - dark.effective_potential(x0 - h, 1.0, -200.0)) / (2.0 * h)
        assert -grad == pytest.approx(dark.eom_a_rhs(x0, 1.0, -200.0), abs=1e-10)
    with pytest.raises(RangeError):
        dark.effective_potential(200.0, 1.0, -200.0)


def test_hamiltonian_values():
    rest = dark.DarkParticleState(x0=0.0, P=0.0)
    assert dark.hamiltonian(rest, 1.0, -200.0) == pytest.approx(H_AT_REST, abs=1e-9)
    moving = dark.DarkParticleState(x0=0.0, P=1.0)
    assert dark.hamiltonian(moving, 1.0, -200.0) == pytest.approx(
        H_UNIT_MOMENTUM, abs=1e-9)
    with pytest.raises(ParameterError):
        dark.DarkParticleState(x0=0.0, P=0.0, mu=-1.0)


def test_hamilton_rhs_is_canonical():
    state = dark.DarkParticleState(x0=5.0, P=0.3)
    dx0, dP = dark.hamilton_rhs(state, 1.0, -200.0)
    h = 1e-3
    dH_dP = (dark.hamiltonian(dark.DarkParticleState(5.0, 0.3 + h), 1.0, -200.0)
             - dark.hamiltonian(dark.DarkParticleState(5.0, 0.3 - h), 1.0, -200.0)
             ) / (2.0 * h)
    dH_dx = (dark.hamiltonian(dark.DarkParticleState(5.0 + h, 0.3), 1.0, -200.0)
             - dark.hamiltonian(dark.DarkParticleState(5.0 - h, 0.3), 1.0, -200.0)
             ) / (2.0 * h)
    assert dx0 == pytest.approx(dH_dP, abs=1e-9)
    assert dP == pytest.approx(-dH_dx, abs=1e-9)


def test_hamiltonian_flow_matches_eom():
    # same particle, two formulations: canonical (x0, P) and (x0, v)
    v0 = 0.25
    p0 = (200.0 ** 2) ** (2.0 / 3.0) * v0  # P = mu (D + C x0)^(4/3) v at x0 = 0

    def ham(t, y):
        return np.asarray(dark.hamilton_rhs(
            dark.DarkParticleState(x0=y[0], P=y[1]), 1.0, -200.0))

    def eom(t, y):
        return np.array([y[1], dark.eom_rhs(y[0], y[1], 1.0, -200.0)])

    a = rk4_integrate(OdeSystem(2, ham), np.array([0.0, p0]), 0.0, 50.0, 1e-3)
    b = rk4_integrate(OdeSystem(2, eom), np.array([0.0, v0]), 0.0, 50.0, 1e-3)
    assert np.max(np.abs(a.states[:, 0] - b.states[:, 0])) < 1e-8


def test_extract_center_identity(grid):
    f = dark.ansatz(dark.DarkSolitonParams(A=0.0, x0=3.7), grid)
    assert dark.extract_center(density(f.values), grid, -120.0) == pytest.approx(3.7, abs=1e-6)
    f = dark.ansatz(dark.DarkSolitonParams(A=0.5, x0=-10.0), grid)
    assert dark.extract_center(density(f.values), grid, 120.0) == pytest.approx(-10.0, abs=1e-4)


def test_extract_center_background_scale_invariance(grid):
    f = dark.ansatz(dark.DarkSolitonParams(A=0.25, x0=2.0), grid)
    ref = dark.extract_center(density(f.values), grid, -120.0)
    scaled = density(1.3 * f.values)
    assert dark.extract_center(scaled, grid, -120.0) == pytest.approx(ref, abs=1e-10)


def test_extract_center_failures(grid):
    with pytest.raises(ExtractionError):
        dark.extract_center(np.ones(grid.n_points), grid, -120.0)
    f = dark.ansatz(dark.DarkSolitonParams(A=0.0, x0=0.0), grid)
    with pytest.raises(RangeError):
        dark.extract_center(density(f.values), grid, 500.0)  # probe outside the grid


def test_default_background_probe(grid):
    assert dark.default_background_probe(grid, 0.0) == -120.0
    assert dark.default_background_probe(grid, 40.0) == -120.0
    assert dark.default_background_probe(grid, -40.0) == 120.0
