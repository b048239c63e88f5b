"""Dark soliton ansatz, reduced dynamics tiers, and center extraction.

The quadrature expectations below were frozen from adaptive Gauss-Kronrod
integration of the same integrals (C = 1, D = -200, window half-width
17/B around the center); the package values must land on them to within
rounding noise.
"""

import numpy as np
import pytest

from gpsol.errors import ExtractionError, ParameterError, RangeError
from gpsol.grid_field import (WINDOW_HALFWIDTH_FACTOR, build_grid, density, simpson,
                              window_indices)
from gpsol.inhomogeneity import make_generic, make_inverse_square
from gpsol.ode_engine import OdeSystem, rk4_integrate
from gpsol import dark_soliton as dark

# (A, x0) -> (dA/dt, dx0/dt) from the independent quadrature oracle
FULL_RHS_ORACLE = {
    (0.0, 0.0): (-3.333360206364700e-03, 0.000000000000000e+00),
    (0.25, 0.0): (-3.125026873083275e-03, 2.500047667837996e-01),
    (0.5, 0.0): (-2.500026873290914e-03, 5.000119171243093e-01),
    (0.5, -10.0): (-2.380975595028088e-03, 5.000108091135559e-01),
}

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
    for x0 in (np.inf, -np.inf, np.nan, 10 ** 400):
        with pytest.raises(ParameterError, match="finite center"):
            dark.DarkSolitonParams(A=0.25, x0=x0)


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


def _energy_rate(params, profile, grid):
    """dA/dt of the field equation at the ansatz, from its renormalized energy.

    u_t = -i G + P with G = -u_xx/2 - (1 - |u|^2) u the energy's variation
    and P = i (coef u_x - V_eff u) the profile's share, so
    dE/dt = 2 Re int G conj(P) dx; at the ansatz E = (4/3) B^3 and
    dE/dA = -4 A B (Kivshar and Yang, Phys. Rev. E 49, 1657 (1994)).
    """
    A, B = params.A, params.B
    x = grid.x
    th = B * (x - params.x0)
    sech2 = 1.0 / np.cosh(th) ** 2
    u = dark.ansatz(params, grid).values
    u_x = B * B * sech2
    u_xx = -2.0 * B ** 3 * sech2 * np.tanh(th)
    G = -0.5 * u_xx - (1.0 - np.abs(u) ** 2) * u
    P = 1j * (profile.advection_coef(x) * u_x + 0.5 * profile.potential_coef(x) * u)
    dE = 2.0 * simpson(np.real(G * np.conj(P)), grid.dx)
    return -dE / (4.0 * A * B)


@pytest.mark.parametrize("shape", [(1.0, -200.0), (1.0, -400.0), (-1.0, 200.0), "cosine"],
                         ids=["C1-D-200", "C1-D-400", "C-1-D200", "cosine"])
@pytest.mark.parametrize("A", [0.25, 0.5, -0.3, 0.8])  # dE/dA = 0 at A = 0
@pytest.mark.parametrize("x0", [0.0, 7.5])
def test_full_rhs_equals_energy_rate_at_the_ansatz(grid, shape, A, x0):
    # off the cosine's symmetry points, at x0 = 7.5, its V_eff rows count
    if shape == "cosine":
        profile = _cosine_profile(grid.x_min, grid.x_max)
    else:
        profile = make_inverse_square(*shape, grid)
    p = dark.DarkSolitonParams(A=A, x0=x0)
    got = dark.rhs_full(p, profile, grid)[0]
    want = _energy_rate(p, profile, grid)
    assert abs(got - want) <= 1e-11 * abs(want) + 1e-14


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


def test_taylor_rhs_homogeneous(grid):
    # the closed form at C = 0 (g = 1/D^2): exactly +0.0, sign bit included
    for D in (1.0, 0.5):
        dA, dx0 = dark.rhs_taylor(dark.DarkSolitonParams(A=0.3, x0=5.0),
                                  make_inverse_square(0.0, D, grid))
        assert (dA, dx0) == (0.0, 0.3) and not np.signbit(dA)


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


def test_hamiltonian_values():
    assert dark.hamiltonian(0.0, 0.0, 1.0, -200.0) == pytest.approx(H_AT_REST, abs=1e-9)
    assert dark.hamiltonian(0.0, 1.0, 1.0, -200.0) == pytest.approx(
        H_UNIT_MOMENTUM, abs=1e-9)


def test_hamilton_rhs_is_canonical():
    dx0, dP = dark.hamilton_rhs(5.0, 0.3, 1.0, -200.0)
    h = 1e-3
    dH_dP = (dark.hamiltonian(5.0, 0.3 + h, 1.0, -200.0)
             - dark.hamiltonian(5.0, 0.3 - h, 1.0, -200.0)) / (2.0 * h)
    dH_dx = (dark.hamiltonian(5.0 + h, 0.3, 1.0, -200.0)
             - dark.hamiltonian(5.0 - h, 0.3, 1.0, -200.0)) / (2.0 * h)
    assert dx0 == pytest.approx(dH_dP, abs=1e-9)
    assert dP == pytest.approx(-dH_dx, abs=1e-9)


def test_hamiltonian_flow_matches_eom():
    # same particle, two formulations: canonical (x0, P) and (x0, v)
    v0 = 0.25
    p0 = (200.0 ** 2) ** (2.0 / 3.0) * v0  # P = |D + C x0|^(4/3) v at x0 = 0

    def ham(y):
        return np.asarray(dark.hamilton_rhs(y[0], y[1], 1.0, -200.0))

    def eom(y):
        return np.array([y[1], dark.eom_rhs(y[0], y[1], 1.0, -200.0)])

    a = rk4_integrate(OdeSystem(2, ham), np.array([0.0, p0]), 50.0, 1e-3)
    b = rk4_integrate(OdeSystem(2, eom), np.array([0.0, v0]), 50.0, 1e-3)
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
    coarse = build_grid(-150.0, 150.0, 17)  # dx = 18.75 > 17/B_est = 17
    dens = np.ones(17)
    dens[8] = 0.0
    with pytest.raises(RangeError, match="too narrow"):
        dark.extract_center(dens, coarse, -150.0)


def _old_window(n, dx, j_min, half):
    # the extractor's own index rule before it cut its window by
    # window_indices, with the cut that keeps the grid's last point
    i0 = max(0, j_min - int(half / dx))
    i1 = min(n, j_min + int(half / dx) + 1)
    if (i1 - i0) % 2 == 0:
        if i1 - i0 > 3:
            if i1 == n:
                i0 += 1
            else:
                i1 -= 1
        elif i0 > 0:
            i0 -= 1
        else:
            i1 += 1
    return i0, i1


def test_extract_center_window_equals_the_index_rule(monkeypatch):
    # random grids (last point above, on or below x_max) and dips
    # whose half-width 17/B_est spans 2 dx up to past both grid edges
    cut = []

    def spy(grid, lo, hi):
        cut.append(window_indices(grid, lo, hi))
        return cut[-1]

    monkeypatch.setattr(dark, "window_indices", spy)
    rng = np.random.default_rng(7)
    clipped = {"left": 0, "right": 0, "both": 0}
    for _ in range(3000):
        n = 2 * int(rng.integers(8, 400)) + 1
        x_min = rng.uniform(-200.0, 0.0)
        grid = build_grid(x_min, x_min + rng.uniform(20.0, 400.0), n)
        half = rng.uniform(max(17.0, 2.0 * grid.dx), 400.0)
        j_min = int(rng.integers(0, n))
        dens = 1.0 - (17.0 / half) ** 2 * np.exp(-(grid.x - grid.x[j_min]) ** 2)
        probe = grid.x_max if j_min < n // 2 else grid.x_min
        # the extractor's own half-width, which rounds as the test's may not
        half = WINDOW_HALFWIDTH_FACTOR / np.sqrt(1.0 - dens[j_min])
        dark.extract_center(dens, grid, probe)
        assert cut[-1] == _old_window(n, grid.dx, j_min, half)
        m = int(half / grid.dx)
        left, right = j_min < m, j_min + m >= n
        clipped["both" if left and right else "left" if left else "right"] += left or right
    assert min(clipped.values()) > 100


def test_extract_center_keeps_a_dip_on_the_last_grid_point():
    # dx = 15.4 and a shallow dip: the window [x_dip - 240, x_max] is
    # clipped at the top and holds an even count, and its parity cut must
    # not drop the dip, the grid's last point
    grid = build_grid(-200.0, 200.0, 27)
    dens = np.ones(27)
    dens[26] = 0.995
    assert dark.extract_center(dens, grid, grid.x[0]) == pytest.approx(200.0, abs=1e-12)
    # one point in, the top point goes as before and the dip stays
    dens = np.ones(27)
    dens[25] = 0.995
    assert dark.extract_center(dens, grid, grid.x[0]) == pytest.approx(grid.x[25], abs=1e-12)


def test_default_background_probe(grid):
    assert dark.default_background_probe(grid, 0.0) == -120.0
    assert dark.default_background_probe(grid, 40.0) == -120.0
    assert dark.default_background_probe(grid, -40.0) == 120.0
