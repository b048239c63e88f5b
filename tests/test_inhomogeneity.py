"""Interaction profiles and the derivative perturbation they induce."""

import numpy as np
import pytest

from gpsol import bright_soliton as bright
from gpsol import dark_soliton as dark
from gpsol import inhomogeneity
from gpsol.errors import ConfigurationError, SingularityError
from gpsol.grid_field import build_grid, window_indices
from gpsol.harness import ExperimentConfig, run_experiment
from gpsol.inhomogeneity import (
    InhomogeneityProfile,
    closed_form_w,
    coefficient_tables,
    make_generic,
    make_inverse_square,
    window_coefficients,
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
    # (D + C x)^2 overflows (g = 0) or underflows (g = inf) at a grid end
    for C, D in ((1e200, -2e202), (0.0, 1e-170)):
        with pytest.raises(ConfigurationError):
            make_inverse_square(C, D, grid)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("C, D", [(C, D) for C in (1.0, -1.0, 0.5, 2.0, 0.0)
                                  for D in (200.0, -200.0, 400.0, 1.0, -3.0)]
                         + [(0.0, 0.5)])
def test_closed_form_coefficients_are_bitwise_c_over_w(C, D):
    # built on a grid clear of every singular point -D/C, then evaluated
    # across the default grid and at scalars, where g must be 1/w^2 and the
    # ratios of the 1/sqrt(g) closures must reproduce C/w and zeros, sign
    # bits included; C = 0 is the homogeneous profile, g = 1/D^2
    small = build_grid(7.0, 9.0, 17)
    p = make_inverse_square(C, D, small)
    # the tables on the grid it was built for: g derived from |w| is 1/w^2
    g, adv, pot = coefficient_tables(p, small)
    w = D + C * small.x
    assert np.array_equal(_bits(g), _bits(1.0 / (w * w)))
    assert np.array_equal(_bits(adv), _bits(C / w)) and pot is None
    for x in (build_grid(-150.0, 150.0, 4097).x, 0.0, -0.0, 12.5, -140.0):
        x = np.asarray(x, dtype=np.float64)
        w = D + C * x
        assert np.array_equal(_bits(p.g(x)), _bits(1.0 / (w * w)))
        assert np.array_equal(_bits(p.advection_coef(x)), _bits(C / w))
        assert np.array_equal(_bits(p.potential_coef(x)), _bits(np.zeros_like(x)))
    # valid on the grid it was built for, and only there
    assert p.contains(small.x_min, small.x_max)
    assert not p.contains(small.x_min - 1.0, small.x_max)


def test_generic_profile_matches_closed_forms():
    # g = exp(x^2/2): 1/sqrt(g) = exp(-x^2/4), so the perturbation
    # coefficients are -x/2 and x^2/4 - 1/2 in closed form.
    h = lambda x: np.exp(-0.25 * np.asarray(x) ** 2)
    p = make_generic(
        fn_inv_sqrt_g=h,
        fn_d1_inv_sqrt_g=lambda x: -0.5 * np.asarray(x) * h(x),
        fn_d2_inv_sqrt_g=lambda x: (0.25 * np.asarray(x) ** 2 - 0.5) * h(x),
        x_lo=-6.0, x_hi=6.0,
    )
    x = np.linspace(-5.0, 5.0, 41)
    # g is derived from 1/sqrt(g), never supplied
    assert np.array_equal(_bits(p.g(x)), _bits(1.0 / np.square(h(x))))
    assert np.max(np.abs(p.g(x) / np.exp(0.5 * x * x) - 1.0)) < 1e-13
    assert np.max(np.abs(p.advection_coef(x) + 0.5 * x)) < 1e-13
    assert np.max(np.abs(p.potential_coef(x) - (0.25 * x * x - 0.5))) < 1e-13


def test_generic_profile_validation():
    ones = lambda x: np.ones_like(np.asarray(x, dtype=np.float64))
    with pytest.raises(ConfigurationError):
        make_generic(ones, ones, "not-callable", -1.0, 1.0)
    with pytest.raises(ConfigurationError):
        make_generic(ones, ones, ones, 1.0, -1.0)
    # a 1/sqrt(g) that vanishes at the probe point x = 0 (g = inf), or one
    # so large or so small that g under- or overflows, is rejected, and no
    # numpy warning is let through (tests turn them into errors)
    for inv_sqrt_g in (lambda x: np.asarray(x, dtype=np.float64),
                       lambda x: 1e200 * ones(x), lambda x: 1e-170 * ones(x)):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            make_generic(inv_sqrt_g, ones, ones, -1.0, 1.0)
    # a 1/sqrt(g) that changes sign between probe points passes through
    # zero, where g is singular (here g(pi/2) = 2.7e32): rejected, no warning
    with pytest.raises(ConfigurationError, match="keep one sign"):
        make_generic(np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x), -6.0, 6.0)
    # a negative 1/sqrt(g) gives the same g and stays valid
    flipped = make_generic(lambda x: -2.0 * ones(x), lambda x: 0.0 * ones(x),
                           lambda x: 0.0 * ones(x), -1.0, 1.0)
    assert np.all(flipped.g(np.linspace(-1.0, 1.0, 5)) == 0.25)
    # an infinite interval cannot be probed: named, and no numpy warning
    for x_lo, x_hi in ((-np.inf, np.inf), (0.0, np.inf), (-np.inf, 0.0)):
        with pytest.raises(ConfigurationError, match=r"finite interval .*\[.*inf"):
            make_generic(ones, ones, ones, x_lo, x_hi)


def _cosine_profile(x_lo, x_hi):
    # 1/sqrt(g) = 1 + 0.1 cos(2 pi x / 60): both coefficients are nonzero
    k = 2.0 * np.pi / 60.0
    h = lambda x: 1.0 + 0.1 * np.cos(k * np.asarray(x))
    return make_generic(
        fn_inv_sqrt_g=h,
        fn_d1_inv_sqrt_g=lambda x: -0.1 * k * np.sin(k * np.asarray(x)),
        fn_d2_inv_sqrt_g=lambda x: -0.1 * k * k * np.cos(k * np.asarray(x)),
        x_lo=x_lo, x_hi=x_hi,
    )


def _on_window(profile, grid, center, half_width):
    # what the tables replace: the coefficients evaluated on the window alone
    x = grid.x[slice(*window_indices(grid, center - half_width, center + half_width))]
    return x, profile.advection_coef(x), profile.potential_coef(x)


def test_tabulated_rhs_full_equals_window_evaluation(monkeypatch):
    wide = build_grid(-60.0, 60.0, 1201)
    narrow = build_grid(-30.0, 30.0, 1001)
    one = make_inverse_square(1.0, -200.0, wide)
    generic = _cosine_profile(-60.0, 60.0)
    cases = [(one, wide), (make_inverse_square(2.0, -200.0, wide), wide),  # one grid
             (one, narrow), (generic, wide), (generic, narrow)]  # two grids
    calls = [(dark, dark.DarkSolitonParams(A=0.3, x0=2.0)),
             (bright, bright.BrightSolitonParams(eta=0.5, xi=0.25, zeta=-3.0))]
    # interleaved and twice over, so that every table is read after the others
    tabulated = [module.rhs_full(params, profile, grid)
                 for _ in range(2) for profile, grid in cases for module, params in calls]
    for module, _ in calls:
        monkeypatch.setattr(module, "window_coefficients", _on_window)
    expected = [module.rhs_full(params, profile, grid)
                for _ in range(2) for profile, grid in cases for module, params in calls]
    assert tabulated == expected


def test_each_profile_object_is_tabulated_once(monkeypatch):
    tabulated = []
    real = InhomogeneityProfile.advection_coef

    def counting(self, x):
        tabulated.append(id(self))
        return real(self, x)

    monkeypatch.setattr(InhomogeneityProfile, "advection_coef", counting)
    grid = build_grid(-60.0, 60.0, 1201)
    # built alike, but each is its own profile with its own table
    first, second = (make_inverse_square(1.0, -200.0, grid) for _ in range(2))
    for profile in (first, second, first, second):
        window_coefficients(profile, grid, 0.0, 10.0)
    assert tabulated == [id(first), id(second)]


def _linear_generic():
    # 1/sqrt(g) = 1 + x/100 supplied as generic callables: zero curvature
    return make_generic(
        fn_inv_sqrt_g=lambda x: 1.0 + np.asarray(x) / 100.0,
        fn_d1_inv_sqrt_g=lambda x: np.full_like(np.asarray(x, dtype=np.float64), 0.01),
        fn_d2_inv_sqrt_g=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        x_lo=-60.0, x_hi=60.0,
    )


def test_vanishing_potential_rows_are_skipped_exactly(monkeypatch):
    grid = build_grid(-60.0, 60.0, 1201)
    profile = _linear_generic()
    assert inhomogeneity.coefficient_tables(profile, grid)[2] is None
    calls = [(dark, dark.DarkSolitonParams(A=0.3, x0=2.0)),
             (bright, bright.BrightSolitonParams(eta=0.5, xi=0.25, zeta=-3.0))]
    skipped = [module.rhs_full(params, profile, grid) for module, params in calls]
    # the window evaluation hands rhs_full the zero potential rows
    for module, _ in calls:
        monkeypatch.setattr(module, "window_coefficients", _on_window)
    assert skipped == [module.rhs_full(params, profile, grid) for module, params in calls]


@pytest.mark.parametrize("make", [_linear_generic, lambda: _cosine_profile(-60.0, 60.0)],
                         ids=["linear", "cosine"])
def test_taylor_tiers_reject_generic_profiles(make):
    # the Taylor tiers expand the closed form only: a generic profile is
    # rejected even where its V_eff vanishes, as the linear one's does
    profile = make()
    with pytest.raises(ConfigurationError):
        closed_form_w(2.0, profile.C, profile.D)
    with pytest.raises(ConfigurationError):
        dark.rhs_taylor(dark.DarkSolitonParams(A=0.3, x0=2.0), profile)
    with pytest.raises(ConfigurationError):
        bright.rhs_taylor(bright.BrightSolitonParams(eta=0.5, xi=0.25, zeta=-3.0), profile)


def test_dark_field_run_tabulates_its_profile_once(monkeypatch):
    tabulated = []
    real = InhomogeneityProfile.advection_coef

    def counting(self, x):
        tabulated.append(np.shape(x))
        return real(self, x)

    monkeypatch.setattr(InhomogeneityProfile, "advection_coef", counting)
    # ode-full fills the table, and the field kernel reads the same one
    run_experiment(ExperimentConfig(mode="dark", A0=0.0, x0_0=1.0, t_max=0.1,
                                    tiers=("pde", "ode-full")))
    assert tabulated == [(4097,)]


def test_profiles_built_alike_are_distinct_cache_keys():
    grid = build_grid(-60.0, 60.0, 1201)
    h = lambda x: 1.0 + 0.1 * np.cos(np.asarray(x))
    fns = (h, lambda x: -0.1 * np.sin(np.asarray(x)), lambda x: -0.1 * np.cos(np.asarray(x)))
    first, second = (make_generic(*fns, -60.0, 60.0) for _ in range(2))
    assert first != second and hash(first) != hash(second)
    first_tables = inhomogeneity.coefficient_tables(first, grid)
    assert inhomogeneity.coefficient_tables(second, grid) is not first_tables
    assert inhomogeneity.coefficient_tables(first, grid) is first_tables


def test_coefficient_tables_are_read_only():
    grid = build_grid(-60.0, 60.0, 1201)
    profile = _cosine_profile(-60.0, 60.0)
    _, adv, pot = window_coefficients(profile, grid, 0.0, 10.0)
    for table in (adv, pot, *inhomogeneity.coefficient_tables(profile, grid)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
