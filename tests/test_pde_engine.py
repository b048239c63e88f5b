"""Method-of-lines field evolution: variants, stability guard, conservation.

Also the in-place RK4 and ABM4 steps, on the field and on the harness's
parameter ODEs, against the allocating steps they replaced; the kernel's
stencil on polynomials it differentiates exactly; and a field step that
allocates nothing.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpsol.errors import ConfigurationError, InstabilityError
from gpsol import pde_engine
from gpsol.grid_field import ComplexField, build_grid, density, simpson
from gpsol.inhomogeneity import (InhomogeneityProfile, closed_form_w, coefficient_tables,
                                 make_generic, make_inverse_square)
from gpsol import harness
from gpsol.harness import ExperimentConfig, run_experiment
from gpsol.ode_engine import _AB4, _AM4, abm4_integrate, abm4_step, rk4_integrate, rk4_step
from gpsol.pde_engine import (
    STABILITY_FACTORS,
    VARIANTS,
    EvolutionProblem,
    evolve,
)
from gpsol import bright_soliton as bright
from gpsol import dark_soliton as dark


def _rhs(problem, field):
    """du/dt of the field kernel; the clamped rows read zero."""
    out = np.zeros(problem.grid.n_points, dtype=np.complex128)
    return pde_engine._rhs_kernel(problem)(field.values, out)


def _dark_setup(x_lim, n):
    grid = build_grid(-x_lim, x_lim, n)
    problem = EvolutionProblem("transformed-dark-rotated", make_inverse_square(0.0, 1.0, grid),
                               grid)
    return grid, problem


def test_variant_validation():
    grid = build_grid(-20.0, 20.0, 641)
    profile = make_inverse_square(0.0, 1.0, grid)
    with pytest.raises(ConfigurationError):
        EvolutionProblem("no-such-variant", profile, grid)
    with pytest.raises(ConfigurationError):
        EvolutionProblem("original-psi", profile, grid)  # s is required
    with pytest.raises(ConfigurationError):
        EvolutionProblem("original-psi", profile, grid, s=2)
    with pytest.raises(ConfigurationError):
        EvolutionProblem("transformed-bright", profile, grid, s=+1)
    with pytest.raises(ConfigurationError):
        EvolutionProblem("transformed-dark-rotated", profile, grid, s=-1)
    # a transformed equation fixes its own sign: even the matching s is refused
    with pytest.raises(ConfigurationError, match="s is not taken"):
        EvolutionProblem("transformed-bright", profile, grid, s=-1)
    with pytest.raises(ConfigurationError, match="s is not taken"):
        EvolutionProblem("transformed-dark-rotated", profile, grid, s=+1)
    EvolutionProblem("original-psi", profile, grid, s=-1)
    EvolutionProblem("original-psi", profile, grid, s=+1)
    assert EvolutionProblem("transformed-bright", profile, grid).s is None


def test_profile_must_cover_grid():
    narrow = make_inverse_square(1.0, -200.0, build_grid(-50.0, 50.0, 257))
    wide = build_grid(-80.0, 80.0, 257)
    with pytest.raises(ConfigurationError):
        EvolutionProblem("transformed-bright", narrow, wide)


def test_stationary_dark_residual_fine_grid():
    # tanh(x) solves the rotated dark equation exactly; the sampled
    # residual is pure discretization error
    grid, problem = _dark_setup(15.0, 4097)
    field = dark.ansatz(dark.DarkSolitonParams(A=0.0, x0=0.0), grid)
    residual = _rhs(problem, field)
    assert np.max(np.abs(residual)) <= 1e-8


def test_stationary_dark_residual_reference_spacing():
    grid, problem = _dark_setup(150.0, 4097)
    field = dark.ansatz(dark.DarkSolitonParams(A=0.0, x0=0.0), grid)
    residual = _rhs(problem, field)
    assert np.max(np.abs(residual)) <= 2e-5


def test_bright_envelope_phase_rotation():
    # at xi = 0 the bright profile only rotates its phase, at rate
    # 2 eta^2, so the rhs must equal 2 i eta^2 u
    grid = build_grid(-20.0, 20.0, 2001)
    problem = EvolutionProblem("transformed-bright", make_inverse_square(0.0, 1.0, grid), grid)
    field = bright.ansatz(bright.BrightSolitonParams(eta=0.5, xi=0.0, zeta=0.0), grid)
    out = _rhs(problem, field)
    expected = 2j * 0.25 * field.values
    expected[:2] = 0.0
    expected[-2:] = 0.0
    assert np.max(np.abs(out - expected)) < 1e-6


def test_rhs_clamps_boundary_rows():
    grid, problem = _dark_setup(15.0, 641)
    field = dark.ansatz(dark.DarkSolitonParams(A=0.3, x0=1.0), grid)
    out = _rhs(problem, field)
    assert np.all(out[:2] == 0.0)
    assert np.all(out[-2:] == 0.0)


def test_conserved_quantity_names():
    grid = build_grid(-20.0, 20.0, 641)
    profile = make_inverse_square(1.0, -200.0, grid)
    field = bright.ansatz(bright.BrightSolitonParams(eta=0.5, xi=0.0, zeta=0.0), grid)
    # the variant names the norm: N_w = integral |u|^2 / g in the u frames,
    # N_psi = integral |Psi|^2 in the psi frame
    dens = density(field.values)
    u_problem = EvolutionProblem("transformed-bright", profile, grid)
    psi_problem = EvolutionProblem("original-psi", profile, grid, s=-1)
    assert evolve(u_problem, field, 0.0, 1e-3, 1e-3, 1).conserved[0] == pytest.approx(
        simpson(dens / profile.g(grid.x), grid.dx), rel=1e-14)
    assert evolve(psi_problem, field, 0.0, 1e-3, 1e-3, 1).conserved[0] == pytest.approx(
        simpson(dens, grid.dx), rel=1e-14)
    # homogeneous profile: N_w equals the plain density integral (g = 1)
    hom = EvolutionProblem("transformed-bright", make_inverse_square(0.0, 1.0, grid), grid)
    n_w = evolve(hom, field, 0.0, 1e-3, 1e-3, 1).conserved[0]
    assert n_w == pytest.approx(4.0 * 0.5, rel=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_homogeneous_problem_has_no_transformation_terms(variant):
    # the tables the kernel reads: no advection, no V_eff, g = 1/D^2 exactly
    grid = build_grid(-20.0, 20.0, 641)
    problem = EvolutionProblem(variant, make_inverse_square(0.0, 0.5, grid), grid,
                               s=-1 if variant == "original-psi" else None)
    g, adv, pot = coefficient_tables(problem.profile, problem.grid)
    assert not np.any(adv) and pot is None
    assert np.all(g == 4.0)


def _retired_homogeneous(g_const):
    """The constant profile of the former make_homogeneous(g_const), kept as a reference."""
    D = float(1.0 / np.sqrt(g_const))
    return InhomogeneityProfile(
        x_lo=-np.inf, x_hi=np.inf, C=0.0, D=D,
        fn_inv_sqrt_g=lambda x: np.abs(closed_form_w(x, 0.0, D)),
        fn_d1_inv_sqrt_g=lambda x: 0.0 * np.sign(closed_form_w(x, 0.0, D)),
        fn_d2_inv_sqrt_g=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_homogeneous_member_is_bitwise_the_retired_constructor(variant):
    # at g = 1 the closed form's C = 0 member has the same tables, sign bits
    # included, and a field run on it is the same run bit for bit
    grid = build_grid(-15.0, 15.0, 257)
    s = -1 if variant == "original-psi" else None
    problems = [EvolutionProblem(variant, profile, grid, s=s)
                for profile in (_retired_homogeneous(1.0), make_inverse_square(0.0, 1.0, grid))]
    old, new = (coefficient_tables(p.profile, grid) for p in problems)
    for a, b in zip(old[:2], new[:2]):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    assert old[2] is None and new[2] is None
    field0 = bright.ansatz(bright.BrightSolitonParams(eta=0.5, xi=0.25, zeta=1.0), grid)
    old_run, new_run = (evolve(p, field0, 0.0, 0.08, 2e-3, 4) for p in problems)
    assert np.array_equal(new_run.fields, old_run.fields)
    assert np.array_equal(new_run.conserved, old_run.conserved)


def test_evolve_validation():
    grid, problem = _dark_setup(15.0, 641)
    field = dark.ansatz(dark.DarkSolitonParams(A=0.0, x0=0.0), grid)
    bound = STABILITY_FACTORS["rk4"] * grid.dx ** 2
    with pytest.raises(ConfigurationError):
        evolve(problem, field, 0.0, 1.0, 2.0 * bound, 1)
    with pytest.raises(ConfigurationError):
        evolve(problem, field, 0.0, 1.0, -1e-4, 1)
    with pytest.raises(ConfigurationError):
        evolve(problem, field, 0.0, 0.00037, 1e-4, 1)  # non-integer step count
    with pytest.raises(ConfigurationError):
        evolve(problem, field, 0.0, 1e-2, 1e-4, 7)  # 100 steps, cadence 7
    with pytest.raises(ConfigurationError):
        evolve(problem, field, 0.0, 1.0, 1e-4, 1, stepper="euler")
    other = build_grid(-15.0, 15.0, 321)
    with pytest.raises(ConfigurationError):
        evolve(problem, ComplexField(other, np.ones(321)), 0.0, 1.0, 1e-4, 1)
    for cadence in (2.5, 2.0, True, "2"):  # a cast would march 2.5 at 2 and True at 1
        with pytest.raises(ConfigurationError, match="sample_every must be an integer"):
            evolve(problem, field, 0.0, 1e-2, 1e-4, cadence)
    assert evolve(problem, field, 0.0, 1e-2, 1e-4, np.int64(2)).times.shape == (51,)


def test_abm4_has_its_own_stability_bound(monkeypatch):
    # on the default grid 2e-3 is 0.373 dx^2: inside the RK4 bound, past
    # the knee of ABM4's growth of the grid-scale mode
    grid = build_grid(-150.0, 150.0, 4097)
    problem = EvolutionProblem("transformed-dark-rotated",
                               make_inverse_square(1.0, -200.0, grid), grid)
    field0 = dark.ansatz(dark.DarkSolitonParams(A=0.5, x0=0.0), grid)
    steps = []
    real_step = pde_engine.rk4_step

    def counting_step(rhs_into, u, dt, work):
        steps.append(dt)
        real_step(rhs_into, u, dt, work)

    monkeypatch.setattr(pde_engine, "rk4_step", counting_step)
    with pytest.raises(ConfigurationError, match="abm4 stability bound"):
        evolve(problem, field0, 0.0, 8e-3, 2e-3, 4, stepper="abm4")
    assert steps == []
    traj = evolve(problem, field0, 0.0, 8e-3, 2e-3, 4, stepper="rk4")
    assert len(steps) == 4
    assert np.all(np.isfinite(traj.fields))


@pytest.mark.parametrize("stepper", ["rk4", "abm4"])
def test_homogeneous_bright_density_is_static(stepper):
    grid = build_grid(-20.0, 20.0, 641)
    problem = EvolutionProblem("transformed-bright", make_inverse_square(0.0, 1.0, grid), grid)
    field0 = bright.ansatz(bright.BrightSolitonParams(eta=0.5, xi=0.0, zeta=0.0), grid)
    traj = evolve(problem, field0, 0.0, 0.5, 1e-3, 100, stepper=stepper)
    assert traj.times.shape == (6,)
    dens0 = np.abs(traj.fields[0]) ** 2
    for k in range(1, 6):
        assert np.max(np.abs(np.abs(traj.fields[k]) ** 2 - dens0)) < 5e-6
    assert pde_engine.norm_drift(traj.conserved) < 1e-10


def test_evolve_keeps_boundary_samples_fixed():
    grid, problem = _dark_setup(15.0, 641)
    field0 = dark.ansatz(dark.DarkSolitonParams(A=0.4, x0=0.0), grid)
    traj = evolve(problem, field0, 0.0, 0.05, 5e-5, 1000)
    assert np.array_equal(traj.fields[-1][:2], field0.values[:2])
    assert np.array_equal(traj.fields[-1][-2:], field0.values[-2:])


def test_transformation_equivalence_small_grid():
    # the two frames describe one solution: |psi| = |u| / sqrt(g)
    grid = build_grid(-30.0, 30.0, 513)
    profile = make_inverse_square(1.0, -200.0, grid)
    params = bright.BrightSolitonParams(eta=0.5, xi=0.25, zeta=0.0)
    u0 = bright.ansatz(params, grid)
    psi0 = ComplexField(grid, u0.values * profile.inv_sqrt_g(grid.x))
    u_traj = evolve(EvolutionProblem("transformed-bright", profile, grid),
                    u0, 0.0, 1.0, 5e-3, 200)
    psi_traj = evolve(EvolutionProblem("original-psi", profile, grid, s=-1),
                      psi0, 0.0, 1.0, 5e-3, 200)
    lifted = np.abs(u_traj.fields[-1]) * profile.inv_sqrt_g(grid.x)
    assert np.max(np.abs(np.abs(psi_traj.fields[-1]) - lifted)) < 1e-6


def test_instability_is_reported():
    grid = build_grid(-5.0, 5.0, 17)
    problem = EvolutionProblem("transformed-bright", make_inverse_square(0.0, 1.0, grid), grid)
    seed = bright.ansatz(bright.BrightSolitonParams(eta=0.5, xi=0.0, zeta=0.0), grid)
    hot = ComplexField(grid, 1e8 * seed.values)  # nonlinear term >> stable scale
    with pytest.raises(InstabilityError) as info:
        evolve(problem, hot, 0.0, 1.0, 0.1, 1)
    assert info.value.t_fail > 0.0


def test_drift_flag_is_derived_from_the_conserved_series():
    # the drift max|c - c0|/|c0| is read off the conserved series; a
    # trajectory keeps no flag, and none can be supplied
    times, fields = np.array([0.0, 0.1, 0.2]), np.empty((0, 5), dtype=np.complex128)
    traj = pde_engine.PdeTrajectory(times, fields,
                                    np.array([2.0, 2.0 + 2.0 ** -17, 2.0 - 2.0 ** -19]))
    assert pde_engine.norm_drift(traj.conserved) == 2.0 ** -18  # 3.8e-6, exact
    assert not hasattr(traj, "norm_drift_warning")
    # a series that starts at zero drifts absolutely
    assert pde_engine.norm_drift(np.array([0.0, -4e-7, 1e-7])) == 4e-7
    with pytest.raises(TypeError):
        pde_engine.PdeTrajectory(times, fields, np.ones(3), norm_drift_warning=False)


@pytest.mark.parametrize("stepper", ["rk4", "abm4"])
def test_streamed_samples_equal_stored_snapshots(stepper):
    grid = build_grid(-15.0, 15.0, 257)
    problem = EvolutionProblem("transformed-bright", make_inverse_square(1.0, -20.0, grid),
                               grid)
    field0 = bright.ansatz(bright.BrightSolitonParams(eta=0.5, xi=0.25, zeta=1.0), grid)
    stored = evolve(problem, field0, 0.0, 0.08, 2e-3, 4, stepper=stepper)
    seen = []
    streamed = evolve(problem, field0, 0.0, 0.08, 2e-3, 4, stepper=stepper,
                      on_sample=lambda j, u, dens: seen.append((j, u.copy())))
    assert [j for j, _ in seen] == list(range(1, 11))
    assert np.array_equal(np.array([u for _, u in seen]), stored.fields[1:])
    assert streamed.fields.shape == (0, grid.n_points)
    assert np.array_equal(streamed.times, stored.times)
    assert np.array_equal(streamed.conserved, stored.conserved)


@pytest.mark.parametrize("variant", VARIANTS)
def test_consumer_density_and_norm_are_bitwise(variant):
    # the consumer's dens is bitwise u.real**2 + u.imag**2, and each
    # conserved value is bitwise the norm of that density as the separate
    # re^2 + im^2 pass before it computed it: times 1/g in the u frames,
    # then Simpson
    grid = build_grid(-15.0, 15.0, 257)
    problem = EvolutionProblem(variant, make_inverse_square(1.0, -20.0, grid), grid,
                               s=-1 if variant == "original-psi" else None)
    field0 = bright.ansatz(bright.BrightSolitonParams(eta=0.5, xi=0.25, zeta=1.0), grid)
    seen = []
    traj = evolve(problem, field0, 0.0, 0.08, 2e-3, 4,
                  on_sample=lambda j, u, dens: seen.append((u.copy(), dens.copy())))
    samples = [(field0.values, None)] + seen
    for (u, dens), conserved in zip(samples, traj.conserved):
        expected = u.real ** 2 + u.imag ** 2
        if dens is not None:
            assert np.array_equal(dens, expected)
        if variant != "original-psi":
            expected = expected * (1.0 / coefficient_tables(problem.profile, grid)[0])
        assert conserved == simpson(expected, grid.dx)


_EPS = np.finfo(np.float64).eps


def _reference_rk4_step(rhs, y, dt):
    """The allocating RK4 step that the in-place one replaced."""
    k1 = rhs(y)
    k2 = rhs(y + (0.5 * dt) * k1)
    k3 = rhs(y + (0.5 * dt) * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_rhs(problem):
    """The allocating du/dt closure that the buffered kernel replaced."""
    dx = problem.grid.dx
    c2 = 1.0 / (12.0 * dx * dx)
    c1 = 1.0 / (12.0 * dx)
    g, adv, pot = coefficient_tables(problem.profile, problem.grid)
    g_int = g[2:-2]
    # the transformation-induced terms belong to the u frames only
    u_frame = problem.variant != "original-psi"
    adv_int = adv[2:-2] if u_frame else None
    veff_int = -0.5 * pot[2:-2] if u_frame and pot is not None else None

    def rhs_array(u):
        ui = u[2:-2]
        lap = (-u[:-4] + 16.0 * u[1:-3] - 30.0 * ui
               + 16.0 * u[3:-1] - u[4:]) * c2
        dens = ui.real ** 2 + ui.imag ** 2
        if problem.variant == "original-psi":
            interior = 0.5 * lap - problem.s * (g_int * dens) * ui
        elif problem.variant == "transformed-bright":
            interior = 0.5 * lap + dens * ui
        else:
            interior = 0.5 * lap - (dens - 1.0) * ui
        if adv_int is not None:
            du = (u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]) * c1
            interior = interior + adv_int * du
        if veff_int is not None:
            interior = interior - veff_int * ui
        out = np.zeros_like(u)
        out[2:-2] = 1j * interior
        return out

    return rhs_array


def _reference_march(rhs_array, u0, dt, n_steps, every, stepper):
    """Samples from the allocating RK4 and list-history ABM4 steps."""
    u = u0.copy()
    fields = [u]
    hist = []  # newest first
    for k in range(n_steps):
        if stepper == "rk4":
            u = _reference_rk4_step(rhs_array, u, dt)
        else:
            if not hist:
                hist.append(rhs_array(u))
            if len(hist) < 4:
                u = _reference_rk4_step(rhs_array, u, dt)
                hist.insert(0, rhs_array(u))
            else:
                f0, f1, f2, f3 = hist
                u_pred = u + dt * (_AB4[0] * f0 + _AB4[1] * f1
                                   + _AB4[2] * f2 + _AB4[3] * f3)
                f_pred = rhs_array(u_pred)
                u = u + dt * (_AM4[0] * f_pred + _AM4[1] * f0
                              + _AM4[2] * f1 + _AM4[3] * f2)
                hist.insert(0, rhs_array(u))
                hist.pop()
        if (k + 1) % every == 0:
            fields.append(u)
    return np.array(fields)


def _equality_profile(kind, grid):
    if kind == "inverse-square":
        return make_inverse_square(1.0, -20.0, grid)
    if kind == "homogeneous":
        return make_inverse_square(0.0, 1.0, grid)
    # 1/sqrt(g) = 1 + 0.05 cos(x/3): both the advection and the V_eff term are on
    h = lambda x: 1.0 + 0.05 * np.cos(np.asarray(x) / 3.0)
    return make_generic(
        fn_inv_sqrt_g=h,
        fn_d1_inv_sqrt_g=lambda x: -0.05 / 3.0 * np.sin(np.asarray(x) / 3.0),
        fn_d2_inv_sqrt_g=lambda x: -0.05 / 9.0 * np.cos(np.asarray(x) / 3.0),
        x_lo=-16.0, x_hi=16.0,
    )


@pytest.mark.parametrize("kind", ["inverse-square", "homogeneous", "generic"])
@pytest.mark.parametrize("stepper", ["rk4", "abm4"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_buffered_steps_equal_allocating_reference(variant, stepper, kind):
    grid = build_grid(-15.0, 15.0, 257)
    profile = _equality_profile(kind, grid)
    if variant == "transformed-dark-rotated":
        field0 = dark.ansatz(dark.DarkSolitonParams(A=0.5, x0=1.0), grid)
        problem = EvolutionProblem(variant, profile, grid)
    else:
        field0 = bright.ansatz(bright.BrightSolitonParams(eta=0.5, xi=0.25, zeta=1.0), grid)
        s = -1 if variant == "original-psi" else None
        problem = EvolutionProblem(variant, profile, grid, s=s)
    values0 = field0.values.copy()
    dt, n_steps, every = 2e-3, 40, 4
    traj = evolve(problem, field0, 0.0, n_steps * dt, dt, every, stepper=stepper)
    expected = _reference_march(_reference_rhs(problem), values0, dt, n_steps, every,
                                stepper)
    # the kernel sums its stencil in another order than the reference, so
    # they agree to roundoff; the bounds are fixed from float64's epsilon
    assert np.max(np.abs(traj.fields - expected)) <= 32 * _EPS * np.max(np.abs(expected))
    inv_g = None if variant == "original-psi" else 1.0 / problem.profile.g(grid.x)
    work = np.empty(grid.n_points)
    norms = np.array([pde_engine._norm(density(f), grid.dx, inv_g, work) for f in expected])
    assert np.max(np.abs(traj.conserved - norms) / np.abs(norms)) <= 32 * _EPS
    assert np.array_equal(field0.values, values0)
    assert (np.max(np.abs(_rhs(problem, field0) - _reference_rhs(problem)(values0)))
            <= 32 * _EPS * np.max(np.abs(values0)) / grid.dx ** 2)


@pytest.mark.parametrize("mode", ["dark", "bright"])
def test_integrators_equal_allocating_reference(mode, monkeypatch):
    # the ode-full closures run_experiment hands to the integrator, marched
    # by both in-place steps against the allocating reference above
    systems = []
    real_abm4 = harness.abm4_integrate

    def capture(system, y0, t_end, dt):
        systems.append((system, y0, t_end, dt))
        return real_abm4(system, y0, t_end, dt)

    monkeypatch.setattr(harness, "abm4_integrate", capture)
    if mode == "dark":
        config = ExperimentConfig(mode="dark", A0=0.5, t_max=0.2, tiers=("ode-full",))
    else:
        config = ExperimentConfig(mode="bright", eta0=0.5, xi0=0.25, t_max=0.2,
                                  tiers=("ode-full",))
    run_experiment(config)
    (system, y0, t_end, dt), = systems
    n_steps = int(round(t_end / dt))
    for integrate, stepper in ((rk4_integrate, "rk4"), (abm4_integrate, "abm4")):
        traj = integrate(system, y0, t_end, dt)
        expected = _reference_march(system.rhs, y0, dt, n_steps, 1, stepper)
        assert np.array_equal(traj.states, expected)


@pytest.mark.parametrize("step", [rk4_step, abm4_step])
def test_field_steps_allocate_nothing(step):
    # the kernel's products are complex by complex, so numpy needs no cast
    # buffer; what remains is a few array views per call
    config = ExperimentConfig(mode="dark", A0=0.5, t_max=1.0)
    grid = build_grid(config.x_min, config.x_max, config.n_points)
    problem = EvolutionProblem("transformed-dark-rotated",
                               make_inverse_square(config.C, config.D, grid), grid)
    rhs_into = pde_engine._rhs_kernel(problem)
    u = dark.ansatz(dark.DarkSolitonParams(A=0.5, x0=0.0), grid).values.copy()
    dt = config.dt_pde
    work = []
    for _ in range(5):  # fills the work arrays and the ABM4 history
        step(rhs_into, u, dt, work)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            step(rhs_into, u, dt, work)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1024


@pytest.mark.parametrize("variant", VARIANTS)
def test_sampled_norm_allocates_no_array(variant):
    # evolve keeps the density and a scratch row for the run; what a
    # sampled density and norm still allocate is simpson's einsum iterator
    # (about 1.3 KB) and a few views, the same at every grid size, where
    # one density row at 1025 points is 8 KB
    peaks = []
    for n_points in (1025, 4097):
        grid = build_grid(-150.0, 150.0, n_points)
        problem = EvolutionProblem(variant, make_inverse_square(1.0, -200.0, grid), grid,
                                   s=-1 if variant == "original-psi" else None)
        u = bright.ansatz(bright.BrightSolitonParams(eta=0.5, xi=0.25, zeta=1.0), grid).values
        inv_g = None if variant == "original-psi" else 1.0 / problem.profile.g(grid.x)
        buf = np.empty((2, n_points))
        norm = pde_engine._norm(density(u, buf), grid.dx, inv_g, buf[1])
        tracemalloc.start()
        try:
            pde_engine._norm(density(u, buf), grid.dx, inv_g, buf[1])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        dens = u.real ** 2 + u.imag ** 2
        assert norm == pde_engine._norm(dens, grid.dx, inv_g, np.empty(n_points))
        if variant != "original-psi":
            dens = dens / problem.profile.g(grid.x)
        assert norm == pytest.approx(simpson(dens, grid.dx), rel=1e-14)
    assert max(peaks) < 2048


_POLY_COEFS = st.lists(
    st.complex_numbers(max_magnitude=0.2, allow_nan=False, allow_infinity=False),
    min_size=5, max_size=5)


@pytest.mark.parametrize("kind", ["inverse-square", "generic"])
@pytest.mark.parametrize("variant, s", [("original-psi", -1), ("original-psi", +1),
                                        ("transformed-bright", None),
                                        ("transformed-dark-rotated", None)])
@settings(max_examples=25, deadline=None)
@given(coefs=_POLY_COEFS)
def test_rhs_exact_on_quartic_polynomials(kind, variant, s, coefs):
    # both five-point stencils are exact up to degree 4, so the interior
    # rows differ from the continuum right-hand side by roundoff alone
    grid = build_grid(-15.0, 15.0, 257)
    profile = _equality_profile(kind, grid)
    problem = EvolutionProblem(variant, profile, grid, s=s)
    x = grid.x
    y = x / 15.0  # |y| <= 1, so |u| <= 1
    u = sum(c * y ** j for j, c in enumerate(coefs))
    du = sum(j * c * y ** (j - 1) for j, c in enumerate(coefs) if j >= 1) / 15.0
    d2u = sum(j * (j - 1) * c * y ** (j - 2) for j, c in enumerate(coefs) if j >= 2) / 225.0
    dens = np.abs(u) ** 2
    if variant == "original-psi":
        expected = 1j * (0.5 * d2u - s * profile.g(x) * dens * u)
    else:
        adv = profile.advection_coef(x)
        veff = -0.5 * profile.potential_coef(x)
        nonlinear = dens if variant == "transformed-bright" else 1.0 - dens
        expected = 1j * (0.5 * d2u + adv * du - veff * u + nonlinear * u)
    got = _rhs(problem, ComplexField(grid, u))
    u_max = np.max(np.abs(u))
    # relative roundoff, plus the absolute roundoff of subnormal results:
    # a coefficient near 5e-324 makes the relative term underflow to zero
    bound = (64 * _EPS * u_max * (1.0 / grid.dx ** 2 + u_max ** 2)
             + 64 * np.finfo(np.float64).smallest_subnormal)
    assert np.max(np.abs(got[2:-2] - expected[2:-2])) <= bound
