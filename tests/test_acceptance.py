"""End-to-end acceptance checks for the soliton dynamics package.

Each test prints one PASS/FAIL line through the RESULTS list (echoed by the
conftest terminal-summary hook) and asserts the same condition, so a red
line and a red test always agree.  The heavyweight field-equation runs come
from the session-scoped caches in conftest.py.
"""

from __future__ import annotations

import functools

import numpy as np

from gpsol.grid_field import build_grid, density
from gpsol.inhomogeneity import make_inverse_square
from gpsol.ode_engine import OdeSystem, abm4_integrate, rk4_integrate
from gpsol.pde_engine import EvolutionProblem, evolve
from gpsol import bright_soliton as bright
from gpsol import dark_soliton as dark

RESULTS: list[str] = []

THIRD_OF_HUNDREDTH = 1.0 / 300.0


def _report(num: int, ok: bool, detail: str) -> None:
    RESULTS.append(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _criterion(num: int):
    """Guarantee a RESULTS line even when the test body crashes."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = len(RESULTS)
            try:
                return fn(*args, **kwargs)
            except AssertionError:
                raise
            except Exception as exc:
                if len(RESULTS) == before:
                    RESULTS.append(f"criterion {num:2d}: FAIL  crashed: {exc!r}")
                raise

        return wrapper

    return deco


def _fit_acceleration(times: np.ndarray, centers: np.ndarray) -> float:
    # quadratic fit over the early-time window; acceleration = 2 c2
    coef = np.polyfit(times, centers, 2)
    return 2.0 * float(coef[0])


def _max_abs(values: np.ndarray) -> float:
    return float(np.max(np.abs(values)))


@_criterion(1)
def test_c01_frame_equivalence(frame_pair):
    grid, profile, psi_traj, u_traj = frame_pair
    w = profile.inv_sqrt_g(grid.x)
    mismatch = _max_abs(np.abs(psi_traj.fields) - np.abs(u_traj.fields) * w)
    _report(1, mismatch <= 1e-4,
            f"frame-equivalence modulus mismatch {mismatch:.3e} (tol 1e-4)")


@_criterion(2)
def test_c02_unperturbed_motion():
    # constant coupling g = 1: a moving dip must coast and a still pulse must hold
    grid_d = build_grid(-40.0, 40.0, 1089)
    field0 = dark.ansatz(dark.DarkSolitonParams(A=0.25, x0=0.0), grid_d)
    traj = evolve(EvolutionProblem("transformed-dark-rotated",
                                   make_inverse_square(0.0, 1.0, grid_d), grid_d),
                  field0, 0.0, 20.0, 2e-3, 500)
    x_b = dark.default_background_probe(grid_d, 0.0)
    worst_track = 0.0
    for t_k, field in zip(traj.times, traj.fields):
        center = dark.extract_center(density(field), grid_d, x_b)
        worst_track = max(worst_track, abs(center - 0.25 * t_k))

    grid_b = build_grid(-20.0, 20.0, 1025)
    pulse0 = bright.ansatz(bright.BrightSolitonParams(eta=0.5, xi=0.0, zeta=0.0),
                           grid_b)
    traj_b = evolve(EvolutionProblem("transformed-bright",
                                     make_inverse_square(0.0, 1.0, grid_b), grid_b),
                    pulse0, 0.0, 20.0, 5e-4, 2000)
    dens0 = np.abs(traj_b.fields[0]) ** 2
    worst_shape = _max_abs(np.abs(traj_b.fields) ** 2 - dens0)

    ok = worst_track <= 1e-2 and worst_shape <= 1e-4
    _report(2, ok, f"coasting-dip tracking error {worst_track:.3e} (tol 1e-2), "
                   f"still-pulse shape drift {worst_shape:.3e} (tol 1e-4)")


@_criterion(3)
def test_c03_dark_initial_acceleration(shared_run):
    rec = shared_run("dark-0")
    centers = rec.centers["pde"]
    accel = _fit_acceleration(rec.times[:101], centers[:101])
    target = -THIRD_OF_HUNDREDTH
    ok = abs(accel - target) <= 0.1 * abs(target) and centers[-1] < -1.0
    _report(3, ok, f"dark start accel {accel:.4e} vs {target:.4e} +-10%, "
                   f"final center {centers[-1]:.2f} < -1")


@_criterion(4)
def test_c04_dark_turning_points(shared_run):
    details = []
    ok = True
    for name in ("dark-0.25", "dark-turn"):
        x = shared_run(name).centers["pde"]
        k = int(np.argmax(x))
        interior = 0 < k < len(x) - 1
        drop = float(x[k] - x[-1])
        ok = ok and interior and drop > 0.05
        t_turn = shared_run(name).times[k]
        details.append(f"{name}: peak {x[k]:.2f} at t={t_turn:g}, drop {drop:.2f}")
    _report(4, ok, "; ".join(details))


@_criterion(5)
def test_c05_dark_tier_agreement(shared_run):
    details = []
    ok = True
    for name in ("dark-0", "dark-0.5"):
        rec = shared_run(name)
        disp = abs(float(rec.centers["pde"][-1] - rec.centers["pde"][0]))
        d_full = _max_abs(rec.deltas["ode-full"])
        d_eom = _max_abs(rec.deltas["eom"])
        ratio = d_full / d_eom if d_eom > 0 else np.inf
        ok = ok and disp >= 10.0 and d_full <= 1.0 and d_eom <= 1.0 \
            and 0.5 <= ratio <= 2.0
        details.append(f"{name}: disp {disp:.1f}, dmax full {d_full:.3f} / "
                       f"eom {d_eom:.3f}")
    _report(5, ok, "; ".join(details))


@_criterion(6)
def test_c06_velocity_free_model_degrades(shared_run):
    d_rest = _max_abs(shared_run("dark-0").deltas["eom-a"])
    d_fast = _max_abs(shared_run("dark-0.5").deltas["eom-a"])
    _report(6, d_fast > d_rest,
            f"velocity-free tier dmax {d_fast:.3f} at A0=0.5 > {d_rest:.3f} at A0=0")


@_criterion(7)
def test_c07_bright_initial_acceleration(shared_run):
    rec = shared_run("bright-0")
    centers = rec.centers["pde"]
    accel = _fit_acceleration(rec.times[:101], centers[:101])
    target = THIRD_OF_HUNDREDTH
    ok = abs(accel - target) <= 0.1 * target and centers[-1] > 1.0
    _report(7, ok, f"bright start accel {accel:.4e} vs {target:.4e} +-10%, "
                   f"final center {centers[-1]:.2f} > 1")


@_criterion(8)
def test_c08_bright_difference_ordering(shared_run):
    rec0 = shared_run("bright-0")
    rec5 = shared_run("bright-0.5")
    d_full0 = _max_abs(rec0.deltas["ode-full"])
    d_eom0 = _max_abs(rec0.deltas["eom"])
    d_full5 = _max_abs(rec5.deltas["ode-full"])
    d_eom5 = _max_abs(rec5.deltas["eom"])
    ordering = d_eom0 >= d_full0
    growth = d_full5 >= 3.0 * d_full0 and d_eom5 >= 3.0 * d_eom0
    _report(8, ordering and growth,
            f"rest-start dmax eom {d_eom0:.3e} vs ode-full {d_full0:.3e} "
            f"(need eom >= ode-full); moving-start growth factors "
            f"{d_full5 / d_full0:.1f} / {d_eom5 / d_eom0:.1f} (need >= 3)")


@_criterion(9)
def test_c09_conservation(shared_run, frame_pair):
    worst_run = 0.0
    for name in ("dark-0", "dark-0.25", "dark-0.5",
                 "bright-0", "bright-0.25", "bright-0.5"):
        c = shared_run(name).conserved
        worst_run = max(worst_run, _max_abs(c - c[0]) / abs(c[0]))

    psi_traj = frame_pair[2]
    c = psi_traj.conserved
    psi_drift = _max_abs(c - c[0]) / abs(c[0])

    def dark_rhs(t, y):
        return np.asarray(dark.hamilton_rhs(y[0], y[1], 1.0, -200.0))

    traj = rk4_integrate(OdeSystem(2, dark_rhs), np.array([0.0, 1.0]),
                         0.0, 100.0, 1e-3)
    h = np.array([dark.hamiltonian(a, b, 1.0, -200.0) for a, b in traj.states[::1000]])
    h_drift = _max_abs(h - h[0]) / abs(h[0])

    def bright_rhs(t, y):
        return np.array([y[1], bright.eom_rhs(y[0], 0.5, 0.0, 1.0, -200.0)])

    traj_b = rk4_integrate(OdeSystem(2, bright_rhs), np.array([0.0, 0.0]),
                           0.0, 100.0, 1e-3)
    energy = (0.5 * traj_b.states[:, 1] ** 2
              + bright.effective_potential(traj_b.states[:, 0],
                                           0.5, 0.0, 1.0, -200.0))
    e_drift = _max_abs(energy - energy[0]) / abs(energy[0])

    ok = worst_run <= 1e-6 and psi_drift <= 1e-6 \
        and h_drift <= 1e-8 and e_drift <= 1e-8
    _report(9, ok, f"field-norm drift {worst_run:.2e} (u-frame worst) / "
                   f"{psi_drift:.2e} (psi-frame), tol 1e-6; particle-energy "
                   f"drift {h_drift:.2e} dark / {e_drift:.2e} bright, tol 1e-8")


@_criterion(10)
def test_c10_taylor_matches_quadrature():
    grid = build_grid(-150.0, 150.0, 4097)
    prof = make_inverse_square(1.0, -200.0, grid)

    def rel_gap(full, taylor):
        gaps = []
        for a, b in zip(full, taylor):
            scale = max(abs(a), abs(b))
            if scale > 1e-12:
                gaps.append(abs(a - b) / scale)
        return max(gaps)

    worst = 0.0
    for a0 in (0.0, 0.25, 0.5):
        p = dark.DarkSolitonParams(A=a0, x0=0.0)
        worst = max(worst, rel_gap(dark.rhs_full(p, prof, grid),
                                   dark.rhs_taylor(p, prof)))
    for eta in (0.25, 0.5):
        p = bright.BrightSolitonParams(eta=eta, xi=0.25, zeta=0.0)
        worst = max(worst, rel_gap(bright.rhs_full(p, prof, grid),
                                   bright.rhs_taylor(p, prof)))
    _report(10, worst <= 1e-3,
            f"quadrature-vs-closed-form relative gap {worst:.3e} (tol 1e-3)")


@_criterion(11)
def test_c11_amplitude_width_invariant():
    grid = build_grid(-150.0, 150.0, 4097)
    prof = make_inverse_square(1.0, -200.0, grid)

    def rhs(t, y):
        p = bright.BrightSolitonParams(eta=float(y[0]), xi=float(y[1]),
                                       zeta=float(y[2]))
        return np.asarray(bright.rhs_taylor(p, prof))

    traj = abm4_integrate(OdeSystem(3, rhs), np.array([0.5, 0.25, 0.0]),
                          0.0, 25.0, 1e-3)
    inv = traj.states[:, 0] * (traj.states[:, 2] - 200.0) ** 2
    drift = _max_abs(inv - inv[0]) / abs(inv[0])
    _report(11, drift <= 1e-10,
            f"amplitude-width invariant relative drift {drift:.3e} (tol 1e-10)")


@_criterion(12)
def test_c12_integrator_cross_check():
    grid = build_grid(-150.0, 150.0, 4097)
    prof = make_inverse_square(1.0, -200.0, grid)

    def rhs(t, y):
        p = dark.DarkSolitonParams(A=float(y[0]), x0=float(y[1]))
        return np.asarray(dark.rhs_taylor(p, prof))

    sys2 = OdeSystem(2, rhs)
    y0 = np.array([0.25, 0.0])
    t_rk4 = rk4_integrate(sys2, y0, 0.0, 100.0, 1e-3)
    t_abm = abm4_integrate(sys2, y0, 0.0, 100.0, 1e-3)
    gap = _max_abs(t_rk4.states - t_abm.states)

    decay = OdeSystem(1, lambda t, y: -y)
    orders = []
    for integrate in (rk4_integrate, abm4_integrate):
        errs = []
        for dt in (0.05, 0.025):
            tr = integrate(decay, np.array([1.0]), 0.0, 1.0, dt)
            errs.append(abs(float(tr.states[-1, 0]) - np.exp(-1.0)))
        orders.append(np.log2(errs[0] / errs[1]))
    order_ok = all(3.5 < o < 4.6 for o in orders)

    _report(12, gap <= 1e-8 and order_ok,
            f"integrator trajectory gap {gap:.3e} (tol 1e-8), convergence "
            f"orders {orders[0]:.2f} / {orders[1]:.2f}")
