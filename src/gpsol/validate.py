"""Fast invariant suite behind the `gpsol validate` subcommand.

Each check re-derives a property the library is built on and prints one
PASS/FAIL line.  The whole suite touches every module and finishes in
well under a minute; the heavyweight experiment comparisons live in the
test suite instead.
"""

from __future__ import annotations

import numpy as np

from . import bright_soliton as bright
from . import dark_soliton as dark
from .grid_field import build_grid, simpson
from .inhomogeneity import make_inverse_square
from .ode_engine import OdeSystem, abm4_integrate, rk4_integrate
from .pde_engine import EvolutionProblem, _rhs_kernel, evolve, norm_drift

__all__ = ["run_all"]


def _check_stencils():
    # the field kernel itself, dark variant on the inverse-square profile,
    # against the exact right-hand side of u = sin 3x on the interior rows;
    # past 401 points roundoff pulls the ratio below 12
    errs = []
    for n in (201, 401):
        g = build_grid(-1.0, 1.0, n)
        prof = make_inverse_square(1.0, -200.0, g)
        f = np.sin(3.0 * g.x)
        exact = 1j * (-4.5 * f + prof.advection_coef(g.x) * 3.0 * np.cos(3.0 * g.x)
                      + (1.0 - f * f) * f)
        out = np.zeros(n, dtype=np.complex128)
        kernel = _rhs_kernel(EvolutionProblem("transformed-dark-rotated", prof, g))
        kernel(f.astype(np.complex128), out)
        errs.append(np.max(np.abs(out[2:-2] - exact[2:-2])))
    ratio = errs[0] / errs[1]
    return ratio > 12.0, f"field right-hand side refinement ratio {ratio:.1f} (expect ~16)"


def _check_simpson():
    g = build_grid(-20.0, 20.0, 801)
    val = simpson(1.0 / np.cosh(g.x) ** 2, g.dx)
    odd = simpson(g.x * np.exp(-g.x ** 2), g.dx)
    ok = abs(val - 2.0) < 1e-12 and abs(odd) < 1e-12
    return ok, f"sech^2 integral err {abs(val - 2.0):.1e}, odd integral {abs(odd):.1e}"


def _check_profile():
    g = build_grid(-150.0, 150.0, 257)
    prof = make_inverse_square(1.0, -200.0, g)
    x = g.x
    adv_identity = np.max(np.abs(prof.advection_coef(x) * (-200.0 + x) - 1.0))
    veff = np.max(np.abs(prof.potential_coef(x)))
    flat = make_inverse_square(0.0, 1.0, g)
    flat_adv = np.max(np.abs(flat.advection_coef(x)))
    ok = adv_identity < 1e-12 and veff == 0.0 and flat_adv == 0.0
    return ok, (f"advection identity err {adv_identity:.1e}, "
                f"potential term max {veff:.1e}")


def _check_integrators():
    system = OdeSystem(1, lambda y: -y)
    y0 = np.array([1.0])
    errs = {"rk4": [], "abm4": []}
    for dt in (1e-2, 5e-3):
        for name, fn in (("rk4", rk4_integrate), ("abm4", abm4_integrate)):
            traj = fn(system, y0, 2.0, dt)
            errs[name].append(abs(traj.states[-1, 0] - np.exp(-2.0)))
    orders = {k: np.log2(v[0] / v[1]) for k, v in errs.items()}
    a = rk4_integrate(system, y0, 2.0, 1e-3).states[-1, 0]
    b = abm4_integrate(system, y0, 2.0, 1e-3).states[-1, 0]
    ok = orders["rk4"] > 3.5 and orders["abm4"] > 3.5 and abs(a - b) < 1e-8
    return ok, (f"orders rk4 {orders['rk4']:.2f}, abm4 {orders['abm4']:.2f}, "
                f"cross diff {abs(a - b):.1e}")


def _check_dark_tiers():
    g = build_grid(-150.0, 150.0, 4097)
    prof = make_inverse_square(1.0, -200.0, g)
    worst = 0.0
    for A in (0.0, 0.25, 0.5):
        p = dark.DarkSolitonParams(A=A, x0=0.0)
        dA_f, _ = dark.rhs_full(p, prof, g)
        dA_t, _ = dark.rhs_taylor(p, prof)
        worst = max(worst, abs(dA_f - dA_t) / abs(dA_t))
    return worst <= 1e-3, f"dark full-vs-taylor dA/dt rel diff {worst:.2e}"


def _check_bright_tiers():
    g = build_grid(-150.0, 150.0, 4097)
    prof = make_inverse_square(1.0, -200.0, g)
    worst = 0.0
    for eta in (0.25, 0.5):
        p = bright.BrightSolitonParams(eta=eta, xi=0.25, zeta=0.0)
        full = bright.rhs_full(p, prof, g)
        taylor = bright.rhs_taylor(p, prof)
        worst = max(worst, abs(full[1] - taylor[1]) / abs(taylor[1]))
    return worst <= 1e-3, f"bright full-vs-taylor dxi rel diff {worst:.2e}"


def _check_amplitude_invariant():
    g = build_grid(-150.0, 150.0, 257)
    prof = make_inverse_square(1.0, -200.0, g)

    def rhs(y):
        p = bright.BrightSolitonParams(eta=y[0], xi=y[1], zeta=y[2])
        return np.asarray(bright.rhs_taylor(p, prof))

    traj = rk4_integrate(OdeSystem(3, rhs), np.array([0.5, 0.25, 0.0]), 25.0, 5e-2)
    pinned = bright.eta_closed_form(traj.states[:, 2], 0.5, 0.0, 1.0, -200.0)
    drift = np.max(np.abs(traj.states[:, 0] - pinned)) / 0.5
    return drift <= 1e-10, f"eta against eta_closed_form relative drift {drift:.2e}"


def _check_dark_energy():
    h0 = dark.hamiltonian(0.0, 0.0, 1.0, -200.0)

    def rhs(y):
        return np.asarray(dark.hamilton_rhs(y[0], y[1], 1.0, -200.0))

    traj = rk4_integrate(OdeSystem(2, rhs), np.array([0.0, 0.0]), 100.0, 5e-2)
    hs = np.array([dark.hamiltonian(a, b, 1.0, -200.0) for a, b in traj.states[::20]])
    drift = np.max(np.abs(hs - h0)) / abs(h0)
    return drift <= 1e-8, f"dark Hamiltonian relative drift {drift:.2e}"


def _check_bright_energy():
    def rhs(y):
        return np.array([y[1], bright.eom_rhs(y[0], 0.5, 0.0, 1.0, -200.0)])

    traj = rk4_integrate(OdeSystem(2, rhs), np.array([0.0, 0.0]), 100.0, 5e-2)
    energy = (0.5 * traj.states[:, 1] ** 2
              + bright.effective_potential(traj.states[:, 0], 0.5, 0.0, 1.0, -200.0))
    drift = np.max(np.abs(energy - energy[0])) / abs(energy[0])
    return drift <= 1e-8, f"bright EOM energy relative drift {drift:.2e}"


def _check_bright_gradient():
    worst = 0.0
    h = 1e-5
    for z in (-50.0, 0.0, 50.0):
        grad = (bright.effective_potential(z + h, 0.5, 0.0, 1.0, -200.0)
                - bright.effective_potential(z - h, 0.5, 0.0, 1.0, -200.0)) / (2 * h)
        worst = max(worst, abs(bright.eom_rhs(z, 0.5, 0.0, 1.0, -200.0) + grad))
    return worst <= 1e-10, f"bright force-vs-potential mismatch {worst:.2e}"


def _check_directions():
    g = build_grid(-150.0, 150.0, 4097)
    prof = make_inverse_square(1.0, -200.0, g)
    dA_full, _ = dark.rhs_full(dark.DarkSolitonParams(A=0.0, x0=0.0), prof, g)
    dark_signs = (dA_full < 0.0
                  and dark.eom_rhs(0.0, 0.0, 1.0, -200.0) < 0.0
                  and dark.eom_a_rhs(0.0, 1.0, -200.0) < 0.0)
    dxi = bright.rhs_full(bright.BrightSolitonParams(eta=0.5, xi=0.0, zeta=0.0),
                          prof, g)[1]
    bright_signs = (dxi < 0.0  # d xi < 0 means lab velocity -2 xi grows positive
                    and bright.eom_rhs(0.0, 0.5, 0.0, 1.0, -200.0) > 0.0)
    return dark_signs and bright_signs, "initial forces point at the singularity side"


def _check_pde_conservation():
    g = build_grid(-40.0, 40.0, 1025)
    prof = make_inverse_square(1.0, -200.0, g)
    problem = EvolutionProblem("transformed-dark-rotated", prof, g)
    field0 = dark.ansatz(dark.DarkSolitonParams(A=0.25, x0=0.0), g)
    dt = 2e-3
    traj = evolve(problem, field0, 0.0, 1.0, dt, 100)
    drift = norm_drift(traj.conserved)
    return drift <= 1e-6, f"short dark PDE norm drift {drift:.2e}"


_CHECKS = (
    ("stencil-order", _check_stencils),
    ("quadrature", _check_simpson),
    ("profile-identities", _check_profile),
    ("integrator-order", _check_integrators),
    ("dark-tier-consistency", _check_dark_tiers),
    ("bright-tier-consistency", _check_bright_tiers),
    ("amplitude-invariant", _check_amplitude_invariant),
    ("dark-energy", _check_dark_energy),
    ("bright-energy", _check_bright_energy),
    ("bright-gradient", _check_bright_gradient),
    ("force-directions", _check_directions),
    ("pde-conservation", _check_pde_conservation),
)


def run_all() -> bool:
    """Run and print every invariant check; True when all pass."""
    all_ok = True
    for name, check in _CHECKS:
        try:
            ok, detail = check()
        except Exception as err:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(err).__name__}: {err}"
        ok = bool(ok)
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok
