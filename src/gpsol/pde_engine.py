"""Method-of-lines evolution of the three governing field equations.

Variants (all first order in time, written for the time derivative):

  original-psi             i dPsi/dt = -1/2 Psi_xx + s g |Psi|^2 Psi
  transformed-bright       i du/dt   = -1/2 u_xx  -   |u|^2 u       + P[u]
  transformed-dark-rotated i du/dt   = -1/2 u_xx  +  (|u|^2 - 1) u  + P[u]

with P[u] = V_eff u - coef du/dx from the inhomogeneity profile.  Space is
discretized with the fourth-order stencils of grid_field; the two outermost
points on each side are clamped to their initial values (their time
derivative is forced to zero), which doubles as the boundary condition.

Each stepper has its own bound dt <= factor * dx^2 for the dispersion
term, whose grid-scale mode has eigenvalue -(8/3) i / dx^2.  RK4 is
stable on the imaginary axis up to 1.06 dx^2 and is held to 0.4 dx^2.
The single-pass ABM4 predictor-corrector is never strictly stable there:
it amplifies the grid-scale mode by up to 7e-3 per step below a knee near
0.348 dx^2, and faster above it (0.05 at 0.36, 0.23 at 0.4), so it is held
to 0.34 dx^2.  Below the knee the growth per unit time barely depends on
dt from 0.256 dx^2 up, and on the default grid such a run turns
non-finite after about 10 time units; at 0.093 dx^2 the growth is only
3e-5 per step.  check_time_step enforces the bound; evolve calls it up
front, and the harness calls it before any tier runs.

The right-hand side kernel writes into caller-owned arrays and keeps its
stencil temporaries for the whole evolve call.  The RK4 and ABM4 steps,
the step count and the non-finite check belong to ode_engine: evolve
validates its inputs and hands the kernel to ode_engine.march, which
advances the field in place; once the steps' work arrays exist, a field
step allocates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid_field import ComplexField, SpatialGrid, simpson
from .inhomogeneity import InhomogeneityProfile
from .ode_engine import abm4_step, march, rk4_step, step_count

__all__ = [
    "VARIANTS",
    "STEPPERS",
    "STABILITY_FACTORS",
    "EvolutionProblem",
    "PdeTrajectory",
    "rhs",
    "check_time_step",
    "evolve",
    "conserved_quantities",
]

VARIANTS = ("original-psi", "transformed-bright", "transformed-dark-rotated")
# dt <= STABILITY_FACTORS[stepper] * dx^2; see the module docstring
STABILITY_FACTORS = {"rk4": 0.4, "abm4": 0.34}
STEPPERS = tuple(STABILITY_FACTORS)

_VARIANT_S = {"transformed-bright": -1, "transformed-dark-rotated": +1}


@dataclass
class EvolutionProblem:
    """One governing equation on one grid with one interaction profile."""

    variant: str
    profile: InhomogeneityProfile
    grid: SpatialGrid
    s: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if not self.profile.contains(self.grid.x_min, self.grid.x_max):
            raise ConfigurationError("profile does not cover the grid")
        if self.variant == "original-psi":
            if self.s not in (-1, 1):
                raise ConfigurationError("original-psi needs s = +1 or -1")
        else:
            implied = _VARIANT_S[self.variant]
            if self.s is None:
                self.s = implied
            elif self.s != implied:
                raise ConfigurationError(
                    f"{self.variant} implies s = {implied}, got {self.s}"
                )
        x = self.grid.x
        self._g = np.asarray(self.profile.g(x), dtype=np.float64)
        self._inv_g = 1.0 / self._g
        # the transformation-induced terms belong to the u frames only;
        # the psi frame keeps the bare interaction profile instead
        self._adv = None
        self._veff = None
        if self.variant != "original-psi":
            adv = np.asarray(self.profile.advection_coef(x), dtype=np.float64)
            if np.any(adv != 0.0):
                self._adv = adv
            if self.profile.kind == "generic":
                veff = -0.5 * np.asarray(self.profile.potential_coef(x), dtype=np.float64)
                if np.any(veff != 0.0):
                    self._veff = veff


def _rhs_kernel(problem: EvolutionProblem):
    """du/dt kernel rhs_into(t, u, out) that writes into out[2:-2].

    The stencil temporaries are allocated here, once, and reused by every
    call.  The clamped rows of out are never written: the caller zeroes
    them once when it allocates out.
    """
    dx = problem.grid.dx
    c2 = 1.0 / (12.0 * dx * dx)
    c1 = 1.0 / (12.0 * dx)
    variant = problem.variant
    s = problem.s
    g_int = problem._g[2:-2]
    adv = problem._adv
    adv_int = adv[2:-2] if adv is not None else None
    veff = problem._veff
    veff_int = veff[2:-2] if veff is not None else None
    m = problem.grid.n_points - 4
    interior = np.empty(m, dtype=np.complex128)
    tmp = np.empty(m, dtype=np.complex128)
    du = np.empty(m, dtype=np.complex128) if adv_int is not None else None
    dens = np.empty(m)
    dens_im = np.empty(m)

    def rhs_into(t: float, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        ui = u[2:-2]
        # lap = (-u[:-4] + 16 u[1:-3] - 30 ui + 16 u[3:-1] - u[4:]) * c2
        np.negative(u[:-4], out=interior)
        np.add(interior, np.multiply(16.0, u[1:-3], out=tmp), out=interior)
        np.subtract(interior, np.multiply(30.0, ui, out=tmp), out=interior)
        np.add(interior, np.multiply(16.0, u[3:-1], out=tmp), out=interior)
        np.subtract(interior, u[4:], out=interior)
        np.multiply(interior, c2, out=interior)
        np.square(ui.real, out=dens)
        np.add(dens, np.square(ui.imag, out=dens_im), out=dens)
        np.multiply(0.5, interior, out=interior)
        if variant == "original-psi":
            # 0.5 lap - s (g |u|^2) u
            np.multiply(g_int, dens, out=dens)
            np.multiply(s, dens, out=dens)
            np.subtract(interior, np.multiply(dens, ui, out=tmp), out=interior)
        elif variant == "transformed-bright":
            # 0.5 lap + |u|^2 u
            np.add(interior, np.multiply(dens, ui, out=tmp), out=interior)
        else:  # transformed-dark-rotated: 0.5 lap - (|u|^2 - 1) u
            np.subtract(dens, 1.0, out=dens)
            np.subtract(interior, np.multiply(dens, ui, out=tmp), out=interior)
        if adv_int is not None:
            # + adv (u[:-4] - 8 u[1:-3] + 8 u[3:-1] - u[4:]) * c1
            np.subtract(u[:-4], np.multiply(8.0, u[1:-3], out=tmp), out=du)
            np.add(du, np.multiply(8.0, u[3:-1], out=tmp), out=du)
            np.subtract(du, u[4:], out=du)
            np.multiply(du, c1, out=du)
            np.add(interior, np.multiply(adv_int, du, out=du), out=interior)
        if veff_int is not None:
            np.subtract(interior, np.multiply(veff_int, ui, out=tmp), out=interior)
        np.multiply(1j, interior, out=out[2:-2])
        return out

    return rhs_into


def rhs(problem: EvolutionProblem, field: ComplexField, t: float = 0.0) -> ComplexField:
    """Time derivative of the field under the problem's equation.

    The clamped rows (two outermost points per side) report zero.
    """
    if field.grid is not problem.grid and field.grid != problem.grid:
        raise ConfigurationError("field grid differs from problem grid")
    out = np.zeros(problem.grid.n_points, dtype=np.complex128)
    return ComplexField(problem.grid, _rhs_kernel(problem)(t, field.values, out))


def conserved_quantities(problem: EvolutionProblem, field: ComplexField) -> dict[str, float]:
    """The conserved norm of the variant's frame.

    original-psi conserves N_psi = integral |Psi|^2; the transformed
    variants conserve N_w = integral |u|^2 / g.
    """
    name = "N_psi" if problem.variant == "original-psi" else "N_w"
    return {name: _norm(problem, field.values)}


def _norm(problem: EvolutionProblem, u: np.ndarray) -> float:
    dens = u.real ** 2 + u.imag ** 2
    if problem.variant == "original-psi":
        return simpson(dens, problem.grid.dx)
    return simpson(dens * problem._inv_g, problem.grid.dx)


@dataclass
class PdeTrajectory:
    """Field snapshots at a uniform sampling cadence plus conserved values."""

    times: np.ndarray
    fields: np.ndarray
    conserved: np.ndarray
    conserved_name: str
    norm_drift_warning: bool = False

    def __post_init__(self):
        ns = self.times.shape[0]
        if self.fields.shape[0] != ns or self.conserved.shape[0] != ns:
            raise ConfigurationError("trajectory arrays disagree in length")


def check_time_step(dt: float, grid: SpatialGrid, stepper: str) -> None:
    """Raise ConfigurationError unless stepper is known and dt within its bound.

    The bound is dt <= STABILITY_FACTORS[stepper] * dx^2 on the grid.
    """
    if stepper not in STEPPERS:
        raise ConfigurationError(f"unknown stepper {stepper!r}")
    dx = grid.dx
    bound = STABILITY_FACTORS[stepper] * dx * dx
    if not 0.0 < dt <= bound * (1.0 + 1e-12):
        raise ConfigurationError(
            f"dt = {dt:g} violates the {stepper} stability bound {bound:g} for dx = {dx:g}"
        )


def evolve(
    problem: EvolutionProblem,
    field0: ComplexField,
    t0: float,
    t_end: float,
    dt: float,
    sample_every: int,
    stepper: str = "rk4",
    norm_drift_tol: float = 1e-6,
) -> PdeTrajectory:
    """March the field from t0 to t_end, sampling every sample_every steps.

    The step count (t_end - t0)/dt must be an integer multiple of
    sample_every.  Non-finite samples abort with InstabilityError carrying
    the detection time; a relative drift of the conserved norm beyond
    norm_drift_tol sets the trajectory's warning flag.
    """
    check_time_step(dt, problem.grid, stepper)
    n_steps = step_count(t0, t_end, dt)
    sample_every = int(sample_every)
    if sample_every < 1 or n_steps % sample_every != 0:
        raise ConfigurationError(
            f"{n_steps} steps do not split into samples of {sample_every}"
        )
    if field0.grid != problem.grid:
        raise ConfigurationError("initial field grid differs from problem grid")

    n_samples = n_steps // sample_every + 1
    times = t0 + (dt * sample_every) * np.arange(n_samples)
    fields = np.empty((n_samples, problem.grid.n_points), dtype=np.complex128)
    conserved = np.empty(n_samples)

    def record(j: int, u: np.ndarray) -> None:
        fields[j] = u
        conserved[j] = _norm(problem, u)

    u = field0.values.copy()
    record(0, u)
    # looked up in this module at each call, so that a wrapper installed
    # on pde_engine.rk4_step is the step that runs
    step = rk4_step if stepper == "rk4" else abm4_step
    march(step, _rhs_kernel(problem), u, t0, dt, n_steps, sample_every, record)

    c0 = conserved[0]
    scale = abs(c0) if abs(c0) > 1e-300 else 1.0
    drift = float(np.max(np.abs(conserved - c0))) / scale
    return PdeTrajectory(
        times=times,
        fields=fields,
        conserved=conserved,
        conserved_name="N_psi" if problem.variant == "original-psi" else "N_w",
        norm_drift_warning=bool(drift > norm_drift_tol),
    )
