"""Method-of-lines evolution of the three governing field equations.

Variants (all first order in time, written for the time derivative):

  original-psi             i dPsi/dt = -1/2 Psi_xx + s g |Psi|^2 Psi
  transformed-bright       i du/dt   = -1/2 u_xx  -   |u|^2 u       + P[u]
  transformed-dark-rotated i du/dt   = -1/2 u_xx  +  (|u|^2 - 1) u  + P[u]

with P[u] = V_eff u - coef du/dx from the inhomogeneity profile.  The
kernel and the norm read g, coef and V_eff from coefficient_tables, as the
rhs_full quadratures do; EvolutionProblem only validates (variant, profile,
grid, s), and only original-psi takes the sign s: each transformed equation
fixes its own.  Space is discretized with fourth-order central five-point
stencils, the program's only derivative stencils; the two outermost points
on each side are clamped to their initial values (their time derivative is
forced to zero), which doubles as the boundary condition.

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

The right-hand side kernel writes into caller-owned arrays.  Its linear
terms (kinetic, advection and V_eff) live in one table of complex
five-point stencil coefficients over the interior rows, built once per
evolve call; a call sums the five products with the shifted field and
adds the variant's nonlinear term, all complex by complex.  The result
matches a term-by-term evaluation of the same stencils to roundoff, not
bitwise, because the sum runs in another order.  The RK4 and ABM4 steps,
the step count and the non-finite check belong to ode_engine: evolve
validates its inputs and hands the kernel to ode_engine.march, which
advances the field in place; once the steps' work arrays exist, a field
step allocates nothing.

Each sample's density goes once into rows evolve keeps for the run; the
conserved norm reads it, and so does the consumer on_sample(j, u, dens),
which sees every sample after the initial one, the live field buffer u
and dens valid only during the call.  The default consumer stores each
sample as a row of PdeTrajectory.fields, so that array grows with t_end.
A caller that passes its own consumer gets no snapshots (fields has zero
rows), and the field memory of the run stays bounded by the grid size.
norm_drift is the one relative drift of a conserved series; no flag is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .grid_field import ComplexField, SpatialGrid, density, simpson
from .inhomogeneity import InhomogeneityProfile, coefficient_tables
from .ode_engine import abm4_step, march, rk4_step, step_count

__all__ = [
    "VARIANTS",
    "STEPPERS",
    "STABILITY_FACTORS",
    "EvolutionProblem",
    "PdeTrajectory",
    "check_time_step",
    "evolve",
    "norm_drift",
]

VARIANTS = ("original-psi", "transformed-bright", "transformed-dark-rotated")
# dt <= STABILITY_FACTORS[stepper] * dx^2; see the module docstring
STABILITY_FACTORS = {"rk4": 0.4, "abm4": 0.34}
STEPPERS = tuple(STABILITY_FACTORS)
NORM_DRIFT_TOL = 1e-6  # relative drift of the norm past which a run warns


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
        elif self.s is not None:
            raise ConfigurationError(f"{self.variant} fixes its own sign; s is not taken")


# Fourth-order five-point stencils on u[k:k+m], k = 0..4: 12 dx^2 u'' and
# 12 dx u' at the interior rows u[2:-2]
_D2_STENCIL = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])
_D1_STENCIL = np.array([1.0, -8.0, 0.0, 8.0, -1.0])


def _rhs_kernel(problem: EvolutionProblem):
    """du/dt kernel rhs_into(t, u, out) that writes into out[2:-2].

    Every linear term is one complex-coefficient five-point stencil,
    tabulated here once over the interior rows:

        a_k = i (half_c2 s_k + c1 d_k adv - [k == 2] V_eff),  k = 0..4,

    with s and d the second- and first-derivative stencils, and adv and
    V_eff zero in the psi frame and where a table vanishes.  A call writes

        out[2:-2] = sum_k a_k u[k:k+m] + nl u[2:-2],

    where nl is purely imaginary: -s g |u|^2, |u|^2 or 1 - |u|^2 times i,
    by variant.  All products are complex by complex, so no call casts
    an array; the table, nl and the density temporaries are allocated
    here, once, and a call allocates no array data.  The clamped rows
    of out are never written: the caller zeroes them once when it
    allocates out.  Summed in this order, the result matches the term by
    term evaluation to roundoff, not bitwise.
    """
    dx = problem.grid.dx
    m = problem.grid.n_points - 4
    # the 0.5 of the kinetic term is folded in
    half_c2 = 0.5 / (12.0 * dx * dx)
    c1 = 1.0 / (12.0 * dx)
    coef = np.zeros((5, m), dtype=np.complex128)
    lin = coef.imag
    lin[:] = half_c2 * _D2_STENCIL[:, None]
    g, adv, pot = coefficient_tables(problem.profile, problem.grid)
    variant = problem.variant
    if variant == "original-psi":
        # -s g, exact: s is +-1
        neg_sg = -problem.s * g[2:-2]
    else:
        lin += c1 * _D1_STENCIL[:, None] * adv[2:-2]
        if pot is not None:
            lin[2] += 0.5 * pot[2:-2]  # -V_eff
    nl = np.zeros(m, dtype=np.complex128)
    nl_im = nl.imag
    tmp = np.empty(m, dtype=np.complex128)
    dens = np.empty(m)
    dens_im = np.empty(m)

    def rhs_into(t: float, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        ui = u[2:-2]
        np.square(ui.real, out=dens)
        np.square(ui.imag, out=dens_im)
        if variant == "transformed-bright":
            np.add(dens, dens_im, out=nl_im)
        elif variant == "original-psi":
            np.multiply(neg_sg, np.add(dens, dens_im, out=dens), out=nl_im)
        else:  # transformed-dark-rotated
            np.subtract(1.0, np.add(dens, dens_im, out=dens), out=nl_im)
        acc = out[2:-2]
        np.multiply(coef[0], u[:m], out=acc)
        for k in range(1, 5):
            np.add(acc, np.multiply(coef[k], u[k:k + m], out=tmp), out=acc)
        np.add(acc, np.multiply(nl, ui, out=tmp), out=acc)
        return out

    return rhs_into


def _norm(dens: np.ndarray, dx: float, inv_g: np.ndarray | None,
          work: np.ndarray) -> float:
    """The conserved norm of the variant's frame, from the density |u|^2.

    original-psi conserves N_psi = integral |Psi|^2 (inv_g None); the
    transformed variants conserve N_w = integral |u|^2 / g, whose integrand
    goes to work, a row evolve keeps for a run.
    """
    if inv_g is not None:
        dens = np.multiply(dens, inv_g, out=work)
    return simpson(dens, dx)


def norm_drift(conserved: np.ndarray) -> float:
    """Relative drift max|c - c0|/|c0| of a conserved series; absolute where c0 ~ 0."""
    c0 = float(conserved[0])
    scale = abs(c0) if abs(c0) > 1e-300 else 1.0
    return float(np.max(np.abs(conserved - c0))) / scale


@dataclass
class PdeTrajectory:
    """Sample times and conserved values, plus the field snapshots if stored.

    fields has one row per sample, or none when evolve handed the samples
    to a caller's consumer instead of storing them.
    """

    times: np.ndarray
    fields: np.ndarray
    conserved: np.ndarray

    def __post_init__(self):
        ns = self.times.shape[0]
        if self.fields.shape[0] not in (ns, 0) or self.conserved.shape[0] != ns:
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
    on_sample: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> PdeTrajectory:
    """March the field from t0 to t_end, sampling every sample_every steps.

    The step count (t_end - t0)/dt must be an integer multiple of
    sample_every.  Non-finite samples abort with InstabilityError carrying
    the detection time.

    Without on_sample every sample, the initial one included, is stored in
    the trajectory's fields.  With it, on_sample(j, u, dens) receives
    samples j = 1, 2, ... as the live field buffer u and its density dens,
    both valid only during the call, and fields has zero rows; an exception
    it raises ends the march.
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
    conserved = np.empty(n_samples)
    u = field0.values.copy()
    dx = problem.grid.dx
    inv_g = (None if problem.variant == "original-psi"
             else 1.0 / coefficient_tables(problem.profile, problem.grid)[0])
    # the sample's density and a scratch row, kept for the run
    buf = np.empty((2, problem.grid.n_points))
    conserved[0] = _norm(density(u, buf), dx, inv_g, buf[1])
    if on_sample is None:
        fields = np.empty((n_samples, problem.grid.n_points), dtype=np.complex128)
        fields[0] = u

        def on_sample(j: int, u: np.ndarray, dens: np.ndarray) -> None:
            fields[j] = u
    else:
        fields = np.empty((0, problem.grid.n_points), dtype=np.complex128)

    def record(j: int, u: np.ndarray) -> None:
        dens = density(u, buf)
        conserved[j] = _norm(dens, dx, inv_g, buf[1])
        on_sample(j, u, dens)

    # looked up in this module at each call, so that a wrapper installed
    # on pde_engine.rk4_step is the step that runs
    step = rk4_step if stepper == "rk4" else abm4_step
    march(step, _rhs_kernel(problem), u, t0, dt, n_steps, sample_every, record)
    return PdeTrajectory(times=times, fields=fields, conserved=conserved)
