"""Dark-soliton dynamics: ansatz, reduced ODEs, particle models.

The field ansatz is u = B tanh(B (x - x0)) + i A with A^2 + B^2 = 1, a
unit background written in the frame where the background rotation has
been removed.  A is the depth/velocity parameter, x0 the center.

Reduction hierarchy, from most to least faithful:

  rhs_full    adiabatic ODEs with the profile under the integrals
  rhs_taylor  same after expanding the profile around the center
  eom_rhs     Newtonian equation for the center with velocity factor
  eom_a_rhs   small-velocity form of the above

The slow integrals are evaluated by Simpson quadrature over the window
|x - x0| <= 17/B, outside which sech^2 drops below 1e-14.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExtractionError, ParameterError, RangeError
from .grid_field import ComplexField, SpatialGrid, simpson
from .inhomogeneity import InhomogeneityProfile, window_coefficients

__all__ = [
    "WINDOW_HALFWIDTH_FACTOR",
    "DarkSolitonParams",
    "DarkParticleState",
    "ansatz",
    "rhs_full",
    "rhs_taylor",
    "eom_rhs",
    "eom_a_rhs",
    "effective_potential",
    "hamiltonian",
    "hamilton_rhs",
    "extract_center",
    "default_background_probe",
]

# sech^2 at 17 is ~7e-15, so the quadrature window is |x - x0| <= 17/B.
WINDOW_HALFWIDTH_FACTOR = 17.0


@dataclass(frozen=True)
class DarkSolitonParams:
    """Depth/velocity parameter A (|A| < 1) and center x0; B = sqrt(1 - A^2)."""

    A: float
    x0: float

    def __post_init__(self):
        if not abs(self.A) < 1.0:
            raise ParameterError(f"dark soliton needs |A| < 1, got A = {self.A}")

    @property
    def B(self) -> float:
        return float(np.sqrt(1.0 - self.A * self.A))


def ansatz(params: DarkSolitonParams, grid: SpatialGrid) -> ComplexField:
    """Field samples of B tanh(B (x - x0)) + i A."""
    B = params.B
    vals = B * np.tanh(B * (grid.x - params.x0)) + 1j * params.A
    return ComplexField(grid, vals)


def rhs_full(params: DarkSolitonParams, profile: InhomogeneityProfile,
             grid: SpatialGrid) -> tuple[float, float]:
    """(dA/dt, dx0/dt) from the adiabatic integral equations.

    The profile enters through sqrt(g) d/dx (1/sqrt(g)) evaluated across
    the soliton window; where the curvature coefficient
    sqrt(g) d2/dx2 (1/sqrt(g)) does not vanish on the grid, it contributes
    two further integrals.
    """
    A = params.A
    B = params.B
    x, adv, pot = window_coefficients(profile, grid, params.x0,
                                      WINDOW_HALFWIDTH_FACTOR / B)
    dx = grid.dx
    th = B * (x - params.x0)
    sech2 = 1.0 / np.cosh(th) ** 2
    tanh = np.tanh(th)
    adv_sech2 = adv * sech2
    rows = [adv_sech2 * sech2, adv_sech2 * (tanh + th * sech2)]
    if pot is not None:
        rows += [pot * tanh * sech2,
                 pot * (tanh * tanh / B - 1.0 + (x - params.x0) * tanh * sech2)]
    integrals = simpson(np.array(rows), dx)

    dA = 0.5 * B ** 3 * integrals[0]
    dx0 = A - 0.5 * A * integrals[1]
    if pot is not None:
        dA += 0.25 * B * B * integrals[2]
        dx0 -= 0.25 * integrals[3]
    return float(dA), float(dx0)


def rhs_taylor(params: DarkSolitonParams, profile: InhomogeneityProfile) -> tuple[float, float]:
    """(dA/dt, dx0/dt) with the profile expanded around the center.

    For the closed form g = 1/(D + C x)^2 (homogeneous included, C = 0)
    the center equation collapses to dx0/dt = A exactly; a generic profile
    keeps the curvature correction of the general expansion.
    """
    A = params.A
    x0 = params.x0
    if not profile.contains(x0, x0):
        raise RangeError(f"center {x0} outside profile validity")
    if profile.C is not None:
        w = profile.D + profile.C * x0
        return (2.0 / 3.0) * (1.0 - A * A) * profile.C / w, A
    adv = float(profile.advection_coef(x0))
    dA = (2.0 / 3.0) * (1.0 - A * A) * adv
    B2 = 1.0 - A * A
    curv = float(profile.second_derivative_inv_g(x0)) / float(profile.inv_sqrt_g(x0))
    dx0 = A + 0.25 * (A / B2) * curv
    return dA, dx0


def _check_regular(w) -> None:
    # a float (np.float64 included) is tested directly, an array elementwise
    singular = w == 0.0 if isinstance(w, float) else np.any(np.asarray(w) == 0.0)
    if singular:
        raise RangeError("particle sits on the profile singularity")


def eom_rhs(x0: float, v: float, C: float, D: float) -> float:
    """Center acceleration (2/3) C/(D + C x0) (1 - v^2)."""
    w = D + C * x0
    _check_regular(w)
    return (2.0 / 3.0) * C / w * (1.0 - v * v)


def eom_a_rhs(x0: float, C: float, D: float) -> float:
    """Small-velocity center acceleration (2/3) C/(D + C x0)."""
    w = D + C * x0
    _check_regular(w)
    return (2.0 / 3.0) * C / w


def effective_potential(x0, C: float, D: float):
    """Potential -(2/3) ln|C x0 + D| whose gradient gives eom_a_rhs."""
    w = C * np.asarray(x0, dtype=np.float64) + D
    _check_regular(w)
    out = -(2.0 / 3.0) * np.log(np.abs(w))
    return float(out) if np.ndim(x0) == 0 else out


@dataclass(frozen=True)
class DarkParticleState:
    """Canonical center coordinate and generalized momentum."""

    x0: float
    P: float
    mu: float = 1.0

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ParameterError(f"particle mass scale must be positive, got {self.mu}")


def _mass_factor(x0: float, C: float, D: float) -> float:
    # (D + C x0)^(4/3) evaluated on the real branch via ((D + C x0)^2)^(2/3)
    w = D + C * x0
    _check_regular(np.asarray(w))
    return float((w * w) ** (2.0 / 3.0))


def hamiltonian(state: DarkParticleState, C: float, D: float) -> float:
    """H = P^2/(2 mu) s^-1 - (mu/2) s with s = ((D + C x0)^2)^(2/3)."""
    s = _mass_factor(state.x0, C, D)
    return state.P ** 2 / (2.0 * state.mu) / s - 0.5 * state.mu * s


def hamilton_rhs(state: DarkParticleState, C: float, D: float) -> tuple[float, float]:
    """(dx0/dt, dP/dt) for the canonical center/momentum pair."""
    w = D + C * state.x0
    s = _mass_factor(state.x0, C, D)
    g_ps = state.mu * s
    f = (2.0 / 3.0) * C / w
    dg = (4.0 / 3.0) * C * g_ps / w
    dx0 = state.P / g_ps
    dP = g_ps * f + state.P ** 2 * (dg / g_ps ** 2 - f / g_ps)
    return dx0, dP


def extract_center(dens: np.ndarray, grid: SpatialGrid, x_b: float) -> float:
    """Squared-dip centroid against the background density probed at x_b.

    dens is a field sample's density |u|^2 on grid.  x0 = integral of
    x (b - |u|^2)^2 over integral of (b - |u|^2)^2 with b the density at
    the grid point nearest to x_b, taken over the window
    |x - x_min_density| <= 17/B_est (clipped to the grid).

    The squared weight keeps the measurement locked to the soliton core.
    A moving dark soliton drags a counterflow shelf, a background ripple
    of order |C/D| spreading at unit sound speed; the plain dip centroid
    absorbs the shelf's first moment and reports roughly twice the core
    acceleration, while squaring suppresses the shelf quadratically and
    leaves the centroid of the symmetric core dip untouched.
    """
    if not (grid.x_min <= x_b <= grid.x_max):
        raise RangeError(f"background probe {x_b} outside grid")
    j = int(round((x_b - grid.x_min) / grid.dx))
    b = dens[j]
    j_min = int(np.argmin(dens))
    depth = b - dens[j_min]
    if not depth > 1e-8:
        raise ExtractionError("no density dip against the probed background")
    b_est = np.sqrt(depth / b) if b > 0.0 else 1.0
    half = WINDOW_HALFWIDTH_FACTOR / max(b_est, 1e-6)
    i0 = max(0, j_min - int(half / grid.dx))
    i1 = min(grid.n_points, j_min + int(half / grid.dx) + 1)
    if (i1 - i0) % 2 == 0:
        if i1 - i0 > 3:
            i1 -= 1
        elif i0 > 0:
            i0 -= 1
        else:
            i1 += 1
    if i1 - i0 < 3 or i1 > grid.n_points:
        raise ExtractionError("density dip window collapsed at the grid edge")
    dip = b - dens[i0:i1]
    weight = dip * dip
    den = simpson(weight, grid.dx)
    if not abs(den) > 1e-8:
        raise ExtractionError("no density dip against the probed background")
    num = simpson(grid.x[i0:i1] * weight, grid.dx)
    return num / den


def default_background_probe(grid: SpatialGrid, x0_estimate: float) -> float:
    """Probe point 30 units inside the edge farther from the soliton."""
    mid = 0.5 * (grid.x_min + grid.x_max)
    if x0_estimate >= mid:
        return grid.x_min + 30.0
    return grid.x_max - 30.0
