"""Dark-soliton dynamics: ansatz, reduced ODEs, particle models.

The field ansatz is u = B tanh(B (x - x0)) + i A with A^2 + B^2 = 1, a
unit background written in the frame where the background rotation has
been removed.  A is the depth/velocity parameter, x0 the center.

Reduction hierarchy, from most to least faithful:

  rhs_full    adiabatic ODEs with the profile under the integrals
  rhs_taylor  same after expanding the closed-form profile around the
              center; the harness's eom tier reads this march
  eom_rhs     the same model as a Newtonian equation for the center with
              velocity factor, in canonical form hamilton_rhs(x0, P) with
              P = s dx0/dt; no tier marches it, and gpsol validate checks
              it against rhs_taylor
  eom_a_rhs   small-velocity form of the above, the eom-a tier's equation

The slow integrals are evaluated by Simpson quadrature over the window
|x - x0| <= 17/B, outside which sech^2 drops below 1e-14; the extractor
cuts its window by the same grid_field.window_indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExtractionError, ParameterError, RangeError
from .grid_field import (WINDOW_HALFWIDTH_FACTOR, ComplexField, SpatialGrid, simpson,
                         window_indices)
from .inhomogeneity import InhomogeneityProfile, closed_form_w, window_coefficients

__all__ = [
    "DarkSolitonParams",
    "ansatz",
    "rhs_full",
    "rhs_taylor",
    "eom_rhs",
    "eom_a_rhs",
    "hamiltonian",
    "hamilton_rhs",
    "extract_center",
    "default_background_probe",
]


@dataclass(frozen=True)
class DarkSolitonParams:
    """Depth/velocity parameter A (|A| < 1) and finite center x0; B = sqrt(1 - A^2)."""

    A: float
    x0: float

    def __post_init__(self):
        if not abs(self.A) < 1.0:
            raise ParameterError(f"dark soliton needs |A| < 1, got A = {self.A}")
        try:  # math, not numpy: the reduced tiers build one per right-hand-side call
            finite = math.isfinite(self.x0)
        except OverflowError:  # an int past a float's range
            finite = False
        if not finite:
            raise ParameterError(f"dark soliton needs a finite center, got x0 = {self.x0}")

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

    The expansion drops the V_eff term, which vanishes only where 1/sqrt(g)
    is linear, so it takes only the closed form g = 1/(D + C x)^2
    (homogeneous included, C = 0), where the center equation collapses to
    dx0/dt = A exactly.  A generic profile raises ConfigurationError.
    """
    A = params.A
    x0 = params.x0
    w = closed_form_w(x0, profile.C, profile.D)
    if not profile.contains(x0, x0):
        raise RangeError(f"center {x0} outside profile validity")
    return (2.0 / 3.0) * (1.0 - A * A) * profile.C / w, A


def eom_rhs(x0: float, v: float, C: float, D: float) -> float:
    """Center acceleration (2/3) C/(D + C x0) (1 - v^2)."""
    return (2.0 / 3.0) * C / closed_form_w(x0, C, D) * (1.0 - v * v)


def eom_a_rhs(x0: float, C: float, D: float) -> float:
    """Small-velocity center acceleration (2/3) C/(D + C x0)."""
    return (2.0 / 3.0) * C / closed_form_w(x0, C, D)


def _mass_factor(w: float) -> float:
    # (D + C x0)^(4/3) evaluated on the real branch via ((D + C x0)^2)^(2/3)
    return (w * w) ** (2.0 / 3.0)


def hamiltonian(x0: float, P: float, C: float, D: float) -> float:
    """H = P^2/2 s^-1 - s/2 with s = ((D + C x0)^2)^(2/3)."""
    s = _mass_factor(closed_form_w(x0, C, D))
    return P ** 2 / 2.0 / s - 0.5 * s


def hamilton_rhs(x0: float, P: float, C: float, D: float) -> tuple[float, float]:
    """(dx0/dt, dP/dt) for the center x0 and its momentum P = s dx0/dt."""
    w = closed_form_w(x0, C, D)
    s = _mass_factor(w)
    f = (2.0 / 3.0) * C / w
    ds = (4.0 / 3.0) * C * s / w
    dx0 = P / s
    dP = s * f + P ** 2 * (ds / s ** 2 - f / s)
    return dx0, dP


def extract_center(dens: np.ndarray, grid: SpatialGrid, x_b: float) -> float:
    """Squared-dip centroid against the background density probed at x_b.

    dens is a field sample's density |u|^2 on grid.  x0 = integral of
    x (b - |u|^2)^2 over integral of (b - |u|^2)^2 with b the density at
    the grid point nearest to x_b, taken over the window
    |x - x_min_density| <= 17/B_est clipped to the grid, which
    window_indices cuts (RangeError when fewer than three points remain).

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
    x = grid.x
    i0, i1 = window_indices(grid, max(x[0], x[j_min] - half),
                            min(x[-1], x[j_min] + half))
    dip = b - dens[i0:i1]
    weight = dip * dip
    den = simpson(weight, grid.dx)
    if not abs(den) > 1e-8:
        raise ExtractionError("no density dip against the probed background")
    num = simpson(x[i0:i1] * weight, grid.dx)
    return num / den


def default_background_probe(grid: SpatialGrid, x0_estimate: float) -> float:
    """Probe point 30 units inside the edge farther from the soliton."""
    mid = 0.5 * (grid.x_min + grid.x_max)
    if x0_estimate >= mid:
        return grid.x_min + 30.0
    return grid.x_max - 30.0
