"""Bright-soliton dynamics: ansatz, reduced ODEs, particle model.

The parameter ODEs live in the scaled time tau = t/2 natural to the
attractive-interaction equation; the harness resamples them onto the lab
time axis.  The field ansatz is

    u = 2 i eta exp(-2 i xi x - i Phi) sech(2 eta (x - zeta)),

with amplitude eta, velocity parameter xi (lab velocity -2 xi), center
zeta and global phase Phi.  The reduced tiers march (eta, xi, zeta) alone:
the phase equation decouples from them, and no recorded quantity depends
on a global phase, so Phi only sets the field ansatz's initial condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExtractionError, ParameterError, RangeError
from .grid_field import WINDOW_HALFWIDTH_FACTOR, ComplexField, SpatialGrid, simpson
from .inhomogeneity import InhomogeneityProfile, closed_form_w, window_coefficients

__all__ = [
    "BrightSolitonParams",
    "ansatz",
    "rhs_full",
    "rhs_taylor",
    "eta_closed_form",
    "eom_rhs",
    "effective_potential",
    "extract_center",
]


@dataclass(frozen=True)
class BrightSolitonParams:
    """Amplitude eta > 0, velocity parameter xi, center zeta, ansatz phase phi; all finite."""

    eta: float
    xi: float
    zeta: float
    phi: float = 0.0

    def __post_init__(self):
        if not self.eta > 0.0:
            raise ParameterError(f"bright soliton needs eta > 0, got {self.eta}")
        try:  # math, not numpy: the reduced tiers build one per right-hand-side call
            finite = all(map(math.isfinite, (self.eta, self.xi, self.zeta, self.phi)))
        except OverflowError:  # an int past a float's range
            finite = False
        if not finite:
            raise ParameterError(f"bright soliton parameters must be finite, got {self}")


def ansatz(params: BrightSolitonParams, grid: SpatialGrid) -> ComplexField:
    """Field samples of 2 i eta exp(-2 i xi x - i phi) sech(2 eta (x - zeta))."""
    x = grid.x
    with np.errstate(over="ignore"):  # cosh overflows far out, where 1/inf is exactly 0
        envelope = 2.0 * params.eta / np.cosh(2.0 * params.eta * (x - params.zeta))
    vals = 1j * envelope * np.exp(-1j * (2.0 * params.xi * x + params.phi))
    return ComplexField(grid, vals)


def rhs_full(params: BrightSolitonParams, profile: InhomogeneityProfile,
             grid: SpatialGrid) -> tuple[float, float, float]:
    """(d eta, d xi, d zeta)/d tau from the adiabatic integral equations.

    Three integrals over the soliton's window, and a fourth, the V_eff
    term of d xi, where the profile's potential does not vanish.
    """
    eta, xi, zeta = params.eta, params.xi, params.zeta
    x, adv, pot = window_coefficients(profile, grid, zeta,
                                      WINDOW_HALFWIDTH_FACTOR / (2.0 * eta))
    dx = grid.dx
    z = 2.0 * eta * (x - zeta)
    sech2 = 1.0 / np.cosh(z) ** 2
    tanh = np.tanh(z)
    rows = [adv * sech2, adv * tanh * tanh * sech2, adv * (x - zeta) * sech2]
    if pot is not None:
        rows.append(pot * tanh * sech2)
    integrals = simpson(np.array(rows), dx)

    d_eta = 8.0 * eta * eta * xi * integrals[0]
    d_xi = 8.0 * eta ** 3 * integrals[1]
    d_zeta = -4.0 * xi + 8.0 * eta * xi * integrals[2]
    if pot is not None:
        d_xi -= 2.0 * eta * eta * integrals[3]
    return float(d_eta), float(d_xi), float(d_zeta)


def rhs_taylor(params: BrightSolitonParams, profile: InhomogeneityProfile) -> tuple[float, float, float]:
    """(d eta, d xi, d zeta)/d tau with the profile frozen at the center.

    Like the dark tier, the expansion drops the V_eff term, so it takes
    only the closed form g = 1/(D + C x)^2; a generic profile raises
    ConfigurationError.
    """
    eta, xi, zeta = params.eta, params.xi, params.zeta
    adv = profile.C / closed_form_w(zeta, profile.C, profile.D)
    if not profile.contains(zeta, zeta):
        raise RangeError(f"center {zeta} outside profile validity")
    return 8.0 * eta * xi * adv, (8.0 / 3.0) * eta * eta * adv, -4.0 * xi


def _pinned(zeta, eta0: float, zeta0: float, C: float, D: float):
    if not eta0 > 0.0:
        raise ParameterError(f"needs eta0 > 0, got {eta0}")
    return closed_form_w(zeta, C, D), closed_form_w(zeta0, C, D)


def eta_closed_form(zeta, eta0: float, zeta0: float, C: float, D: float):
    """Amplitude pinned to the center: eta0 (C zeta0 + D)^2 / (C zeta + D)^2."""
    w, w0 = _pinned(zeta, eta0, zeta0, C, D)
    return eta0 * (w0 / w) ** 2


def eom_rhs(zeta, eta0: float, zeta0: float, C: float, D: float):
    """Lab-time center acceleration -(8/3) C eta0^2 (C zeta0 + D)^4/(C zeta + D)^5."""
    w, w0 = _pinned(zeta, eta0, zeta0, C, D)
    return -(8.0 / 3.0) * C * eta0 ** 2 * w0 ** 4 / w ** 5


def effective_potential(zeta, eta0: float, zeta0: float, C: float, D: float):
    """Potential for the lab-time center EOM, depth -(2/3) eta0^2 at zeta0.

    Defined so that eom_rhs equals minus its gradient; the well deepens
    toward the profile singularity, the direction of growing interaction.
    """
    w, w0 = _pinned(zeta, eta0, zeta0, C, D)
    return -(2.0 / 3.0) * eta0 ** 2 * w0 ** 4 / w ** 4


def extract_center(dens: np.ndarray, grid: SpatialGrid, work: np.ndarray) -> float:
    """Density centroid: integral of x |u|^2 over integral of |u|^2.

    dens is a sample's density |u|^2 on grid; x |u|^2 goes to work, a row
    of the grid's length that a caller keeps for its samples.
    """
    den = simpson(dens, grid.dx)
    if not den > 1e-8:
        raise ExtractionError("field carries no usable density")
    num = simpson(np.multiply(grid.x, dens, out=work), grid.dx)
    return num / den
