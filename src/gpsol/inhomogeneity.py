"""Spatial interaction profiles g(x) and the perturbation they induce.

Rescaling the wavefunction by 1/sqrt(g) trades a spatially varying
nonlinearity for two extra terms in the evolution equation: a potential
term V_eff(x) * u with

    V_eff = -(1/2) * sqrt(g) * d2/dx2 (1/sqrt(g))

and a first-derivative term -coef(x) * du/dx with

    coef = sqrt(g) * d/dx (1/sqrt(g)).

A profile is its validity interval, C and D, and pointwise callables for
1/sqrt(g) and its first two derivatives; g is 1/(1/sqrt(g))^2, derived and
never supplied, and each coefficient is one ratio of the callables.  For the
closed form g = 1/(D + C x)^2 (homogeneous: C = 0, g = 1/D^2) they are
|w|, C sign(w) and zero in w = D + C x, so the ratios are bitwise C/w and
zeros; generic profiles carry C = D = None, and the closed-form (Taylor)
tiers, which expand the equation without its V_eff term, reject them.
closed_form_w is the only evaluation of w at a point and the only test of
it for zero.  coefficient_tables is the only evaluation of a profile on a
grid, shared by the quadratures and the field kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigurationError, RangeError, SingularityError
from .grid_field import SpatialGrid, window_indices

__all__ = [
    "InhomogeneityProfile",
    "make_inverse_square",
    "make_generic",
    "closed_form_w",
    "coefficient_tables",
    "window_coefficients",
]


# eq=False: a profile is its own cache key, compared and hashed by identity
@dataclass(frozen=True, eq=False)
class InhomogeneityProfile:
    """A positive interaction profile with the derived perturbation data.

    x_lo/x_hi: validity interval; all evaluations must stay inside it
    C, D:      closed-form parameters of g = 1/(D + C x)^2, None for a
               generic profile
    fn_*:      vectorized callables for 1/sqrt(g) and its two derivatives
    """

    x_lo: float
    x_hi: float
    C: float | None
    D: float | None
    fn_inv_sqrt_g: Callable[[np.ndarray], np.ndarray]
    fn_d1_inv_sqrt_g: Callable[[np.ndarray], np.ndarray]
    fn_d2_inv_sqrt_g: Callable[[np.ndarray], np.ndarray]

    def g(self, x):
        """1/(1/sqrt(g))^2, the one g derived from the profile."""
        return 1.0 / np.square(self.inv_sqrt_g(x))

    def inv_sqrt_g(self, x):
        return self.fn_inv_sqrt_g(np.asarray(x, dtype=np.float64))

    def advection_coef(self, x):
        """sqrt(g) * d/dx (1/sqrt(g)), the coefficient of du/dx."""
        x = np.asarray(x, dtype=np.float64)
        return self.fn_d1_inv_sqrt_g(x) / self.fn_inv_sqrt_g(x)

    def potential_coef(self, x):
        """sqrt(g) * d2/dx2 (1/sqrt(g)); V_eff is -1/2 of this."""
        x = np.asarray(x, dtype=np.float64)
        return self.fn_d2_inv_sqrt_g(x) / self.fn_inv_sqrt_g(x)

    def contains(self, x_lo: float, x_hi: float) -> bool:
        return x_lo >= self.x_lo and x_hi <= self.x_hi


def closed_form_w(x, C: float | None, D: float | None):
    """w = D + C x, the closed form's 1/sqrt(g) up to sign, at x.

    A float for a scalar x (a Python or numpy float, an int or a 0-d
    array), an array for an array.  Raises ConfigurationError for a generic
    profile's C = None and RangeError where w vanishes.
    """
    if C is None:
        raise ConfigurationError("the closed form needs C and D; the profile is generic")
    # a float (np.float64 included) stays off numpy's per-call cost: the
    # reduced tiers call this once per right-hand side
    w = D + C * (x if isinstance(x, float) else np.asarray(x, dtype=np.float64))
    scalar = isinstance(w, float)  # np.float64 from a 0-d array or an int too
    if (w == 0.0) if scalar else not w.all():
        raise RangeError("the point sits on the profile singularity")
    return float(w) if scalar else w


def _checked(profile: InhomogeneityProfile, x, what: str) -> InhomogeneityProfile:
    """The profile, once g is positive and finite and 1/sqrt(g) of one sign at x."""
    with np.errstate(over="ignore", divide="ignore"):
        g = profile.g(x)
    if not np.all(np.isfinite(g) & (g > 0.0)):
        raise ConfigurationError(f"{what} must be positive and finite")
    # nonzero here, so a sign change puts a zero (g infinite) between two points
    inv_sqrt_g = profile.inv_sqrt_g(x)
    if np.any(inv_sqrt_g > 0.0) and np.any(inv_sqrt_g < 0.0):
        raise ConfigurationError(f"{what}: 1/sqrt(g) must keep one sign")
    return profile


def make_inverse_square(C: float, D: float, grid: SpatialGrid) -> InhomogeneityProfile:
    """Profile g = 1/(D + C x)^2 valid on the grid's extent; C = 0 is g = 1/D^2.

    Rejects C = D = 0, a singular point -D/C inside the domain and a g
    that over- or underflows: |w| is monotone between the grid's ends, so
    g is positive and finite on the grid when it is at both ends.
    """
    C = float(C)
    D = float(D)
    if C == 0.0 and D == 0.0:
        raise ConfigurationError("inverse-square profile needs C or D nonzero")
    if C != 0.0:
        x_sing = -D / C
        if grid.x_min <= x_sing <= grid.x_max:
            raise SingularityError(
                f"profile singular at x = {x_sing:g}, inside [{grid.x_min}, {grid.x_max}]"
            )
    profile = InhomogeneityProfile(
        x_lo=grid.x_min, x_hi=grid.x_max, C=C, D=D,
        fn_inv_sqrt_g=lambda x: np.abs(closed_form_w(x, C, D)),
        fn_d1_inv_sqrt_g=lambda x: C * np.sign(closed_form_w(x, C, D)),
        fn_d2_inv_sqrt_g=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
    )
    return _checked(profile, np.array([grid.x_min, grid.x_max]),
                    f"g = 1/(D + C x)^2 with C = {C:g}, D = {D:g}")


def make_generic(
    fn_inv_sqrt_g: Callable,
    fn_d1_inv_sqrt_g: Callable,
    fn_d2_inv_sqrt_g: Callable,
    x_lo: float,
    x_hi: float,
) -> InhomogeneityProfile:
    """Profile from caller-supplied callables for 1/sqrt(g) and its derivatives.

    All three are required and must be pointwise, since the quadratures
    read windows of a whole-grid evaluation.  On a coarse sample of the finite
    validity interval a 1/sqrt(g) that vanishes, changes sign (either sign
    alone is valid) or makes g over- or underflow there is rejected.
    """
    for name, fn in (("fn_inv_sqrt_g", fn_inv_sqrt_g),
                     ("fn_d1_inv_sqrt_g", fn_d1_inv_sqrt_g),
                     ("fn_d2_inv_sqrt_g", fn_d2_inv_sqrt_g)):
        if not callable(fn):
            raise ConfigurationError(f"generic profile needs callable {name}")
    x_lo = float(x_lo)
    x_hi = float(x_hi)
    if not (np.isfinite(x_lo) and np.isfinite(x_hi) and x_hi > x_lo):
        raise ConfigurationError(
            f"generic profile needs a finite interval x_lo < x_hi, got [{x_lo}, {x_hi}]")
    profile = InhomogeneityProfile(
        x_lo=x_lo, x_hi=x_hi, C=None, D=None, fn_inv_sqrt_g=fn_inv_sqrt_g,
        fn_d1_inv_sqrt_g=fn_d1_inv_sqrt_g, fn_d2_inv_sqrt_g=fn_d2_inv_sqrt_g,
    )
    return _checked(profile, np.linspace(x_lo, x_hi, 33), "generic profile g")


@lru_cache(maxsize=8)
def coefficient_tables(profile: InhomogeneityProfile, grid: SpatialGrid):
    """Read-only g, advection_coef and potential_coef at every grid point.

    The potential table is None where it vanishes on the whole grid.
    Points beyond the profile's validity, which no window reaches, take its
    edge value.
    """
    x = np.clip(grid.x, profile.x_lo, profile.x_hi)
    g = np.asarray(profile.g(x), dtype=np.float64)
    adv, pot = profile.advection_coef(x), profile.potential_coef(x)
    g.flags.writeable = adv.flags.writeable = pot.flags.writeable = False
    return g, adv, pot if np.any(pot != 0.0) else None


def window_coefficients(profile: InhomogeneityProfile, grid: SpatialGrid,
                        center: float, half_width: float):
    """x, advection_coef and potential_coef on the grid window around center.

    The coefficients are read-only slices of coefficient_tables, so they
    are bitwise their evaluation on the window; the potential is None where
    its table is.  Raises RangeError when [center - hw, center + hw] leaves
    the grid or the profile's validity.
    """
    lo, hi = center - half_width, center + half_width
    if not profile.contains(lo, hi):
        raise RangeError(f"soliton window [{lo:.3f}, {hi:.3f}] outside profile validity")
    window = slice(*window_indices(grid, lo, hi))
    _, adv, pot = coefficient_tables(profile, grid)
    return grid.x[window], adv[window], None if pot is None else pot[window]
