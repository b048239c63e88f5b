"""Spatial interaction profiles g(x) and the perturbation they induce.

Rescaling the wavefunction by 1/sqrt(g) trades a spatially varying
nonlinearity for two extra terms in the evolution equation: a potential
term V_eff(x) * u with

    V_eff = -(1/2) * sqrt(g) * d2/dx2 (1/sqrt(g))

and a first-derivative term -coef(x) * du/dx with

    coef = sqrt(g) * d/dx (1/sqrt(g)).

The workhorse family is the inverse-square profile g = 1/(D + C x)^2,
whose coefficients reduce to closed forms: coef = C/(D + C x) and an
identically zero V_eff.  Those forms are evaluated branch-free in
w = D + C x (no absolute values), so both signs of w behave identically.
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
    "make_homogeneous",
    "make_generic",
    "window_coefficients",
]

@dataclass(frozen=True)
class InhomogeneityProfile:
    """A positive interaction profile with the derived perturbation data.

    kind:      one of ``inverse-square``, ``homogeneous``, ``generic``
    x_lo/x_hi: validity interval; all evaluations must stay inside it
    C, D:      inverse-square parameters (zero for the other kinds)
    fn_*:      vectorized callables for g, 1/sqrt(g) and its derivatives
    """

    kind: str
    x_lo: float
    x_hi: float
    C: float
    D: float
    fn_g: Callable[[np.ndarray], np.ndarray]
    fn_inv_sqrt_g: Callable[[np.ndarray], np.ndarray]
    fn_d1_inv_sqrt_g: Callable[[np.ndarray], np.ndarray]
    fn_d2_inv_sqrt_g: Callable[[np.ndarray], np.ndarray]

    def g(self, x):
        return self.fn_g(np.asarray(x, dtype=np.float64))

    def inv_sqrt_g(self, x):
        return self.fn_inv_sqrt_g(np.asarray(x, dtype=np.float64))

    def advection_coef(self, x):
        """sqrt(g) * d/dx (1/sqrt(g)), the coefficient of du/dx."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "inverse-square":
            return self.C / (self.D + self.C * x)
        if self.kind == "homogeneous":
            return np.zeros_like(x)
        return self.fn_d1_inv_sqrt_g(x) / self.fn_inv_sqrt_g(x)

    def potential_coef(self, x):
        """sqrt(g) * d2/dx2 (1/sqrt(g)); V_eff is -1/2 of this."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind in ("inverse-square", "homogeneous"):
            return np.zeros_like(x)
        return self.fn_d2_inv_sqrt_g(x) / self.fn_inv_sqrt_g(x)

    def second_derivative_inv_g(self, x):
        """d2/dx2 (1/g), expanded through 1/sqrt(g) and its derivatives."""
        x = np.asarray(x, dtype=np.float64)
        h = self.fn_inv_sqrt_g(x)
        h1 = self.fn_d1_inv_sqrt_g(x)
        h2 = self.fn_d2_inv_sqrt_g(x)
        return 2.0 * (h1 * h1 + h * h2)

    def contains(self, x_lo: float, x_hi: float) -> bool:
        return x_lo >= self.x_lo and x_hi <= self.x_hi


def make_inverse_square(C: float, D: float, grid: SpatialGrid) -> InhomogeneityProfile:
    """Profile g = 1/(D + C x)^2 valid on the grid's extent.

    Rejects C = D = 0 and a singular point -D/C inside the domain.
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

    def fn_g(x):
        w = D + C * x
        return 1.0 / (w * w)

    def fn_inv_sqrt_g(x):
        return np.abs(D + C * x)

    def fn_d1(x):
        # d/dx |w| = C * sign(w); with sqrt(g) = 1/|w| the product is C/w
        w = D + C * x
        return C * np.sign(w)

    def fn_d2(x):
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    return InhomogeneityProfile(
        kind="inverse-square", x_lo=grid.x_min, x_hi=grid.x_max,
        C=C, D=D, fn_g=fn_g, fn_inv_sqrt_g=fn_inv_sqrt_g,
        fn_d1_inv_sqrt_g=fn_d1, fn_d2_inv_sqrt_g=fn_d2,
    )


def make_homogeneous(g_const: float = 1.0) -> InhomogeneityProfile:
    """Constant profile g(x) = g_const > 0, valid everywhere."""
    g_const = float(g_const)
    if not g_const > 0.0:
        raise ConfigurationError(f"homogeneous profile needs g > 0, got {g_const}")
    inv = 1.0 / np.sqrt(g_const)

    def zeros(x):
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    return InhomogeneityProfile(
        kind="homogeneous", x_lo=-np.inf, x_hi=np.inf, C=0.0, D=0.0,
        fn_g=lambda x: np.full_like(np.asarray(x, dtype=np.float64), g_const),
        fn_inv_sqrt_g=lambda x: np.full_like(np.asarray(x, dtype=np.float64), inv),
        fn_d1_inv_sqrt_g=zeros, fn_d2_inv_sqrt_g=zeros,
    )


def make_generic(
    fn_g: Callable,
    fn_inv_sqrt_g: Callable,
    fn_d1_inv_sqrt_g: Callable,
    fn_d2_inv_sqrt_g: Callable,
    x_lo: float,
    x_hi: float,
) -> InhomogeneityProfile:
    """Profile from caller-supplied analytic callables.

    All four callables are required and must be pointwise, since the
    quadratures read windows of a whole-grid evaluation; positivity of g is
    spot-checked on a coarse sample of the validity interval.
    """
    for name, fn in (("fn_g", fn_g), ("fn_inv_sqrt_g", fn_inv_sqrt_g),
                     ("fn_d1_inv_sqrt_g", fn_d1_inv_sqrt_g),
                     ("fn_d2_inv_sqrt_g", fn_d2_inv_sqrt_g)):
        if not callable(fn):
            raise ConfigurationError(f"generic profile needs callable {name}")
    x_lo = float(x_lo)
    x_hi = float(x_hi)
    if not x_hi > x_lo:
        raise ConfigurationError("generic profile needs x_hi > x_lo")
    probe = np.linspace(x_lo, x_hi, 33)
    gv = np.asarray(fn_g(probe), dtype=np.float64)
    if not np.all(np.isfinite(gv)) or not np.all(gv > 0.0):
        raise ConfigurationError("generic profile must be positive and finite")
    return InhomogeneityProfile(
        kind="generic", x_lo=x_lo, x_hi=x_hi, C=0.0, D=0.0,
        fn_g=fn_g, fn_inv_sqrt_g=fn_inv_sqrt_g,
        fn_d1_inv_sqrt_g=fn_d1_inv_sqrt_g, fn_d2_inv_sqrt_g=fn_d2_inv_sqrt_g,
    )


@lru_cache(maxsize=8)
def _coefficient_tables(profile: InhomogeneityProfile,
                        grid: SpatialGrid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only advection_coef and potential_coef at every grid point.

    Points beyond the profile's validity, which no window reaches, take its
    edge value.
    """
    x = np.clip(grid.x, profile.x_lo, profile.x_hi)
    adv, pot = profile.advection_coef(x), profile.potential_coef(x)
    adv.flags.writeable = pot.flags.writeable = False
    return adv, pot


def window_coefficients(profile: InhomogeneityProfile, grid: SpatialGrid,
                        center: float, half_width: float):
    """x, advection_coef and potential_coef on the grid window around center.

    The coefficients are read-only slices of tables evaluated once per
    (profile, grid) object pair; being pointwise, they are bitwise their
    evaluation on the window.  Raises RangeError when [center - hw,
    center + hw] leaves the grid or the profile's validity.
    """
    lo, hi = center - half_width, center + half_width
    if not profile.contains(lo, hi):
        raise RangeError(f"soliton window [{lo:.3f}, {hi:.3f}] outside profile validity")
    window = slice(*window_indices(grid, center, half_width))
    adv, pot = _coefficient_tables(profile, grid)
    return grid.x[window], adv[window], pot[window]
