"""Uniform 1D grids, complex fields on them, derivatives and quadrature.

Spatial derivatives use fourth-order stencils: central five-point formulas
in the interior and one-sided fourth-order formulas at the two points next
to each boundary.  Integration is composite Simpson, which is why grids
carry an odd number of points (an even number of intervals).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, RangeError

__all__ = [
    "SpatialGrid",
    "ComplexField",
    "build_grid",
    "simpson",
    "window_indices",
]

MIN_POINTS = 16


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid x_k = x_min + k*dx with an even number of intervals."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ConfigurationError(
                f"grid needs x_max > x_min, got [{self.x_min}, {self.x_max}]"
            )
        if self.n_points < MIN_POINTS:
            raise ConfigurationError(
                f"grid needs at least {MIN_POINTS} points, got {self.n_points}"
            )
        if (self.n_points - 1) % 2 != 0:
            # Simpson quadrature needs an even interval count.
            raise ConfigurationError(
                f"grid needs an odd point count, got {self.n_points}"
            )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @cached_property
    def x(self) -> np.ndarray:
        # k*dx form keeps x_k exactly reproducible from the grid parameters.
        xs = self.x_min + np.arange(self.n_points) * self.dx
        xs.flags.writeable = False
        return xs


def build_grid(x_min: float, x_max: float, n_points: int) -> SpatialGrid:
    """Construct a SpatialGrid, validating bounds and point-count parity."""
    return SpatialGrid(float(x_min), float(x_max), int(n_points))


@dataclass
class ComplexField:
    """Complex samples of a field on a SpatialGrid."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1 or vals.shape[0] != self.grid.n_points:
            raise ConfigurationError(
                f"field needs {self.grid.n_points} samples, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
            raise ConfigurationError("field samples must be finite")
        self.values = vals

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.values.copy())


# One-sided fourth-order stencil rows (lowest index first).
_D1_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D1_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
_D2_EDGE0 = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / 12.0
_D2_EDGE1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / 12.0


def d1_samples(values: np.ndarray, dx: float) -> np.ndarray:
    """First derivative of sampled values, fourth order everywhere."""
    n = values.shape[0]
    out = np.empty_like(values)
    out[2:-2] = (values[:-4] - 8.0 * values[1:-3]
                 + 8.0 * values[3:-1] - values[4:]) / (12.0 * dx)
    out[0] = np.dot(_D1_EDGE0, values[:5]) / dx
    out[1] = np.dot(_D1_EDGE1, values[:5]) / dx
    # mirrored: reverse the sample order and negate for an odd derivative
    out[n - 1] = -np.dot(_D1_EDGE0, values[-1:-6:-1]) / dx
    out[n - 2] = -np.dot(_D1_EDGE1, values[-1:-6:-1]) / dx
    return out


def d2_samples(values: np.ndarray, dx: float) -> np.ndarray:
    """Second derivative of sampled values, fourth order everywhere."""
    n = values.shape[0]
    out = np.empty_like(values)
    out[2:-2] = (-values[:-4] + 16.0 * values[1:-3] - 30.0 * values[2:-2]
                 + 16.0 * values[3:-1] - values[4:]) / (12.0 * dx * dx)
    out[0] = np.dot(_D2_EDGE0, values[:6]) / (dx * dx)
    out[1] = np.dot(_D2_EDGE1, values[:6]) / (dx * dx)
    out[n - 1] = np.dot(_D2_EDGE0, values[-1:-7:-1]) / (dx * dx)
    out[n - 2] = np.dot(_D2_EDGE1, values[-1:-7:-1]) / (dx * dx)
    return out


def simpson(values: np.ndarray, dx: float) -> float | np.ndarray:
    """Composite Simpson rule over an odd number of samples on the last axis.

    A 1-D input gives a float; a 2-D input gives one integral per row, each
    bitwise equal to the 1-D rule applied to that row alone.
    """
    n = values.shape[-1]
    if n < 3 or n % 2 == 0:
        raise ConfigurationError(f"Simpson rule needs an odd sample count >= 3, got {n}")
    acc = (values[..., 0] + values[..., -1] + 4.0 * np.sum(values[..., 1:-1:2], axis=-1)
           + 2.0 * np.sum(values[..., 2:-2:2], axis=-1))
    if values.ndim == 1:
        return float(acc) * dx / 3.0
    return acc * dx / 3.0


def window_indices(grid: SpatialGrid, center: float, half_width: float) -> tuple[int, int]:
    """Index range [i0, i1) of grid points inside [center-hw, center+hw].

    The count is forced odd (Simpson parity) by dropping the top point if
    needed.  Raises RangeError when the window sticks out of the grid.
    """
    lo = center - half_width
    hi = center + half_width
    if lo < grid.x_min or hi > grid.x_max:
        raise RangeError(
            f"window [{lo:.3f}, {hi:.3f}] exceeds grid [{grid.x_min}, {grid.x_max}]"
        )
    x = grid.x
    i0 = int(x.searchsorted(lo, side="left"))
    i1 = int(x.searchsorted(hi, side="right"))
    if (i1 - i0) % 2 == 0:
        i1 -= 1
    if i1 - i0 < 3:
        raise RangeError("window too narrow for quadrature on this grid")
    return i0, i1
