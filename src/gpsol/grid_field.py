"""Uniform 1D grids, complex fields on them, densities, quadrature, windows.

Integration is composite Simpson, which is why grids carry an odd number
of points (an even number of intervals).  simpson is one einsum against
cached weights [1, 4, 2, ..., 4, 1]: einsum sums a row as it sums a 1-D
input, which a BLAS product (@, np.dot) does not, and its sum does not
depend on the thread count.  density owns re^2 + im^2 of a field sample
(the field kernel keeps its own on its interior rows), and the derivative
stencils live in pde_engine's kernel, the only place that uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, RangeError

__all__ = [
    "SpatialGrid",
    "ComplexField",
    "build_grid",
    "density",
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


def density(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|u|^2 as re^2 + im^2, into out[0] with out[1] as scratch.

    out is two real rows a caller keeps so that no call allocates; without
    it the rows are new.
    """
    dens, work = np.empty((2, values.shape[0])) if out is None else out
    np.square(values.real, out=dens)
    return np.add(dens, np.square(values.imag, out=work), out=dens)


@lru_cache(maxsize=32)
def _simpson_weights(n: int) -> np.ndarray:
    w = np.where(np.arange(n) % 2, 4.0, 2.0)
    w[[0, -1]] = 1.0
    w.flags.writeable = False
    return w


def simpson(values: np.ndarray, dx: float) -> float | np.ndarray:
    """Composite Simpson rule over an odd number of samples on the last axis.

    A 1-D input gives a float; a 2-D input gives one integral per row, each
    bitwise equal to the 1-D rule applied to that row alone.
    """
    n = values.shape[-1]
    if n < 3 or n % 2 == 0:
        raise ConfigurationError(f"Simpson rule needs an odd sample count >= 3, got {n}")
    return np.einsum("...i,i->...", values, _simpson_weights(n)) * dx / 3.0


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
