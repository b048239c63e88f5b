"""Fixed-step time marching: RK4 and ABM4, for parameter ODEs and fields.

Two fourth-order schemes: classical RK4 and an Adams-Bashforth-Moulton
predictor-corrector (single PECE pass, RK4 bootstrap for the first three
steps).  rk4_step and abm4_step advance a state array of any shape in
place through a right-hand side rhs_into(y, out) that writes y' into
out, and keep their stage and history arrays in a work list that lasts
for one run.  march drives either step over a run: every few steps it
stops on a non-finite state with InstabilityError and otherwise hands the
state to a sampling callback.  rk4_integrate and abm4_integrate march
small systems from t = 0 and record every step; pde_engine.evolve marches
the field.  Every system is autonomous: g varies in x only, so no
right-hand side or step takes the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, InstabilityError

__all__ = [
    "OdeSystem",
    "OdeTrajectory",
    "rk4_integrate",
    "abm4_integrate",
    "rk4_step",
    "abm4_step",
    "step_count",
    "march",
]

Rhs = Callable[[np.ndarray], np.ndarray]
RhsInto = Callable[[np.ndarray, np.ndarray], object]
Step = Callable[[RhsInto, np.ndarray, float, list], None]


@dataclass(frozen=True)
class OdeSystem:
    """An autonomous first-order system y' = rhs(y) of fixed dimension."""

    dimension: int
    rhs: Rhs

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigurationError("OdeSystem needs dimension >= 1")
        if not callable(self.rhs):
            raise ConfigurationError("OdeSystem needs a callable rhs")


@dataclass
class OdeTrajectory:
    """States at the times dt k from 0, including the initial state."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        if self.times.shape[0] != self.states.shape[0]:
            raise ConfigurationError("trajectory times and states disagree in length")


def rk4_step(rhs_into: RhsInto, u: np.ndarray, dt: float, work: list[np.ndarray]) -> None:
    """One classical RK4 step of size dt, advancing u in place.

    The first step fills the empty work list with five zeroed arrays
    shaped like u: the stages k1..k4 and the stage state.  Rows that
    rhs_into never writes therefore stay zero.
    """
    if not work:
        work.extend(np.zeros_like(u) for _ in range(5))
    k1, k2, k3, k4, y = work[:5]
    h = 0.5 * dt
    rhs_into(u, k1)
    rhs_into(np.add(u, np.multiply(h, k1, out=y), out=y), k2)
    rhs_into(np.add(u, np.multiply(h, k2, out=y), out=y), k3)
    rhs_into(np.add(u, np.multiply(dt, k3, out=y), out=y), k4)
    # u + (dt/6) (k1 + 2 k2 + 2 k3 + k4)
    np.add(k1, np.multiply(2.0, k2, out=k2), out=k1)
    np.add(k1, np.multiply(2.0, k3, out=k3), out=k1)
    np.add(k1, k4, out=k1)
    np.add(u, np.multiply(dt / 6.0, k1, out=k1), out=u)


# Adams-Bashforth (predictor) and Adams-Moulton (corrector) weights, dt/24 units.
_AB4 = np.array([55.0, -59.0, 37.0, -9.0]) / 24.0
_AM4 = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0


def abm4_step(rhs_into: RhsInto, u: np.ndarray, dt: float, work: list[np.ndarray]) -> None:
    """One single-pass ABM4 predictor-corrector step, advancing u in place.

    work holds what rk4_step keeps, then the predictor and a temporary,
    then the derivative history f_k, f_k-1, ... newest first.  The first
    three steps are RK4 steps that fill the history to four entries;
    from then on the oldest entry takes the predicted derivative and
    then the new one, and moves to the front.
    """
    if not work:
        # rk4_step's five arrays, the predictor, a temporary and f_0
        work.extend(np.zeros_like(u) for _ in range(8))
        rhs_into(u, work[7])
    if len(work) < 11:  # fewer than four derivatives in the history
        rk4_step(rhs_into, u, dt, work)
        work.insert(7, np.zeros_like(u))
        rhs_into(u, work[7])
        return
    acc, tmp, f0, f1, f2, f3 = work[5:]
    # predictor u + dt (AB0 f0 + AB1 f1 + AB2 f2 + AB3 f3)
    np.multiply(_AB4[0], f0, out=acc)
    np.add(acc, np.multiply(_AB4[1], f1, out=tmp), out=acc)
    np.add(acc, np.multiply(_AB4[2], f2, out=tmp), out=acc)
    np.add(acc, np.multiply(_AB4[3], f3, out=tmp), out=acc)
    np.add(u, np.multiply(dt, acc, out=acc), out=acc)
    rhs_into(acc, f3)
    # corrector u + dt (AM0 f_pred + AM1 f0 + AM2 f1 + AM3 f2)
    np.multiply(_AM4[0], f3, out=acc)
    np.add(acc, np.multiply(_AM4[1], f0, out=tmp), out=acc)
    np.add(acc, np.multiply(_AM4[2], f1, out=tmp), out=acc)
    np.add(acc, np.multiply(_AM4[3], f2, out=tmp), out=acc)
    np.add(u, np.multiply(dt, acc, out=acc), out=u)
    rhs_into(u, f3)
    work[7:] = f3, f0, f1, f2


def step_count(span: float, dt: float) -> int:
    """Number of steps of size dt across span, which must be whole."""
    if not (math.isfinite(span) and math.isfinite(dt)):
        raise ConfigurationError(f"span {span} and step size {dt} must be finite")
    if not dt > 0.0:
        raise ConfigurationError(f"step size must be positive, got {dt}")
    if not span > 0.0:
        raise ConfigurationError(f"integration span must be positive, got {span}")
    ratio = span / dt
    if not math.isfinite(ratio):
        raise ConfigurationError(f"span {span} over step size {dt} overflows")
    n = int(round(ratio))
    if n < 1 or abs(n * dt - span) > 1e-9 * span:
        raise ConfigurationError(
            f"span {span} is not an integer multiple of dt {dt}"
        )
    return n


def march(step: Step, rhs_into: RhsInto, u: np.ndarray, t0: float, dt: float,
          n_steps: int, every: int, on_sample: Callable[[int, np.ndarray], None]) -> None:
    """Advance u in place by n_steps steps of size dt.

    After every `every` steps, with j = steps taken / every, a non-finite
    state raises InstabilityError carrying its time from t0; otherwise
    on_sample(j, u) is called.  numpy's floating-point warnings are off
    while it marches, so a blow-up surfaces only as that error.
    """
    work: list[np.ndarray] = []
    with np.errstate(all="ignore"):
        for k in range(n_steps):
            step(rhs_into, u, dt, work)
            if (k + 1) % every == 0:
                if not np.isfinite(u).all():
                    raise InstabilityError("non-finite state", t_fail=t0 + (k + 1) * dt)
                on_sample((k + 1) // every, u)


def _prepare(system: OdeSystem, y0: np.ndarray) -> np.ndarray:
    y = np.asarray(y0, dtype=np.float64)
    if y.shape != (system.dimension,):
        raise ConfigurationError(
            f"initial state needs shape ({system.dimension},), got {y.shape}"
        )
    if not np.all(np.isfinite(y)):
        raise ConfigurationError("initial state must be finite")
    return y.copy()


def _integrate(step: Step, system: OdeSystem, y0: np.ndarray, t_end: float,
               dt: float) -> OdeTrajectory:
    y = _prepare(system, y0)
    n = step_count(t_end, dt)
    states = np.empty((n + 1, system.dimension))
    states[0] = y
    rhs = system.rhs

    def rhs_into(state, out):
        out[:] = rhs(state)

    def record(j, state):
        states[j] = state

    march(step, rhs_into, y, 0.0, dt, n, 1, record)
    return OdeTrajectory(times=dt * np.arange(n + 1), states=states)


def rk4_integrate(system: OdeSystem, y0: np.ndarray, t_end: float, dt: float) -> OdeTrajectory:
    """Integrate from 0 to t_end with RK4, recording every step."""
    return _integrate(rk4_step, system, y0, t_end, dt)


def abm4_integrate(system: OdeSystem, y0: np.ndarray, t_end: float, dt: float) -> OdeTrajectory:
    """Integrate from 0 to t_end with the ABM predictor-corrector, one PECE pass a step.

    The first three steps are bootstrapped with RK4 so the multistep
    history is available at full order.
    """
    return _integrate(abm4_step, system, y0, t_end, dt)
