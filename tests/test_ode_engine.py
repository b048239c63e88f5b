"""Fixed-step RK4 and Adams-Bashforth-Moulton integrators."""

import warnings

import numpy as np
import pytest

from gpsol.errors import ConfigurationError, InstabilityError
from gpsol.ode_engine import (
    _AB4,
    _AM4,
    OdeSystem,
    OdeTrajectory,
    abm4_integrate,
    rk4_integrate,
    rk4_step,
    step_count,
)

DECAY = OdeSystem(1, lambda t, y: -y)


def test_multistep_weights_frozen():
    assert np.array_equal(_AB4 * 24.0, np.array([55.0, -59.0, 37.0, -9.0]))
    assert np.array_equal(_AM4 * 24.0, np.array([9.0, 19.0, -5.0, 1.0]))


def test_single_rk4_step_local_error():
    def rhs_into(t, y, out):
        out[:] = y

    y1 = np.array([1.0])
    rk4_step(rhs_into, 0.0, y1, 0.1, [])
    err = abs(y1[0] - np.exp(0.1))
    assert 1e-9 < err < 1e-7  # fifth-order local truncation, not exact


def test_rk4_closes_a_rotation():
    system = OdeSystem(2, lambda t, y: np.array([y[1], -y[0]]))
    n = 6283
    dt = 2.0 * np.pi / n
    traj = rk4_integrate(system, np.array([1.0, 0.0]), 0.0, 2.0 * np.pi, dt)
    assert np.max(np.abs(traj.states[-1] - traj.states[0])) < 1e-11


@pytest.mark.parametrize("integrate", [rk4_integrate, abm4_integrate])
def test_fourth_order_convergence(integrate):
    errs = []
    for dt in (1e-2, 5e-3):
        traj = integrate(DECAY, np.array([1.0]), 0.0, 2.0, dt)
        errs.append(abs(traj.states[-1, 0] - np.exp(-2.0)))
    order = np.log2(errs[0] / errs[1])
    assert 3.5 < order < 4.6


def test_rk4_abm4_cross_agreement():
    def rhs(t, y):
        return np.array([np.sin(t) - y[0] ** 3])

    a = rk4_integrate(OdeSystem(1, rhs), np.array([0.5]), 0.0, 5.0, 1e-3)
    b = abm4_integrate(OdeSystem(1, rhs), np.array([0.5]), 0.0, 5.0, 1e-3)
    assert np.max(np.abs(a.states - b.states)) < 1e-10
    assert np.array_equal(a.times, b.times)


@pytest.mark.parametrize("integrate", [rk4_integrate, abm4_integrate])
def test_trajectory_axes(integrate):
    traj = integrate(DECAY, np.array([1.0]), 1.0, 2.0, 0.25)
    assert np.allclose(traj.times, [1.0, 1.25, 1.5, 1.75, 2.0])
    assert traj.states.shape == (5, 1)
    assert traj.states[0, 0] == 1.0


def test_trajectory_length_validation():
    with pytest.raises(ConfigurationError):
        OdeTrajectory(times=np.zeros(3), states=np.zeros((4, 1)))


@pytest.mark.parametrize("integrate", [rk4_integrate, abm4_integrate])
def test_step_validation(integrate):
    y0 = np.array([1.0])
    with pytest.raises(ConfigurationError):
        integrate(DECAY, y0, 0.0, 1.0, -0.1)
    with pytest.raises(ConfigurationError):
        integrate(DECAY, y0, 1.0, 1.0, 0.1)  # empty span
    with pytest.raises(ConfigurationError):
        integrate(DECAY, y0, 0.0, 1.0, 0.3)  # span not a multiple of dt


def test_state_validation():
    with pytest.raises(ConfigurationError):
        rk4_integrate(DECAY, np.array([1.0, 2.0]), 0.0, 1.0, 0.1)
    with pytest.raises(ConfigurationError):
        rk4_integrate(DECAY, np.array([np.nan]), 0.0, 1.0, 0.1)
    with pytest.raises(ConfigurationError):
        OdeSystem(0, lambda t, y: y)
    with pytest.raises(ConfigurationError):
        OdeSystem(1, "not-callable")


@pytest.mark.parametrize("integrate", [rk4_integrate, abm4_integrate])
def test_blowup_raises_instability(integrate):
    system = OdeSystem(1, lambda t, y: y * y)  # finite-time blowup at t = 0.5
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InstabilityError) as info:
            integrate(system, np.array([2.0]), 0.0, 1.0, 0.01)
    assert 0.0 < info.value.t_fail <= 1.0
    assert [str(w.message) for w in caught] == []  # the error alone reports it


def test_integrators_do_not_mutate_y0():
    y0 = np.array([1.0])
    rk4_integrate(DECAY, y0, 0.0, 1.0, 0.1)
    abm4_integrate(DECAY, y0, 0.0, 1.0, 0.1)
    assert y0[0] == 1.0


@pytest.mark.parametrize("t0, t_end, dt", [
    (0.0, float("inf"), 1e-3),
    (float("-inf"), 0.0, 1e-3),
    (float("inf"), float("inf"), 1e-3),
    (0.0, float("nan"), 1e-3),
    (0.0, 1.0, float("inf")),
    (0.0, 1.0, float("nan")),
])
def test_step_count_rejects_non_finite_input(t0, t_end, dt):
    with pytest.raises(ConfigurationError, match="must be finite"):
        step_count(t0, t_end, dt)


@pytest.mark.parametrize("t_end, dt", [(1.0, 1e-320), (1e300, 1e-10)])
def test_step_count_rejects_an_overflowing_ratio(t_end, dt):
    with pytest.raises(ConfigurationError, match="overflows"):
        step_count(0.0, t_end, dt)


def test_step_count_tolerance_is_relative_below_a_unit_span():
    # 2.5 steps of 4e-10 are 1e-10 off a whole count: not a rounding error
    with pytest.raises(ConfigurationError, match="integer multiple"):
        step_count(0.0, 1e-9, 4e-10)
    assert step_count(0.0, 1e-9, 2.5e-10) == 4
