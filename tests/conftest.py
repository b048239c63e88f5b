"""Shared fixtures: reference grids and cached full-scale experiment runs.

The field-equation runs dominate the suite's wall time, so every
configuration the acceptance tests need is built exactly once per session
and shared.  Unit tests use much smaller grids and never touch these.
"""

from __future__ import annotations

import pytest

from gpsol.grid_field import build_grid
from gpsol.harness import ExperimentConfig, run_experiment
from gpsol.inhomogeneity import make_inverse_square
from gpsol.pde_engine import EvolutionProblem, evolve
from gpsol import bright_soliton as bright

# The configurations the acceptance criteria consume.  The t_max=100/50
# entries mirror the preset sweeps; dark-turn is a dedicated longer run at
# a coarser (still stable) step so the fast dark soliton reaches its
# turning point inside the simulated window.
RUN_SPECS = {
    "dark-0": dict(mode="dark", A0=0.0, t_max=100.0,
                   tiers=("pde", "ode-full", "ode-taylor", "eom", "eom-a")),
    "dark-0.25": dict(mode="dark", A0=0.25, t_max=100.0,
                      tiers=("pde", "ode-full")),
    "dark-0.5": dict(mode="dark", A0=0.5, t_max=100.0,
                     tiers=("pde", "ode-full", "eom", "eom-a")),
    "dark-turn": dict(mode="dark", A0=0.5, t_max=180.0, dt_pde=2e-3,
                      sample_interval=500, tiers=("pde",)),
    "bright-0": dict(mode="bright", eta0=0.5, xi0=0.0, t_max=50.0,
                     tiers=("pde", "ode-full", "eom")),
    "bright-0.25": dict(mode="bright", eta0=0.5, xi0=0.25, t_max=50.0,
                        tiers=("pde", "ode-full")),
    "bright-0.5": dict(mode="bright", eta0=0.5, xi0=0.5, t_max=50.0,
                       tiers=("pde", "ode-full", "eom")),
}

_run_cache: dict[str, object] = {}


@pytest.fixture(scope="session")
def shared_run():
    """Callable fixture: shared_run(name) -> cached RunRecord."""

    def get(name: str):
        if name not in _run_cache:
            _run_cache[name] = run_experiment(ExperimentConfig(**RUN_SPECS[name]))
        return _run_cache[name]

    return get


@pytest.fixture(scope="session")
def frame_pair():
    """Bright soliton evolved in both frames on the reference grid.

    Returns (grid, profile, psi_trajectory, u_trajectory) for eta=0.5,
    xi=0.25 over t in [0, 10], sampled every 0.5.
    """
    grid = build_grid(-150.0, 150.0, 4097)
    profile = make_inverse_square(1.0, -200.0, grid)
    params = bright.BrightSolitonParams(eta=0.5, xi=0.25, zeta=0.0)
    u0 = bright.ansatz(params, grid)
    from gpsol.grid_field import ComplexField

    psi0 = ComplexField(grid, u0.values * profile.inv_sqrt_g(grid.x))
    psi_problem = EvolutionProblem("original-psi", profile, grid, s=-1)
    u_problem = EvolutionProblem("transformed-bright", profile, grid)
    psi_traj = evolve(psi_problem, psi0, 0.0, 10.0, 5e-4, 1000)
    u_traj = evolve(u_problem, u0, 0.0, 10.0, 5e-4, 1000)
    return grid, profile, psi_traj, u_traj


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance pass/fail lines after the test run."""
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
