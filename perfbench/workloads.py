"""The configs of each benchmark workload, drawn from a seed.

Every workload is a short list of ExperimentConfig keyword sets.  The seed
draws only start positions and the moving starts' A0 or xi0 inside small
fixed ranges, so every seed asks for the same amount of work: the same
tiers, steppers, grids, step counts and sample counts.

This module imports neither numpy nor gpsol, so the launcher can list the
workloads without loading the program.
"""

from __future__ import annotations

import random

START_RANGE = (-5.0, 5.0)      # x0_0 (dark) or zeta0 (bright) of every config
DARK_A0_RANGE = (0.45, 0.55)   # A0 of a moving dark start
BRIGHT_XI0_RANGE = (0.2, 0.3)  # xi0 of a moving bright start
BRIGHT_ETA0 = 0.5

# Field tiers at preset scale take minutes; these spans keep one pass near
# five seconds on two cores while each tier still runs thousands of steps.
DARK_FIELD_T_MAX = 1.0       # 2000 RK4 field steps per config at dt_pde = 5e-4
BRIGHT_DENSE_T_MAX = 2.0     # 4000 ABM4 field steps, 1001 samples per config
REDUCED_DARK_T_MAX = 4.0     # 4000 ODE steps per tier at dt_ode = 1e-3
REDUCED_BRIGHT_T_MAX = 8.0   # 4000 parameter-ODE steps in the half-rate frame

WORKLOADS = ("dark-field", "bright-dense", "reduced-models")  # why each: BENCHMARK.json


def _dark(rng: random.Random, moving: bool, t_max: float, tiers: tuple[str, ...],
          **extra) -> dict:
    return dict(mode="dark", t_max=t_max, tiers=tiers,
                x0_0=rng.uniform(*START_RANGE),
                A0=rng.uniform(*DARK_A0_RANGE) if moving else 0.0, **extra)


def _bright(rng: random.Random, moving: bool, t_max: float, tiers: tuple[str, ...],
            **extra) -> dict:
    return dict(mode="bright", t_max=t_max, tiers=tiers, eta0=BRIGHT_ETA0,
                zeta0=rng.uniform(*START_RANGE),
                xi0=rng.uniform(*BRIGHT_XI0_RANGE) if moving else 0.0, **extra)


def draw(workload: str, seed: int) -> list[dict]:
    """ExperimentConfig keyword sets of one pass; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dark-field":
        tiers = ("pde", "ode-full", "eom", "eom-a")
        return [_dark(rng, moving, DARK_FIELD_T_MAX, tiers, stepper="rk4")
                for moving in (False, True)]
    if workload == "bright-dense":
        tiers = ("pde", "ode-full", "ode-taylor", "eom")
        return [_bright(rng, moving, BRIGHT_DENSE_T_MAX, tiers, stepper="abm4",
                        sample_interval=4)
                for moving in (False, True)]
    dark_tiers = ("ode-full", "ode-taylor", "eom", "eom-a")
    bright_tiers = ("ode-full", "ode-taylor", "eom")
    return ([_dark(rng, moving, REDUCED_DARK_T_MAX, dark_tiers) for moving in (False, True)]
            + [_bright(rng, moving, REDUCED_BRIGHT_T_MAX, bright_tiers)
               for moving in (False, True)])
