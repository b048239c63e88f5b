"""Experiment orchestration: configs, presets, tier runs, CSV output.

A run evolves one soliton with some subset of the model tiers

  pde         full field evolution (the reference)
  ode-full    adiabatic parameter ODEs with windowed quadratures
  ode-taylor  the same ODEs with the profile expanded at the center
  eom         Newtonian center equation
  eom-a       small-velocity Newtonian equation (dark only)

and records every tier's center on a shared lab-time axis, auxiliary
amplitude diagnostics, the PDE conserved norm, and per-tier differences
against the PDE center.  Records serialize to CSV with a fixed column
schema so identical configs produce byte-identical files.

The reduced tiers (all but pde) are rows of one table, _REDUCED: per mode
and tier, a time frame (lab time, or tau = t/2 for the bright parameter
ODEs), the initial state, a right-hand side returning a tuple, and the
state columns of the center and the amplitude.  All requested tiers of
one frame march together as one stacked system in a single ABM4 call, so
the per-step cost of the integrator is paid once per frame: dark runs
march ode-full, ode-taylor, eom and eom-a together in lab time; bright
runs march ode-full and ode-taylor in tau and eom alone in lab time.  The
integrator acts elementwise, so each tier's trajectory is bitwise the one
it has alone.  When two tiers of one frame would both fail, the one that
fails first in time raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bright_soliton as bright
from . import dark_soliton as dark
from .errors import ConfigurationError, RangeError, SingularityError
from .grid_field import ComplexField, SpatialGrid, build_grid, simpson
from .inhomogeneity import InhomogeneityProfile, make_inverse_square
from .ode_engine import OdeSystem, abm4_integrate
from .pde_engine import STEPPERS, EvolutionProblem, check_time_step, evolve

__all__ = [
    "MODES",
    "TIERS",
    "EDGE_MARGIN",
    "CSV_HEADER",
    "SCENARIOS",
    "ExperimentConfig",
    "RunRecord",
    "parse_config",
    "config_from_mapping",
    "run_experiment",
    "scenario",
    "write_csv",
]

MODES = ("dark", "bright")
TIERS = ("pde", "ode-full", "ode-taylor", "eom", "eom-a")
EDGE_MARGIN = 30.0  # soliton keeps this distance from both grid edges

CSV_HEADER = ("t,x0_pde,x0_ode_full,x0_ode_taylor,x0_eom,x0_eom_a,"
              "aux_pde,aux_ode,conserved,delta_ode_full,delta_eom,delta_eom_a")

_COMMON_KEYS = ("mode", "C", "D", "t_max", "dt_pde", "dt_ode", "x_min",
                "x_max", "n_points", "stepper", "tiers", "sample_interval",
                "out_path")
_DARK_KEYS = ("A0", "x0_0")
_BRIGHT_KEYS = ("eta0", "xi0", "zeta0", "phi0")


def _near_integer(ratio: float) -> int:
    n = int(round(ratio))
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
        raise ConfigurationError(f"ratio {ratio:g} is not a positive integer")
    return n


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated experiment: mode, profile, initial soliton, numerics."""

    mode: str
    t_max: float
    C: float = 1.0
    D: float = -200.0
    A0: float | None = None
    x0_0: float = 0.0
    eta0: float | None = None
    xi0: float | None = None
    zeta0: float = 0.0
    phi0: float = 0.0
    dt_pde: float = 5e-4
    dt_ode: float = 1e-3
    x_min: float = -150.0
    x_max: float = 150.0
    n_points: int = 4097
    stepper: str = "rk4"
    tiers: tuple[str, ...] = ("pde", "ode-full")
    sample_interval: int = 200
    out_path: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if not self.t_max > 0.0:
            raise ConfigurationError("t_max must be positive")
        if not self.dt_pde > 0.0 or not self.dt_ode > 0.0:
            raise ConfigurationError("step sizes must be positive")
        if self.stepper not in STEPPERS:
            raise ConfigurationError(f"unknown stepper {self.stepper!r}")
        if not self.tiers:
            raise ConfigurationError("at least one tier is required")
        object.__setattr__(self, "tiers", tuple(self.tiers))
        for tier in self.tiers:
            if tier not in TIERS:
                raise ConfigurationError(f"unknown tier {tier!r}")
        if len(set(self.tiers)) != len(self.tiers):
            raise ConfigurationError("duplicate tier requested")
        if self.mode == "dark":
            if self.A0 is None:
                raise ConfigurationError("dark mode requires A0")
            if not abs(self.A0) < 1.0:
                raise ConfigurationError("A0 must satisfy |A0| < 1")
            if self.eta0 is not None or self.xi0 is not None:
                raise ConfigurationError("eta0/xi0 are bright-mode keys")
            start = self.x0_0
        else:
            if self.eta0 is None or self.xi0 is None:
                raise ConfigurationError("bright mode requires eta0 and xi0")
            if not self.eta0 > 0.0:
                raise ConfigurationError("eta0 must be positive")
            if self.A0 is not None:
                raise ConfigurationError("A0 is a dark-mode key")
            if "eom-a" in self.tiers:
                raise ConfigurationError("tier eom-a exists only in dark mode")
            start = self.zeta0
        # grid geometry: build_grid validates shape, then the profile must
        # be regular on it and the soliton must start away from the edges
        grid = build_grid(self.x_min, self.x_max, self.n_points)
        if self.C != 0.0:
            x_sing = -self.D / self.C
            if self.x_min <= x_sing <= self.x_max:
                raise SingularityError(
                    f"interaction profile singular at x = {x_sing:g} inside the grid"
                )
        elif self.D == 0.0:
            raise ConfigurationError("C and D cannot both be zero")
        if not (self.x_min + EDGE_MARGIN <= start <= self.x_max - EDGE_MARGIN):
            raise ConfigurationError(
                f"soliton start {start:g} closer than {EDGE_MARGIN:g} to a grid edge"
            )
        if self.sample_interval < 1:
            raise ConfigurationError("sample_interval must be >= 1")
        n_pde = _near_integer(self.t_max / self.dt_pde)
        if n_pde % self.sample_interval != 0:
            raise ConfigurationError(
                f"{n_pde} PDE steps do not split into samples of {self.sample_interval}"
            )
        # ODE tiers sample on the same lab-time axis; bright parameter ODEs
        # run in the half-rate frame, so their stride halves
        dt_lab = self.sample_interval * self.dt_pde
        stride = dt_lab / self.dt_ode
        if self.mode == "bright":
            stride /= 2.0
        _near_integer(stride)

    @property
    def sample_step(self) -> float:
        """Lab-time spacing between recorded rows."""
        return self.sample_interval * self.dt_pde

    @property
    def n_samples(self) -> int:
        return _near_integer(self.t_max / self.dt_pde) // self.sample_interval + 1


def _parse_pairs(source: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigurationError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _to_float(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigurationError(f"{key} expects a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigurationError(f"{key} must be finite, got {value!r}")
    return out


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigurationError(f"{key} expects an integer, got {value!r}") from None


def config_from_mapping(pairs: dict[str, str]) -> ExperimentConfig:
    """Typed ExperimentConfig from raw key=value strings."""
    if "mode" not in pairs:
        raise ConfigurationError("missing key: mode")
    mode = pairs["mode"]
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}")
    allowed = set(_COMMON_KEYS) | set(_DARK_KEYS if mode == "dark" else _BRIGHT_KEYS)
    kwargs: dict = {"mode": mode}
    for key, value in pairs.items():
        if key == "mode":
            continue
        if key not in allowed:
            raise ConfigurationError(f"unknown key {key!r} for mode {mode}")
        if key in ("n_points", "sample_interval"):
            kwargs[key] = _to_int(key, value)
        elif key == "stepper":
            kwargs[key] = value
        elif key == "tiers":
            kwargs[key] = tuple(t.strip() for t in value.split(",") if t.strip())
        elif key == "out_path":
            kwargs[key] = value
        else:
            kwargs[key] = _to_float(key, value)
    if "t_max" not in kwargs:
        raise ConfigurationError("missing key: t_max")
    return ExperimentConfig(**kwargs)


def parse_config(source: str) -> ExperimentConfig:
    """Validated config from key=value text ('#' starts a comment)."""
    return config_from_mapping(_parse_pairs(source))


@dataclass
class RunRecord:
    """All series of one experiment on a shared lab-time axis."""

    config: ExperimentConfig
    times: np.ndarray
    centers: dict[str, np.ndarray]
    aux_pde: np.ndarray | None
    aux_ode: np.ndarray | None
    conserved: np.ndarray | None
    deltas: dict[str, np.ndarray]

    def __post_init__(self):
        n = self.times.shape[0]
        for name, series in list(self.centers.items()) + list(self.deltas.items()):
            if series.shape[0] != n:
                raise ConfigurationError(f"series {name!r} is off the time axis")
        for name in ("aux_pde", "aux_ode", "conserved"):
            series = getattr(self, name)
            if series is not None and series.shape[0] != n:
                raise ConfigurationError(f"series {name!r} is off the time axis")


def _dark_full(y, config, profile, grid):
    return dark.rhs_full(dark.DarkSolitonParams(A=float(y[0]), x0=float(y[1])),
                         profile, grid)


def _dark_taylor(y, config, profile, grid):
    return dark.rhs_taylor(dark.DarkSolitonParams(A=float(y[0]), x0=float(y[1])),
                           profile)


def _dark_eom(y, config, profile, grid):
    return y[1], dark.eom_rhs(y[0], y[1], config.C, config.D)


def _dark_eom_a(y, config, profile, grid):
    return y[1], dark.eom_a_rhs(y[0], config.C, config.D)


def _bright_full(y, config, profile, grid):
    params = bright.BrightSolitonParams(eta=float(y[0]), xi=float(y[1]),
                                        zeta=float(y[2]), phi=float(y[3]))
    return bright.rhs_full(params, profile, grid)


def _bright_taylor(y, config, profile, grid):
    params = bright.BrightSolitonParams(eta=float(y[0]), xi=float(y[1]),
                                        zeta=float(y[2]))
    return bright.rhs_taylor(params, profile)


def _bright_eom(y, config, profile, grid):
    # the center equation lives in lab time with velocity -2 xi
    return y[1], bright.eom_rhs(y[0], config.eta0, config.zeta0, config.C, config.D)


@dataclass(frozen=True)
class _Reduced:
    """One reduced tier: time frame, initial state, right-hand side, columns.

    rhs(y, config, profile, grid) returns the tier's derivative as a tuple;
    center and amplitude are columns of the tier's own state.
    """

    frame: str
    y0: Callable[[ExperimentConfig], tuple[float, ...]]
    rhs: Callable[..., tuple]
    center: int
    amplitude: int | None = None


# time runs at this rate in each frame: bright parameter ODEs use tau = t/2
_FRAME_RATE = {"lab": 1.0, "tau": 0.5}

# per mode, in order of preference for the amplitude series
_REDUCED = {
    "dark": {
        "ode-full": _Reduced("lab", lambda c: (c.A0, c.x0_0), _dark_full, 1, 0),
        "ode-taylor": _Reduced("lab", lambda c: (c.A0, c.x0_0), _dark_taylor, 1, 0),
        "eom": _Reduced("lab", lambda c: (c.x0_0, c.A0), _dark_eom, 0),
        "eom-a": _Reduced("lab", lambda c: (c.x0_0, c.A0), _dark_eom_a, 0),
    },
    "bright": {
        "ode-full": _Reduced("tau", lambda c: (c.eta0, c.xi0, c.zeta0, c.phi0),
                             _bright_full, 2, 0),
        "ode-taylor": _Reduced("tau", lambda c: (c.eta0, c.xi0, c.zeta0),
                               _bright_taylor, 2, 0),
        "eom": _Reduced("lab", lambda c: (c.zeta0, -2.0 * c.xi0), _bright_eom, 0),
    },
}


def _reduced_tiers(config: ExperimentConfig, profile: InhomogeneityProfile,
                   grid: SpatialGrid):
    """Centers and amplitude of the requested reduced tiers.

    The tiers of one time frame march together as one stacked system, each
    tier owning a slice of the state; the integrator acts elementwise, so
    every tier's trajectory is the one it would have alone.
    """
    table = _REDUCED[config.mode]
    centers: dict[str, np.ndarray] = {}
    amplitude = None
    for frame, rate in _FRAME_RATE.items():
        tiers = [tier for tier, row in table.items()
                 if row.frame == frame and tier in config.tiers]
        if not tiers:
            continue
        y0: list[float] = []
        parts = []  # (tier, row, the tier's slice of the stacked state)
        for tier in tiers:
            start = len(y0)
            y0.extend(table[tier].y0(config))
            parts.append((tier, table[tier], slice(start, len(y0))))

        def rhs(t, y, parts=parts):
            out: list[float] = []
            for _, row, part in parts:
                out.extend(row.rhs(y[part], config, profile, grid))
            return np.array(out)

        traj = abm4_integrate(OdeSystem(len(y0), rhs), np.array(y0), 0.0,
                              rate * config.t_max, config.dt_ode)
        stride = _near_integer(rate * config.sample_step / config.dt_ode)
        for tier, row, part in parts:
            centers[tier] = traj.states[::stride, part.start + row.center].copy()
            if amplitude is None and row.amplitude is not None:
                amplitude = traj.states[::stride, part.start + row.amplitude].copy()
    return centers, amplitude


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Run every requested tier and assemble the record.

    The PDE tier evolves the transformed equation of the mode's frame and
    extracts centers at the sample cadence, aborting with a range error if
    the soliton comes within EDGE_MARGIN of a grid edge.  Parameter-ODE and
    EOM tiers integrate with the predictor-corrector at dt_ode, one stacked
    system per time frame; bright parameter ODEs run in their half-rate
    frame and are resampled onto the lab axis.  A dt_pde beyond the
    stepper's stability bound is rejected before any tier runs.
    """
    grid = build_grid(config.x_min, config.x_max, config.n_points)
    if "pde" in config.tiers:
        check_time_step(config.dt_pde, grid, config.stepper)
    profile = make_inverse_square(config.C, config.D, grid)
    n_samples = config.n_samples
    times = config.sample_step * np.arange(n_samples)

    centers, amplitude = _reduced_tiers(config, profile, grid)

    aux_pde = None
    conserved = None
    if "pde" in config.tiers:
        if config.mode == "dark":
            params = dark.DarkSolitonParams(A=config.A0, x0=config.x0_0)
            field0 = dark.ansatz(params, grid)
            variant = "transformed-dark-rotated"
            probe = dark.default_background_probe(grid, config.x0_0)
        else:
            params = bright.BrightSolitonParams(eta=config.eta0, xi=config.xi0,
                                                zeta=config.zeta0, phi=config.phi0)
            field0 = bright.ansatz(params, grid)
            variant = "transformed-bright"
        problem = EvolutionProblem(variant, profile, grid)
        trajectory = evolve(problem, field0, 0.0, config.t_max, config.dt_pde,
                            config.sample_interval, stepper=config.stepper)
        pde_centers = np.empty(n_samples)
        aux_pde = np.empty(n_samples)
        lo, hi = config.x_min + EDGE_MARGIN, config.x_max - EDGE_MARGIN
        for k in range(n_samples):
            field = ComplexField(grid, trajectory.fields[k])
            if config.mode == "dark":
                center = dark.extract_center(field, probe)
                dens = np.abs(field.values) ** 2
                aux_pde[k] = np.sqrt(max(float(np.min(dens)), 0.0))
            else:
                center = bright.extract_center(field)
                aux_pde[k] = 0.25 * simpson(np.abs(field.values) ** 2, grid.dx)
            if not lo <= center <= hi:
                raise RangeError(
                    f"soliton center {center:g} within {EDGE_MARGIN:g} of a grid "
                    f"edge at t = {times[k]:g}"
                )
            pde_centers[k] = center
        centers["pde"] = pde_centers
        conserved = trajectory.conserved

    deltas: dict[str, np.ndarray] = {}
    if "pde" in centers:
        for tier in ("ode-full", "eom", "eom-a"):
            if tier in centers:
                deltas[tier] = centers[tier] - centers["pde"]

    return RunRecord(config=config, times=times, centers=centers,
                     aux_pde=aux_pde, aux_ode=amplitude,
                     conserved=conserved, deltas=deltas)


_PRESETS = {
    "dark-accel": dict(mode="dark", sweep=("A0", (0.0, 0.25, 0.5)),
                       t_max=100.0, tiers=("pde", "ode-full")),
    "dark-compare": dict(mode="dark", sweep=("A0", (0.0, 0.5)),
                         t_max=100.0, tiers=("pde", "ode-full", "eom", "eom-a")),
    "bright-accel": dict(mode="bright", sweep=("xi0", (0.0, 0.25, 0.5)),
                         t_max=50.0, tiers=("pde", "ode-full")),
    "bright-compare": dict(mode="bright", sweep=("xi0", (0.0, 0.5)),
                           t_max=50.0, tiers=("pde", "ode-full", "eom")),
}

SCENARIOS = tuple(sorted(_PRESETS))


def scenario(name: str) -> list[ExperimentConfig]:
    """Preset config sweeps over the initial velocity parameter."""
    if name not in _PRESETS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}"
        )
    preset = _PRESETS[name]
    key, values = preset["sweep"]
    configs = []
    for value in values:
        kwargs = {"mode": preset["mode"], "t_max": preset["t_max"],
                  "tiers": preset["tiers"], key: value}
        if preset["mode"] == "bright":
            kwargs.setdefault("eta0", 0.5)
            kwargs.setdefault("xi0", 0.0)
        configs.append(ExperimentConfig(**kwargs))
    return configs


_COLUMNS = ("x0_pde", "x0_ode_full", "x0_ode_taylor", "x0_eom", "x0_eom_a",
            "aux_pde", "aux_ode", "conserved",
            "delta_ode_full", "delta_eom", "delta_eom_a")
_TIER_COLUMN = {"pde": "x0_pde", "ode-full": "x0_ode_full",
                "ode-taylor": "x0_ode_taylor", "eom": "x0_eom",
                "eom-a": "x0_eom_a"}
_DELTA_COLUMN = {"ode-full": "delta_ode_full", "eom": "delta_eom",
                 "eom-a": "delta_eom_a"}


def _fmt(value: float) -> str:
    return f"{value:.11e}"


def write_csv(record: RunRecord, path: str) -> None:
    """Serialize the record; absent tiers leave their cells empty."""
    series: dict[str, np.ndarray] = {}
    for tier, column in _TIER_COLUMN.items():
        if tier in record.centers:
            series[column] = record.centers[tier]
    for tier, column in _DELTA_COLUMN.items():
        if tier in record.deltas:
            series[column] = record.deltas[tier]
    if record.aux_pde is not None:
        series["aux_pde"] = record.aux_pde
    if record.aux_ode is not None:
        series["aux_ode"] = record.aux_ode
    if record.conserved is not None:
        series["conserved"] = record.conserved
    lines = [CSV_HEADER]
    for k in range(record.times.shape[0]):
        cells = [_fmt(record.times[k])]
        for column in _COLUMNS:
            cells.append(_fmt(series[column][k]) if column in series else "")
        lines.append(",".join(cells))
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
