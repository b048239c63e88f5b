"""Experiment orchestration: configs, presets, tier runs, CSV output.

A run evolves one soliton with some subset of the model tiers

  pde         full field evolution (the reference)
  ode-full    adiabatic parameter ODEs with windowed quadratures
  ode-taylor  the same ODEs with the profile expanded at the center
  eom         Newtonian center equation
  eom-a       small-velocity Newtonian equation (dark only)

and records every tier's center on a shared lab-time axis, auxiliary
amplitude diagnostics and the PDE conserved norm, from which a record
derives its differences against the PDE center and its norm drift flag.
Records serialize to CSV in a fixed column schema, byte-identical per config.

The pde tier reads each field sample while the field marches (evolve's
on_sample consumer) and keeps no snapshot, so a run's field memory is
bounded by the grid size, not by t_max.  It reads the center and the
amplitude off the density evolve hands it, and allocates no grid-length row.

The fields of ExperimentConfig are the one table of config keys: each
annotation picks the value's parser, a mode-specific key names its mode in
the field's metadata, and the CLI derives one override flag per field.
However a config is built, each mode rule has one owner: the metadata
says which keys a mode takes and requires, the soliton _SOLITON builds
checks its range (and starts the pde tier), and _REDUCED lists the tiers.

The reduced tiers (all but pde) are rows of one table, _REDUCED: per mode
and tier, the initial state, a right-hand side returning a tuple, and the
state columns of the center and the amplitude.  ode-full and ode-taylor
march the same state, the soliton's parameters: (A, x0) for dark and
(eta, xi, zeta) for bright.  Each mode has one time
frame: lab time for dark, tau = t/2 for bright, where the parameter ODEs
live and the Newtonian eom is written as d/dtau = 2 d/dt.  All requested
tiers of a run march together as one stacked system in a single ABM4 call,
so the per-step cost of the integrator is paid once per run.  The
integrator acts elementwise, so each tier's trajectory is bitwise the one
it has alone, and scaling by 2 is exact, so the bright eom is bitwise a
lab-time march at 2 dt_ode.  When two tiers would both fail, the one that
fails first in time raises.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import bright_soliton as bright
from . import dark_soliton as dark
from . import pde_engine
from .errors import ConfigurationError, ParameterError, RangeError
from .grid_field import SpatialGrid, build_grid, density, simpson
from .inhomogeneity import InhomogeneityProfile, make_inverse_square
from .ode_engine import OdeSystem, abm4_integrate, step_count
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

# time runs at this rate in each mode's frame: bright uses tau = t/2
_FRAME_RATE = {"dark": 1.0, "bright": 0.5}


def _number(cast, noun: str):
    def parse(key: str, value: str):
        try:
            return cast(value)
        except ValueError:
            raise ConfigurationError(f"{key} expects {noun}, got {value!r}") from None
    return parse


# per annotation of a config field: the parser of its key=value text, and
# the type the value must have (a bool has none of them)
_FLOAT = (_number(float, "a number"), numbers.Real, "a real number")
_TEXT = (lambda key, value: value, str, "a string")
_ANNOTATIONS = {
    "int": (_number(int, "an integer"), numbers.Integral, "an integer"),
    "float": _FLOAT, "float | None": _FLOAT, "str": _TEXT, "str | None": _TEXT,
    # each name is then checked against the mode's tiers
    "tuple[str, ...]": (lambda key, value: tuple(filter(None, map(str.strip, value.split(",")))),
                        (tuple, list), "a tuple or list of strings"),
}
_DARK, _BRIGHT = {"mode": "dark"}, {"mode": "bright"}


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated experiment: mode, profile, initial soliton, numerics."""

    mode: str
    t_max: float
    C: float = 1.0
    D: float = -200.0
    A0: float | None = field(default=None, metadata=_DARK)
    x0_0: float = field(default=0.0, metadata=_DARK)
    eta0: float | None = field(default=None, metadata=_BRIGHT)
    xi0: float | None = field(default=None, metadata=_BRIGHT)
    zeta0: float = field(default=0.0, metadata=_BRIGHT)
    phi0: float = field(default=0.0, metadata=_BRIGHT)
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
        for f in fields(self):
            value = getattr(self, f.name)
            _, kind, noun = _ANNOTATIONS[f.type]
            if value is None and f.type.endswith("None"):
                # a key of this mode without a default is required
                if f.metadata.get("mode") == self.mode:
                    raise ConfigurationError(f"{self.mode} mode requires {f.name}")
            elif isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigurationError(f"{f.name} must be {noun}, got {value!r}")
            # integer keys are counts for numpy, whose indices have 64 bits
            elif kind is numbers.Integral:
                if not -2 ** 63 < value < 2 ** 63:
                    raise ConfigurationError(f"{f.name} must be an integer below 2**63")
            elif kind is numbers.Real:
                try:
                    finite = math.isfinite(value)
                except OverflowError:  # an int past a float's range
                    finite = False
                if not finite:
                    raise ConfigurationError(f"{f.name} must be finite, got {value!r}")
            # a key of the other mode keeps its default
            if f.metadata.get("mode", self.mode) != self.mode and value != f.default:
                raise ConfigurationError(f"{f.name} is not a key of mode {self.mode}")
        if self.stepper not in STEPPERS:
            raise ConfigurationError(f"unknown stepper {self.stepper!r}")
        if not self.tiers:
            raise ConfigurationError("at least one tier is required")
        object.__setattr__(self, "tiers", tuple(self.tiers))
        # a tier of this mode is pde or a row of its reduced table
        for tier in self.tiers:
            if tier not in ("pde", *_REDUCED[self.mode]):
                raise ConfigurationError(f"unknown tier {tier!r} for mode {self.mode}")
        if len(set(self.tiers)) != len(self.tiers):
            raise ConfigurationError("duplicate tier requested")
        # the soliton checks its own range
        try:
            _SOLITON[self.mode](self)
        except ParameterError as err:
            raise ConfigurationError(str(err)) from None
        start = self.x0_0 if self.mode == "dark" else self.zeta0
        # the grid and the profile validate themselves; then the soliton
        # must start away from the edges
        make_inverse_square(self.C, self.D,
                            build_grid(self.x_min, self.x_max, self.n_points))
        if not (self.x_min + EDGE_MARGIN <= start <= self.x_max - EDGE_MARGIN):
            raise ConfigurationError(
                f"soliton start {start:g} closer than {EDGE_MARGIN:g} to a grid edge"
            )
        if self.sample_interval < 1:
            raise ConfigurationError("sample_interval must be >= 1")
        n_pde = step_count(0.0, self.t_max, self.dt_pde)
        if n_pde % self.sample_interval != 0:
            raise ConfigurationError(
                f"{n_pde} PDE steps do not split into samples of {self.sample_interval}"
            )
        # ODE tiers sample on the same lab-time axis; bright tiers run in
        # the half-rate frame, so their stride halves
        stride = step_count(0.0, _FRAME_RATE[self.mode] * self.sample_step, self.dt_ode)
        # at least these float64 words grow with t_max or n_points: the time
        # axis and a series per CSV column, the ODE states and times, the
        # grid's x and the profile's 4 tables, and the pde tier's 11 complex
        # rows (the field, the kernel's 5-row stencil table, 5 stepper rows)
        n_rows = n_pde // self.sample_interval + 1
        width = sum(len(_REDUCED[self.mode][t].y0(self)) for t in self.tiers if t != "pde")
        ode = ((n_rows - 1) * stride + 1) * (width + 1) if width else 0
        grid_rows = 5 + (22 if "pde" in self.tiers else 0)
        words = n_rows * len(CSV_HEADER.split(",")) + ode + grid_rows * self.n_points
        try:  # a host that cannot report its physical memory sets no bound
            memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError, OSError):
            memory = math.inf
        if 8 * words > memory:
            raise ConfigurationError(
                f"the run needs at least {8 * words:.3g} bytes of arrays, more than "
                f"the {memory:.3g} bytes of physical memory")

    @property
    def sample_step(self) -> float:
        """Lab-time spacing between recorded rows."""
        return self.sample_interval * self.dt_pde

    @property
    def n_samples(self) -> int:
        return step_count(0.0, self.t_max, self.dt_pde) // self.sample_interval + 1


# per mode, the soliton a config starts from; its type checks the range
_SOLITON = {
    "dark": lambda c: dark.DarkSolitonParams(A=c.A0, x0=c.x0_0),
    "bright": lambda c: bright.BrightSolitonParams(eta=c.eta0, xi=c.xi0,
                                                   zeta=c.zeta0, phi=c.phi0),
}


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


def config_from_mapping(pairs: dict[str, str]) -> ExperimentConfig:
    """Typed ExperimentConfig from raw key=value strings."""
    if "mode" not in pairs:
        raise ConfigurationError("missing key: mode")
    mode = pairs["mode"]
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}")
    kwargs: dict = {"mode": mode}
    config_fields = {f.name: f for f in fields(ExperimentConfig)}
    for key, value in pairs.items():
        if key == "mode":
            continue
        f = config_fields.get(key)
        if f is None or f.metadata.get("mode", mode) != mode:
            raise ConfigurationError(f"unknown key {key!r} for mode {mode}")
        kwargs[key] = _ANNOTATIONS[f.type][0](key, value)
    if "t_max" not in kwargs:
        raise ConfigurationError("missing key: t_max")
    return ExperimentConfig(**kwargs)


def parse_config(source: str) -> ExperimentConfig:
    """Validated config from key=value text ('#' starts a comment)."""
    return config_from_mapping(_parse_pairs(source))


@dataclass
class RunRecord:
    """All series of one experiment on a shared lab-time axis."""

    times: np.ndarray
    centers: dict[str, np.ndarray]
    aux_pde: np.ndarray | None
    aux_ode: np.ndarray | None
    conserved: np.ndarray | None
    # derived, never supplied: each delta-column tier's center minus the pde's
    deltas: dict[str, np.ndarray] = field(init=False)

    def __post_init__(self):
        n = self.times.shape[0]
        for name, series in self.centers.items():
            if series.shape[0] != n:
                raise ConfigurationError(f"series {name!r} is off the time axis")
        for name in ("aux_pde", "aux_ode", "conserved"):
            series = getattr(self, name)
            if series is not None and series.shape[0] != n:
                raise ConfigurationError(f"series {name!r} is off the time axis")
        self.deltas = {tier: self.centers[tier] - self.centers["pde"] for tier in _DELTA_COLUMN
                       if tier in self.centers and "pde" in self.centers}

    @property
    def norm_drift_warning(self) -> bool | None:
        """The field norm drifted beyond pde_engine.NORM_DRIFT_TOL; None without it."""
        return None if self.conserved is None else (
            pde_engine.norm_drift(self.conserved) > pde_engine.NORM_DRIFT_TOL)


def _state_params(y, config):
    """The soliton module and the parameters a state of ode-full or ode-taylor holds."""
    if config.mode == "dark":
        return dark, dark.DarkSolitonParams(A=float(y[0]), x0=float(y[1]))
    return bright, bright.BrightSolitonParams(eta=float(y[0]), xi=float(y[1]),
                                              zeta=float(y[2]))


def _full(y, config, profile, grid):
    module, params = _state_params(y, config)
    return module.rhs_full(params, profile, grid)


def _taylor(y, config, profile, grid):
    module, params = _state_params(y, config)
    return module.rhs_taylor(params, profile)


def _dark_eom(y, config, profile, grid):
    return y[1], dark.eom_rhs(y[0], y[1], config.C, config.D)


def _dark_eom_a(y, config, profile, grid):
    return y[1], dark.eom_a_rhs(y[0], config.C, config.D)


def _bright_eom(y, config, profile, grid):
    # the lab-time center equation (velocity -2 xi) written in tau = t/2
    return 2.0 * y[1], 2.0 * bright.eom_rhs(y[0], config.eta0, config.zeta0,
                                            config.C, config.D)


@dataclass(frozen=True)
class _Reduced:
    """One reduced tier: initial state, right-hand side, columns.

    rhs(y, config, profile, grid) returns the tier's derivative in the
    mode's frame as a tuple; center and amplitude are columns of the tier's
    own state.
    """

    y0: Callable[[ExperimentConfig], tuple[float, ...]]
    rhs: Callable[..., tuple]
    center: int
    amplitude: int | None = None


# per mode, in order of preference for the amplitude series
_REDUCED = {
    "dark": {
        "ode-full": _Reduced(lambda c: (c.A0, c.x0_0), _full, 1, 0),
        "ode-taylor": _Reduced(lambda c: (c.A0, c.x0_0), _taylor, 1, 0),
        "eom": _Reduced(lambda c: (c.x0_0, c.A0), _dark_eom, 0),
        "eom-a": _Reduced(lambda c: (c.x0_0, c.A0), _dark_eom_a, 0),
    },
    "bright": {
        "ode-full": _Reduced(lambda c: (c.eta0, c.xi0, c.zeta0), _full, 2, 0),
        "ode-taylor": _Reduced(lambda c: (c.eta0, c.xi0, c.zeta0), _taylor, 2, 0),
        "eom": _Reduced(lambda c: (c.zeta0, -2.0 * c.xi0), _bright_eom, 0),
    },
}


def _reduced_tiers(config: ExperimentConfig, profile: InhomogeneityProfile,
                   grid: SpatialGrid):
    """Centers and amplitude of the requested reduced tiers.

    The tiers march together as one stacked system in the mode's frame,
    each tier owning a slice of the state; the integrator acts
    elementwise, so every tier's trajectory is the one it would have alone.
    """
    table = _REDUCED[config.mode]
    tiers = [tier for tier in table if tier in config.tiers]
    if not tiers:
        return {}, None
    y0: list[float] = []
    parts = []  # (tier, row, the tier's slice of the stacked state)
    for tier in tiers:
        start = len(y0)
        y0.extend(table[tier].y0(config))
        parts.append((tier, table[tier], slice(start, len(y0))))

    def rhs(t, y):
        out: list[float] = []
        for _, row, part in parts:
            out.extend(row.rhs(y[part], config, profile, grid))
        return np.array(out)

    rate = _FRAME_RATE[config.mode]
    traj = abm4_integrate(OdeSystem(len(y0), rhs), np.array(y0), 0.0,
                          rate * config.t_max, config.dt_ode)
    stride = step_count(0.0, rate * config.sample_step, config.dt_ode)
    centers: dict[str, np.ndarray] = {}
    amplitude = None
    for tier, row, part in parts:
        centers[tier] = traj.states[::stride, part.start + row.center].copy()
        if amplitude is None and row.amplitude is not None:
            amplitude = traj.states[::stride, part.start + row.amplitude].copy()
    return centers, amplitude


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Run every requested tier and assemble the record.

    The PDE tier evolves the transformed equation of the mode's frame and
    extracts the center and the amplitude of each sample as the field
    marches, so no field snapshot is kept and the run's field memory is
    bounded by n_points, not by t_max.  It raises RangeError at the first
    sample whose center comes within EDGE_MARGIN of a grid edge, so a
    crossing that precedes a blow-up raises RangeError, not
    InstabilityError.
    Parameter-ODE and EOM tiers integrate with the predictor-corrector at
    dt_ode, one stacked system in the mode's frame; bright tiers run in the
    half-rate frame tau = t/2 and are resampled onto the lab axis.  A dt_pde
    beyond the stepper's stability bound is rejected before any tier runs.
    """
    grid = build_grid(config.x_min, config.x_max, config.n_points)
    if "pde" in config.tiers:
        check_time_step(config.dt_pde, grid, config.stepper)
    profile = make_inverse_square(config.C, config.D, grid)
    n_samples = config.n_samples
    times = config.sample_step * np.arange(n_samples)

    centers, amplitude = _reduced_tiers(config, profile, grid)

    aux_pde = conserved = None
    if "pde" in config.tiers:
        soliton = _SOLITON[config.mode](config)
        if config.mode == "dark":
            field0 = dark.ansatz(soliton, grid)
            variant = "transformed-dark-rotated"
            probe = dark.default_background_probe(grid, config.x0_0)
        else:
            field0 = bright.ansatz(soliton, grid)
            variant = "transformed-bright"
        problem = EvolutionProblem(variant, profile, grid)
        pde_centers = np.empty(n_samples)
        aux_pde = np.empty(n_samples)
        lo, hi = config.x_min + EDGE_MARGIN, config.x_max - EDGE_MARGIN

        work = np.empty(grid.n_points)  # bright's x |u|^2, kept for the run

        def take(k: int, u: np.ndarray, dens: np.ndarray) -> None:
            if config.mode == "dark":
                center = dark.extract_center(dens, grid, probe)
                aux_pde[k] = np.sqrt(max(float(np.min(dens)), 0.0))
            else:
                center = bright.extract_center(dens, grid, work)
                aux_pde[k] = 0.25 * simpson(dens, grid.dx)
            if not lo <= center <= hi:
                raise RangeError(
                    f"soliton center {center:g} within {EDGE_MARGIN:g} of a grid "
                    f"edge at t = {times[k]:g}"
                )
            pde_centers[k] = center

        # sample 0 here, the rest as the field marches: no snapshot is kept
        take(0, field0.values, density(field0.values))
        conserved = evolve(problem, field0, 0.0, config.t_max, config.dt_pde,
                           config.sample_interval, stepper=config.stepper,
                           on_sample=take).conserved
        centers["pde"] = pde_centers

    return RunRecord(times=times, centers=centers,
                     aux_pde=aux_pde, aux_ode=amplitude, conserved=conserved)


_PRESETS = {
    "dark-accel": dict(mode="dark", sweep=("A0", (0.0, 0.25, 0.5)),
                       t_max=100.0, tiers=("pde", "ode-full")),
    "dark-compare": dict(mode="dark", sweep=("A0", (0.0, 0.5)),
                         t_max=100.0, tiers=("pde", "ode-full", "eom", "eom-a")),
    "bright-accel": dict(mode="bright", sweep=("xi0", (0.0, 0.25, 0.5)), eta0=0.5,
                         t_max=50.0, tiers=("pde", "ode-full")),
    "bright-compare": dict(mode="bright", sweep=("xi0", (0.0, 0.5)), eta0=0.5,
                           t_max=50.0, tiers=("pde", "ode-full", "eom")),
}

SCENARIOS = tuple(sorted(_PRESETS))


def scenario(name: str) -> list[ExperimentConfig]:
    """Preset config sweeps over the initial velocity parameter."""
    if name not in _PRESETS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}"
        )
    fixed = dict(_PRESETS[name])
    key, values = fixed.pop("sweep")
    return [ExperimentConfig(**fixed, **{key: value}) for value in values]


def _column(prefix: str, tier: str) -> str:
    return prefix + tier.replace("-", "_")


_COLUMNS = tuple(CSV_HEADER.split(",")[1:])
_TIER_COLUMN = {tier: _column("x0_", tier) for tier in TIERS}
# the header names the tiers whose centers are measured against the pde's
_DELTA_COLUMN = {tier: _column("delta_", tier) for tier in TIERS
                 if _column("delta_", tier) in _COLUMNS}


def _fmt(value: float) -> str:
    return f"{value:.11e}"


def write_csv(record: RunRecord, path: str) -> None:
    """Serialize the record row by row; absent tiers leave their cells empty."""
    series = {column: record.centers[tier] for tier, column in _TIER_COLUMN.items()
              if tier in record.centers}
    series.update((column, record.deltas[tier]) for tier, column in _DELTA_COLUMN.items()
                  if tier in record.deltas)
    series.update((name, getattr(record, name)) for name in ("aux_pde", "aux_ode", "conserved")
                  if getattr(record, name) is not None)
    with open(path, "w", newline="\n") as handle:
        handle.write(CSV_HEADER + "\n")
        for k in range(record.times.shape[0]):
            cells = [_fmt(record.times[k])]
            for column in _COLUMNS:
                cells.append(_fmt(series[column][k]) if column in series else "")
            handle.write(",".join(cells) + "\n")
