"""Experiment orchestration: configs, presets, tier runs, CSV output.

A run evolves one soliton with some subset of the model tiers

  pde         full field evolution (the reference)
  ode-full    adiabatic parameter ODEs with windowed quadratures
  ode-taylor  the same ODEs with the profile expanded at the center
  eom         Newtonian center equation; on g = 1/(D + C x)^2 it is the
              ode-taylor model, whose march it reads
  eom-a       small-velocity Newtonian equation (dark only)

and records every tier's center on a shared lab-time axis, auxiliary
amplitude diagnostics and the PDE conserved norm, from which a record
derives its differences against the PDE center and its norm drift flag.
Records serialize to CSV in a fixed column schema, byte-identical per config.

Everything that differs between the modes is one row of _MODES, and no
other code branches on the mode: the time frame (lab time for dark,
tau = t/2 for bright, where the parameter ODEs live), the start soliton,
whose type checks its range, the pde tier's equation, initial field and
sample reader, the reduced models' start state and center column, and the
reduced tiers (all but pde).

The fields of ExperimentConfig are the one table of config keys: each
annotation picks the value's parser, a mode-specific key names its mode in
the field's metadata (which keys a mode takes and requires), and the CLI
derives one override flag per field.

The pde tier hands each field sample's density, as evolve marches, to the
row's reader, which returns the center and the amplitude; no snapshot is
kept, so a run's field memory is bounded by the grid size, not by t_max.
A reduced tier's row names its model, a right-hand side on the soliton's
parameters, (A, x0) for dark and (eta, xi, zeta) for bright, returning a
tuple, and says whether the tier supplies the amplitude, the state's
column 0.  Every model of a run starts from the mode's start state and
marches once, so tiers that share a model read one trajectory; all models
march together as one stacked system in a single ABM4 call, so the
per-step cost of the integrator is paid once per run.  The integrator acts
elementwise, so each model's trajectory is bitwise the one it has alone.
When two models would both fail, the one that fails first in time raises.
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
        row = _MODES[self.mode]
        # a tier of this mode is pde or a row of its reduced table
        for tier in self.tiers:
            if tier not in ("pde", *row.reduced):
                raise ConfigurationError(f"unknown tier {tier!r} for mode {self.mode}")
        if len(set(self.tiers)) != len(self.tiers):
            raise ConfigurationError("duplicate tier requested")
        # the soliton checks its own range
        try:
            row.soliton(self)
        except ParameterError as err:
            raise ConfigurationError(str(err)) from None
        start = row.y0(self)[row.center]
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
        n_pde = step_count(self.t_max, self.dt_pde)
        if n_pde % self.sample_interval != 0:
            raise ConfigurationError(
                f"{n_pde} PDE steps do not split into samples of {self.sample_interval}"
            )
        # ODE tiers sample on the same lab-time axis; bright tiers run in
        # the half-rate frame, so their stride halves
        stride = step_count(row.rate * self.sample_step, self.dt_ode)
        # at least these float64 words grow with t_max or n_points: the time
        # axis and a series per CSV column, the ODE states and times, the
        # grid's x and the profile's 4 tables, and the pde tier's 11 complex
        # rows (the field, the kernel's 5-row stencil table, 5 stepper rows)
        n_rows = n_pde // self.sample_interval + 1
        width = len(_models(row, self.tiers)) * len(row.y0(self))
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
        return step_count(self.t_max, self.dt_pde) // self.sample_interval + 1


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
        aux = ((name, getattr(self, name)) for name in ("aux_pde", "aux_ode", "conserved"))
        for name, series in [*self.centers.items(), *aux]:
            if series is not None and series.shape[0] != self.times.shape[0]:
                raise ConfigurationError(f"series {name!r} is off the time axis")
        self.deltas = {tier: self.centers[tier] - self.centers["pde"] for tier in _DELTA_COLUMN
                       if tier in self.centers and "pde" in self.centers}

    @property
    def norm_drift_warning(self) -> bool | None:
        """The field norm drifted beyond pde_engine.NORM_DRIFT_TOL; None without it."""
        return None if self.conserved is None else (
            pde_engine.norm_drift(self.conserved) > pde_engine.NORM_DRIFT_TOL)


def _full(y, config, profile, grid):
    row = _MODES[config.mode]
    return row.rhs_full(row.params(y), profile, grid)


def _taylor(y, config, profile, grid):
    row = _MODES[config.mode]
    return row.rhs_taylor(row.params(y), profile)


def _inside(x, profile):
    """A particle tier's center x, which stops the run once it leaves the profile."""
    if not profile.contains(x, x):
        raise RangeError(f"center {x} outside profile validity")
    return x


def _dark_eom_a(y, config, profile, grid):
    return dark.eom_a_rhs(_inside(y[1], profile), config.C, config.D), y[0]


@dataclass(frozen=True)
class _Reduced:
    """One reduced tier: the model it reads, rhs(y, config, profile, grid) -> the
    derivative of the mode's parameter state in the mode's frame as a tuple, and
    whether it supplies the amplitude series (the state's column 0)."""

    rhs: Callable[..., tuple]
    amplitude: bool = False


@dataclass(frozen=True)
class _Mode:
    """One mode's row; its functions look soliton names up when called, as patches need."""

    rate: float  # time runs at this rate in the mode's frame
    soliton: Callable[[ExperimentConfig], object]  # the start; its type checks the range
    y0: Callable[[ExperimentConfig], tuple[float, ...]]  # the parameter ODEs' start state
    center: int  # the state's center column, so y0[center] is the start position
    params: Callable  # the soliton an ode-full or ode-taylor state holds
    rhs_full: Callable
    rhs_taylor: Callable
    variant: str  # the pde tier's equation
    ansatz: Callable  # (soliton, grid) -> the initial field
    reader: Callable  # (config, grid) -> once per run, density -> (center, amplitude)
    reduced: dict[str, _Reduced]  # in order of preference for the amplitude series


def _dark_reader(config, grid):
    probe = dark.default_background_probe(grid, config.x0_0)
    return lambda dens: (dark.extract_center(dens, grid, probe),
                         np.sqrt(max(float(np.min(dens)), 0.0)))


def _bright_reader(config, grid):
    work = np.empty(grid.n_points)  # x |u|^2, kept for the run
    return lambda dens: (bright.extract_center(dens, grid, work), 0.25 * simpson(dens, grid.dx))


_MODES = {
    "dark": _Mode(
        rate=1.0, soliton=lambda c: dark.DarkSolitonParams(A=c.A0, x0=c.x0_0),
        params=lambda y: dark.DarkSolitonParams(A=float(y[0]), x0=float(y[1])),
        rhs_full=lambda p, profile, grid: dark.rhs_full(p, profile, grid),
        rhs_taylor=lambda p, profile: dark.rhs_taylor(p, profile),
        variant="transformed-dark-rotated", ansatz=lambda s, grid: dark.ansatz(s, grid),
        y0=lambda c: (c.A0, c.x0_0), center=1, reader=_dark_reader, reduced={
            "ode-full": _Reduced(_full, True),
            "ode-taylor": _Reduced(_taylor, True),
            "eom": _Reduced(_taylor),  # the Newtonian equation on this profile
            "eom-a": _Reduced(_dark_eom_a),
        }),
    "bright": _Mode(  # tau = t/2
        rate=0.5, soliton=lambda c: bright.BrightSolitonParams(
            eta=c.eta0, xi=c.xi0, zeta=c.zeta0, phi=c.phi0),
        params=lambda y: bright.BrightSolitonParams(eta=float(y[0]), xi=float(y[1]),
                                                    zeta=float(y[2])),
        rhs_full=lambda p, profile, grid: bright.rhs_full(p, profile, grid),
        rhs_taylor=lambda p, profile: bright.rhs_taylor(p, profile),
        variant="transformed-bright", ansatz=lambda s, grid: bright.ansatz(s, grid),
        y0=lambda c: (c.eta0, c.xi0, c.zeta0), center=2, reader=_bright_reader, reduced={
            "ode-full": _Reduced(_full, True),
            "ode-taylor": _Reduced(_taylor, True),
            "eom": _Reduced(_taylor),  # the Newtonian equation on this profile
        }),
}


def _models(mode: _Mode, tiers) -> list[Callable]:
    """The distinct models (right-hand sides) of the requested reduced tiers."""
    return list(dict.fromkeys(row.rhs for tier, row in mode.reduced.items() if tier in tiers))


def _reduced_tiers(config: ExperimentConfig, profile: InhomogeneityProfile,
                   grid: SpatialGrid):
    """Centers and amplitude of the requested reduced tiers.

    Each model marches once from the mode's start state, and the tiers
    that share it read its slice; all models march together as one stacked
    system in the mode's frame.  The integrator acts elementwise, so each
    model's trajectory is the one it would have alone.
    """
    mode = _MODES[config.mode]
    models = _models(mode, config.tiers)
    if not models:
        return {}, None
    y0 = mode.y0(config)
    n = len(y0)

    def rhs(y):
        return np.array([value for model, part in zip(models, y.reshape(-1, n))
                         for value in model(part, config, profile, grid)])

    traj = abm4_integrate(OdeSystem(n * len(models), rhs), np.array(y0 * len(models)),
                          mode.rate * config.t_max, config.dt_ode)
    stride = step_count(mode.rate * config.sample_step, config.dt_ode)
    states = traj.states[::stride].reshape(-1, len(models), n)
    centers: dict[str, np.ndarray] = {}
    amplitude = None
    for tier, row in mode.reduced.items():
        if tier in config.tiers:
            k = models.index(row.rhs)
            centers[tier] = states[:, k, mode.center].copy()
            if amplitude is None and row.amplitude:
                amplitude = states[:, k, 0].copy()
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
        row = _MODES[config.mode]
        field0 = row.ansatz(row.soliton(config), grid)
        read = row.reader(config, grid)
        problem = EvolutionProblem(row.variant, profile, grid)
        pde_centers = np.empty(n_samples)
        aux_pde = np.empty(n_samples)
        lo, hi = config.x_min + EDGE_MARGIN, config.x_max - EDGE_MARGIN

        def take(k: int, u: np.ndarray, dens: np.ndarray) -> None:
            center, aux_pde[k] = read(dens)
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
