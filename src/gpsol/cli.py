"""Command-line interface.

Subcommands:

  run --config FILE [flag overrides]   one experiment, CSV out
  scenario NAME [--out-dir DIR]        preset sweep, one CSV per run
  validate                             fast invariant suite, pass/fail lines

Exit codes: 0 success, 1 I/O failure, 2 bad configuration, 3 numerical
failure (instability, range or extraction breakdown), 4 singular profile
inside the domain.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .errors import (ConfigurationError, GpsolError, InstabilityError,
                     SingularityError)
from .harness import (SCENARIOS, ExperimentConfig, config_from_mapping,
                      run_experiment, scenario, write_csv, _parse_pairs)

__all__ = ["main", "script_entry"]

# one override flag per config key but mode: --t-max sets t_max, --out out_path
_OVERRIDE_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "mode")
# the exit code of each failure: the first kind it is an instance of
_EXIT_CODES = ((SingularityError, 4), (ConfigurationError, 2), (GpsolError, 3), (OSError, 1))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpsol",
        description="Soliton dynamics in a spatially varying interaction profile",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True, help="key=value config file")
    for key in _OVERRIDE_KEYS:
        flag = "--out" if key == "out_path" else "--" + key.replace("_", "-")
        run_p.add_argument(flag, dest=f"override_{key}", default=None,
                           metavar="VALUE", help=f"override config key {key}")

    scen_p = sub.add_parser("scenario", help="run a preset sweep")
    scen_p.add_argument("name", choices=SCENARIOS)
    scen_p.add_argument("--out-dir", default=".", help="directory for CSV files")

    sub.add_parser("validate", help="run the invariant suite")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.config) as handle:
        pairs = _parse_pairs(handle.read())
    for key in _OVERRIDE_KEYS:
        value = getattr(args, f"override_{key}")
        if value is not None:
            pairs[key] = value
    config = config_from_mapping(pairs)
    record = run_experiment(config)
    out_path = config.out_path or "run.csv"
    write_csv(record, out_path)
    print(f"wrote {out_path} ({record.times.shape[0]} rows)")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    import os

    configs = scenario(args.name)
    os.makedirs(args.out_dir, exist_ok=True)
    for index, config in enumerate(configs):
        record = run_experiment(config)
        path = os.path.join(args.out_dir, f"{args.name}-{index}.csv")
        write_csv(record, path)
        print(f"wrote {path} ({record.times.shape[0]} rows)")
    return 0


def _cmd_validate() -> int:
    from .validate import run_all

    return 0 if run_all() else 3


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "scenario":
            return _cmd_scenario(args)
        return _cmd_validate()
    except (GpsolError, OSError) as err:
        when = f" (t = {err.t_fail:g})" if isinstance(err, InstabilityError) else ""
        print(f"error: {err}{when}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(err, kind))


def script_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_entry()
