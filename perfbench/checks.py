"""Output checks for one benchmark operation, made apart from gpsol.

Each check compares against scipy, a closed form of the paper, or a
property the method must have; none compares against stored output.

  models      eom, eom-a and ode-taylor columns against solve_ivp of the
              closed-form equations at the drawn parameters
  quadrature  rhs_full at states of the ode-full trajectory against
              scipy.integrate.quad of the same integrals
  norm        relative drift of the conserved field norm
  accel       fitted early acceleration of a rest start's field center
              against the closed form (2/3) C/(D + C x0), or
              -(8/3) C eta0^2/(D + C zeta0) for a bright soliton
  tiers       dark ode-full center against the field center (criterion 5)
  csv         the file parses back to the record at its 11-digit format
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp

from gpsol import bright_soliton as bright
from gpsol import dark_soliton as dark
from gpsol.grid_field import build_grid
from gpsol.inhomogeneity import make_inverse_square

MODEL_TOL = 1e-6         # absolute, on centers
QUAD_TOL = 1e-9          # absolute, on each rhs_full component
NORM_DRIFT_TOL = 1e-6    # relative
ACCEL_REL_TOL = 0.10
ACCEL_WINDOW = 1.0       # fit the field center over t <= ACCEL_WINDOW
TIER_BOUND = 1.0         # criterion 5: |x0_ode_full - x0_pde| <= 1
WINDOW = 17.0            # quadrature half-width in soliton widths
CSV_DIGITS_REL = 5.000001e-12  # half a unit in the 11th decimal of the mantissa

CSV_HEADER = ("t,x0_pde,x0_ode_full,x0_ode_taylor,x0_eom,x0_eom_a,"
              "aux_pde,aux_ode,conserved,delta_ode_full,delta_eom,delta_eom_a")


def _solve(rhs, y0, times):
    sol = solve_ivp(rhs, (0.0, float(times[-1])), y0, method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"solve_ivp failed: {sol.message}")
    return sol.y


def _closed_form_models(cfg) -> dict:
    """Center equations of the paper as (rhs, y0, time scale, center row) per tier."""
    C, D = cfg.C, cfg.D

    def w(x):
        return D + C * x

    if cfg.mode == "dark":
        return {
            "ode-taylor": (lambda t, y: [(2.0 / 3.0) * (1.0 - y[0] ** 2) * C / w(y[1]), y[0]],
                           [cfg.A0, cfg.x0_0], 1.0, 1),
            "eom": (lambda t, y: [y[1], (2.0 / 3.0) * C / w(y[0]) * (1.0 - y[1] ** 2)],
                    [cfg.x0_0, cfg.A0], 1.0, 0),
            "eom-a": (lambda t, y: [y[1], (2.0 / 3.0) * C / w(y[0])],
                      [cfg.x0_0, cfg.A0], 1.0, 0),
        }
    eta0, zeta0 = cfg.eta0, cfg.zeta0
    w0 = w(zeta0)
    return {
        # parameter ODEs in the half-rate frame tau = t/2
        "ode-taylor": (lambda tau, y: [8.0 * y[0] * y[1] * C / w(y[2]),
                                       (8.0 / 3.0) * y[0] ** 2 * C / w(y[2]),
                                       -4.0 * y[1]],
                       [eta0, cfg.xi0, zeta0], 0.5, 2),
        "eom": (lambda t, y: [y[1], -(8.0 / 3.0) * C * eta0 ** 2 * w0 ** 4 / w(y[0]) ** 5],
                [zeta0, -2.0 * cfg.xi0], 1.0, 0),
    }


def check_models(cfg, rec) -> list[str]:
    out = []
    for tier, (rhs, y0, scale, row) in _closed_form_models(cfg).items():
        if tier not in rec.centers:
            continue
        expected = _solve(rhs, y0, scale * rec.times)[row]
        err = float(np.max(np.abs(rec.centers[tier] - expected)))
        if not err <= MODEL_TOL:
            out.append(f"{tier} center off solve_ivp by {err:.3e} > {MODEL_TOL:g}")
    return out


def _quad(fn, lo, hi, center):
    value, _ = quad(fn, lo, hi, points=[center], epsabs=1e-14, epsrel=1e-12, limit=400)
    return value


def _dark_rhs_quad(C, D, A, x0):
    B = math.sqrt(1.0 - A * A)
    half = WINDOW / B

    def parts(x):
        th = B * (x - x0)
        sech2 = 1.0 / math.cosh(th) ** 2
        return C / (D + C * x), th, sech2, math.tanh(th)

    def f_a(x):
        adv, _, sech2, _ = parts(x)
        return adv * sech2 * sech2

    def f_x(x):
        adv, th, sech2, tanh = parts(x)
        return adv * sech2 * (tanh + th * sech2)

    lo, hi = x0 - half, x0 + half
    return (0.5 * B ** 3 * _quad(f_a, lo, hi, x0),
            A - 0.5 * A * _quad(f_x, lo, hi, x0))


def _bright_rhs_quad(C, D, eta, xi, zeta):
    half = WINDOW / (2.0 * eta)

    def parts(x):
        z = 2.0 * eta * (x - zeta)
        return C / (D + C * x), 1.0 / math.cosh(z) ** 2, math.tanh(z)

    def f_eta(x):
        adv, sech2, _ = parts(x)
        return adv * sech2

    def f_xi(x):
        adv, sech2, tanh = parts(x)
        return adv * tanh * tanh * sech2

    def f_zeta(x):
        adv, sech2, _ = parts(x)
        return adv * (x - zeta) * sech2

    def f_phi(x):
        adv, sech2, tanh = parts(x)
        return adv * sech2 * tanh * (1.0 - 2.0 * eta * x * tanh)

    lo, hi = zeta - half, zeta + half
    return (8.0 * eta * eta * xi * _quad(f_eta, lo, hi, zeta),
            8.0 * eta ** 3 * _quad(f_xi, lo, hi, zeta),
            -4.0 * xi + 8.0 * eta * xi * _quad(f_zeta, lo, hi, zeta),
            4.0 * (xi * xi - eta * eta) + 8.0 * eta * eta * _quad(f_phi, lo, hi, zeta))


def check_quadrature(cfg, rec) -> list[str]:
    """rhs_full at the first, middle and next-to-last recorded ode-full states."""
    if "ode-full" not in rec.centers:
        return []
    grid = build_grid(cfg.x_min, cfg.x_max, cfg.n_points)
    profile = make_inverse_square(cfg.C, cfg.D, grid)
    centers, amp = rec.centers["ode-full"], rec.aux_ode
    n = centers.shape[0]
    out = []
    for k in sorted({0, n // 2, n - 2}):
        if cfg.mode == "dark":
            got = dark.rhs_full(dark.DarkSolitonParams(A=float(amp[k]), x0=float(centers[k])),
                                profile, grid)
            want = _dark_rhs_quad(cfg.C, cfg.D, float(amp[k]), float(centers[k]))
        else:
            # the record keeps eta and zeta; xi comes from the lab velocity -2 xi
            if k == 0:
                xi = cfg.xi0
            else:
                h = rec.times[k + 1] - rec.times[k - 1]
                xi = -0.5 * float(centers[k + 1] - centers[k - 1]) / h
            params = bright.BrightSolitonParams(eta=float(amp[k]), xi=xi, zeta=float(centers[k]))
            got = bright.rhs_full(params, profile, grid)
            want = _bright_rhs_quad(cfg.C, cfg.D, params.eta, xi, params.zeta)
        err = max(abs(g - w) for g, w in zip(got, want))
        if not err <= QUAD_TOL:
            out.append(f"rhs_full at sample {k} off quad by {err:.3e} > {QUAD_TOL:g}")
    return out


def check_field(cfg, rec) -> list[str]:
    if "pde" not in rec.centers:
        return []
    out = []
    norm = rec.conserved
    drift = float(np.max(np.abs(norm - norm[0])) / abs(norm[0]))
    if not drift <= NORM_DRIFT_TOL:
        out.append(f"norm drift {drift:.3e} > {NORM_DRIFT_TOL:g}")
    x_pde = rec.centers["pde"]
    rest = cfg.A0 == 0.0 if cfg.mode == "dark" else cfg.xi0 == 0.0
    if rest:
        early = rec.times <= ACCEL_WINDOW + 1e-9
        accel = 2.0 * float(np.polyfit(rec.times[early], x_pde[early], 2)[0])
        if cfg.mode == "dark":
            target = (2.0 / 3.0) * cfg.C / (cfg.D + cfg.C * cfg.x0_0)
        else:
            target = -(8.0 / 3.0) * cfg.C * cfg.eta0 ** 2 / (cfg.D + cfg.C * cfg.zeta0)
        if not abs(accel - target) <= ACCEL_REL_TOL * abs(target):
            out.append(f"early acceleration {accel:.4e} not within 10% of {target:.4e}")
    if cfg.mode == "dark" and "ode-full" in rec.centers:
        gap = float(np.max(np.abs(rec.centers["ode-full"] - x_pde)))
        if not gap <= TIER_BOUND:
            out.append(f"ode-full center {gap:.3e} from the field center > {TIER_BOUND:g}")
    return out


def _expected_columns(rec) -> dict[str, np.ndarray]:
    cols = {"t": rec.times}
    for tier, series in rec.centers.items():
        cols[f"x0_{tier.replace('-', '_')}"] = series
    for tier, series in rec.deltas.items():
        cols[f"delta_{tier.replace('-', '_')}"] = series
    for name in ("aux_pde", "aux_ode", "conserved"):
        if getattr(rec, name) is not None:
            cols[name] = getattr(rec, name)
    return cols


def check_csv(cfg, rec, path: str) -> list[str]:
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return ["CSV header differs from the documented one"]
    header = CSV_HEADER.split(",")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != rec.times.shape[0] or any(len(r) != len(header) for r in rows):
        return ["CSV has the wrong shape"]
    present = {f"x0_{t.replace('-', '_')}" for t in cfg.tiers} | {"t"}
    if "pde" in cfg.tiers:
        present |= {"aux_pde", "conserved"}
        present |= {f"delta_{t.replace('-', '_')}" for t in ("ode-full", "eom", "eom-a")
                    if t in cfg.tiers}
    if {"ode-full", "ode-taylor"} & set(cfg.tiers):
        present.add("aux_ode")
    expected = _expected_columns(rec)
    if set(expected) != present:
        return [f"record columns {sorted(expected)} differ from the tiers' {sorted(present)}"]
    out = []
    for j, name in enumerate(header):
        cells = [r[j] for r in rows]
        if name not in present:
            if any(cells):
                out.append(f"column {name} of an absent tier is not empty")
            continue
        parsed = np.array([float(c) for c in cells])
        want = np.asarray(expected[name], dtype=np.float64)
        if not np.all(np.abs(parsed - want) <= CSV_DIGITS_REL * np.abs(want)):
            out.append(f"column {name} does not parse back to the record")
    return out


def check(cfg, rec, csv_path: str) -> list[str]:
    """Every failed check of one operation, as messages; empty when it passed."""
    return (check_models(cfg, rec) + check_quadrature(cfg, rec) + check_field(cfg, rec)
            + check_csv(cfg, rec, csv_path))
