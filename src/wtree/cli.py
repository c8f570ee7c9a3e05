"""Command-line interface.

Every subcommand writes one CSV table and one JSON manifest into the
output directory; density, lyapunov, and stability additionally emit a
self-contained SVG plot.  CSV content is a pure function of the
resolved configuration (floats are written with 17 significant digits),
so reruns are byte-identical; the manifest records the resolved
configuration, seed, package versions, and wall time.

Exit codes: 0 success, 1 validation error, 2 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import time
from dataclasses import fields, replace

import numpy as np

from . import __version__
from . import observables
from .config import DEFAULTS, _set_leaf, apply_override, load_config, make_disorder, make_spec
from .engine import _check_threads, _eta_intercept, _eta_ladder, _failed_rows, solve_root_R_batch
from .ensemble import (
    FluctuationReport,
    ScanCell,
    _root_edge_lengths,
    _sampling_point,
    estimate_gamma,
    fluctuation_report,
    stability_scan,
)
from .errors import NumericalDegeneracyError, ValidationError, WtreeError
from .observables import spectral_density, wt_bound
from .regular import _gamma0, ac_bands, fixed_point_batch, gamma_clean

__all__ = ["main", "run", "emit_plotdata"]


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: str, table: dict) -> str:
    """Write ``table``, column name -> one value per row, as a CSV file; returns ``path``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table)
        writer.writerows([_fmt(v) for v in row] for row in zip(*table.values(), strict=True))
    return path


def _columns(records, names) -> dict:
    """One table column per attribute name, read from each record."""
    return {name: [getattr(r, name) for r in records] for name in names}


def _series(key: str, keys, xs, ys) -> list:
    """Plot series of (xs, ys), one per distinct value k of ``keys``, named ``key=k``."""
    return [
        (
            f"{key}={k:.6g}",
            [x for kx, x in zip(keys, xs) if kx == k],
            [y for ky, y in zip(keys, ys) if ky == k],
        )
        for k in dict.fromkeys(keys)
    ]


def _write_manifest(path: str, command: str, cfg: dict, outputs, wall_s: float, threads: int):
    import scipy

    manifest = {
        "command": command,
        "config": cfg,
        "seed": cfg["disorder"]["master_seed"],
        "threads": threads,
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "wtree": __version__,
        },
        "wall_time_s": wall_s,
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_plotdata(path: str, title: str, xlabel: str, ylabel: str, series):
    """Write a deterministic, self-contained SVG line plot.

    ``series`` is a list of (name, xs, ys); non-finite points break the
    polyline, and with no finite point at all the plot is the bare axes
    frame on the unit box.  Output bytes depend only on the arguments.
    """
    width, height = 800, 500
    ml, mr, mt, mb = 70, 160, 40, 55
    xs_all = [x for _, xs, _ in series for x in xs if math.isfinite(x)]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        xs_all = ys_all = [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.6g}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # Axes with 5 ticks per side.
    parts.append(
        f'<path d="M {ml} {mt} V {height - mb} H {width - mr}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for k in range(5):
        xv = x0 + (x1 - x0) * k / 4
        yv = y0 + (y1 - y0) * k / 4
        xpix, ypix = px(xv), py(yv)
        parts.append(
            f'<line x1="{xpix:.6g}" y1="{height - mb}" x2="{xpix:.6g}" '
            f'y2="{height - mb + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{xpix:.6g}" y="{height - mb + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.6g}</text>'
        )
        parts.append(
            f'<line x1="{ml - 5}" y1="{ypix:.6g}" x2="{ml}" y2="{ypix:.6g}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{ypix + 4:.6g}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.6g}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.6g}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{(mt + height - mb) / 2:.6g}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(mt + height - mb) / 2:.6g})">{ylabel}</text>'
    )
    for si, (name, xs, ys) in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        run = []
        segments = []
        for x, y in zip(xs, ys):
            if math.isfinite(x) and math.isfinite(y):
                run.append(f"{px(x):.6g},{py(y):.6g}")
            elif run:
                segments.append(run)
                run = []
        if run:
            segments.append(run)
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            else:
                parts.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
        ly = mt + 18 + 18 * si
        parts.append(
            f'<line x1="{width - mr + 10}" y1="{ly - 4}" x2="{width - mr + 34}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - mr + 40}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def _energies(cfg, section: str) -> np.ndarray:
    """The energy grid of a config section, checked to hold at least one point."""
    sec = cfg[section]
    if sec["n_points"] < 1:
        raise ValidationError(f"{section}.n_points must be >= 1, got {sec['n_points']}")
    return np.linspace(sec["e_min"], sec["e_max"], sec["n_points"])


def _cmd_bands(cfg, out_dir, threads):
    """AC band table of the clean tree"""
    e_low, e_high = zip(*ac_bands(cfg["K"], cfg["L"], cfg["bands"]["n_max"]).intervals)
    table = {"n": range(len(e_low)), "e_low": e_low, "e_high": e_high}
    return [_write_csv(os.path.join(out_dir, "bands.csv"), table)]


def _cmd_fixed_point(cfg, out_dir, threads):
    """clean fixed point on an energy grid"""
    eta = cfg["fixed_point"]["eta"]
    energies = _energies(cfg, "fixed_point")
    fp = fixed_point_batch(energies, eta, cfg["K"], cfg["L"])
    table = {
        "E": energies,
        "eta": [eta] * energies.size,
        "phi_re": fp.phi.real,
        "phi_im": fp.phi.imag,
        "residual": fp.residual,
        "gamma0": _gamma0(fp, cfg["K"], cfg["L"]),
        "shifted": fp.shifted,
    }
    return [_write_csv(os.path.join(out_dir, "fixed_point.csv"), table)]


def _cmd_density(cfg, out_dir, threads):
    """root spectral density sweep"""
    sec = cfg["density"]
    spec = make_spec(cfg)
    dm = make_disorder(cfg)
    energies = _energies(cfg, "density")
    # the plain sweep is the one-eta ladder, read off as is instead of fitted
    ladder = _eta_ladder(sec["eta_ladder"]) if sec["extrapolate"] else [sec["eta"]]
    sweeps = [
        spectral_density(spec, dm, energies, eta, sec["replica"], sec["seed_mode"], threads)
        for eta in ladder
    ]
    # shape (eta, point, column); a point failed at any eta keeps its first failure
    values = np.array([[(p.rho, p.im_R, p.abs_r) for p in sweep] for sweep in sweeps])
    status = [next((p.status for p in pts if p.status != "ok"), "ok") for pts in zip(*sweeps)]
    if sec["extrapolate"]:
        values, eta = _eta_intercept(ladder, values), 0.0
    else:
        values, eta = values[0], sec["eta"]
    values[np.array(status) != "ok"] = math.nan
    table = {
        "E": energies,
        "eta": [eta] * energies.size,
        "rho": values[:, 0],
        "im_R": values[:, 1],
        "abs_r": values[:, 2],
        "status": status,
    }
    path = _write_csv(os.path.join(out_dir, "density.csv"), table)
    svg = os.path.join(out_dir, "density.svg")
    emit_plotdata(
        svg, "Root spectral density", "E", "rho", [("rho", table["E"], table["rho"])]
    )
    return [path, svg]


def _cmd_lyapunov(cfg, out_dir, threads):
    """Lyapunov exponent estimates"""
    sec = cfg["lyapunov"]
    spec = make_spec(cfg)
    dm = make_disorder(cfg)
    # every model and point is checked before any is sampled
    dms = [replace(dm, lam=lam) for lam in sec["lambdas"]]
    points = [
        _sampling_point(complex(sec["E"], eta), sec["n"], "Lyapunov estimation requires eta > 0")
        for eta in sec["etas"]
    ]
    # one stacked pool per eta advances all lambdas; rows stay lam-major
    by_eta = [
        estimate_gamma(
            spec, dms, p, sec["n"], source=sec["source"], burn_in=sec["burn_in"], threads=threads
        )
        for p in points
    ]
    estimates = [est for by_lam in zip(*by_eta) for est in by_lam]
    table = {
        "lam": [lam for lam in sec["lambdas"] for _ in sec["etas"]],
        "eta": sec["etas"] * len(dms),
        "E": [sec["E"]] * len(estimates),
        **_columns(estimates, ("n", "source", "gamma_hat", "stderr")),
        "gamma0": [gamma_clean(p.z, spec.K, spec.L) for p in points] * len(dms),
    }
    path = _write_csv(os.path.join(out_dir, "lyapunov.csv"), table)
    svg = os.path.join(out_dir, "lyapunov.svg")
    log_eta = [math.log10(eta) for eta in table["eta"]]
    series = _series("lam", table["lam"], log_eta, table["gamma_hat"])
    emit_plotdata(svg, "Lyapunov exponent", "log10(eta)", "gamma", series)
    return [path, svg]


def _cmd_fluctuation(cfg, out_dir, threads):
    """quantile widths vs Lyapunov bounds"""
    sec = cfg["fluctuation"]
    spec = make_spec(cfg)
    dm = make_disorder(cfg)
    z = complex(sec["E"], sec["eta"])
    reports = [
        fluctuation_report(
            spec, replace(dm, lam=lam), z, sec["n"], a=sec["a"], source=sec["source"],
            burn_in=sec["burn_in"], threads=threads,
        )
        for lam in sec["lambdas"]
    ]
    # the report's fields after z and lam are the last columns
    table = {
        "lam": sec["lambdas"],
        "E": [sec["E"]] * len(reports),
        "eta": [sec["eta"]] * len(reports),
        **_columns(reports, [f.name for f in fields(FluctuationReport)[2:]]),
    }
    return [_write_csv(os.path.join(out_dir, "fluctuation.csv"), table)]


def _cmd_stability(cfg, out_dir, threads):
    """fixed-point exceedance scan"""
    sec = cfg["stability"]
    cells = stability_scan(
        make_spec(cfg), make_disorder(cfg), sec["lambdas"], sec["etas"], sec["e_min"],
        sec["e_max"], sec["eps"], sec["n"], threads=threads,
    )
    table = _columns(cells, [f.name for f in fields(ScanCell)])
    path = _write_csv(os.path.join(out_dir, "stability.csv"), table)
    svg = os.path.join(out_dir, "stability.svg")
    series = _series("eta", table["eta"], table["lam"], table["exceedance"])
    emit_plotdata(svg, "Fixed-point exceedance", "lambda", "exceedance", series)
    return [path, svg]


def _cmd_recursion(cfg, out_dir, threads):
    """randomized solves with invariant columns"""
    sec = cfg["recursion"]
    spec = make_spec(cfg)
    dm = make_disorder(cfg)
    n = sec["n"]
    if n < 1:
        raise ValidationError(f"recursion.n must be >= 1, got {n}")
    z = complex(sec["E"], sec["eta"])
    # checked here, since the solve's errors become row statuses
    if not (math.isfinite(z.real) and 0.0 < z.imag < math.inf):
        raise ValidationError(f"recursion needs a finite E and 0 < eta < inf, got z = {z}")
    replicas = np.arange(n, dtype=np.uint64)
    E = np.array([sec["E"]])
    seed = complex(observables._seed_array(spec, E, sec["eta"], sec["seed_mode"])[0])
    lengths = _root_edge_lengths(spec, dm, replicas)
    try:
        R = solve_root_R_batch(spec, dm, z, seed, replicas, threads=threads)
        status = ["ok"] * n
    except WtreeError as exc:
        R, status = _failed_rows(exc, n)
    # failed rows hold NaN, so their bound and both checks read NaN and 0
    bound = np.array([wt_bound(z, float(l_e)) for l_e in lengths])
    bound[np.isnan(R)] = math.nan
    table = {
        "replica": range(n),
        "E": [sec["E"]] * n,
        "eta": [sec["eta"]] * n,
        "R_re": R.real,
        "R_im": R.imag,
        "herglotz_ok": R.imag > 0,
        "wt_bound": bound,
        "bound_ok": np.abs(R) <= bound,
        "status": status,
    }
    return [_write_csv(os.path.join(out_dir, "recursion.csv"), table)]


_COMMANDS = {
    "bands": _cmd_bands,
    "fixed-point": _cmd_fixed_point,
    "density": _cmd_density,
    "lyapunov": _cmd_lyapunov,
    "fluctuation": _cmd_fluctuation,
    "stability": _cmd_stability,
    "recursion": _cmd_recursion,
}


def run(command: str, cfg: dict, out_dir: str = ".", threads: int = 1):
    """Execute one subcommand; returns the list of files written."""
    if command not in _COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    _check_threads(threads)
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    outputs = _COMMANDS[command](cfg, out_dir, threads)
    wall = time.perf_counter() - t0
    manifest = os.path.join(out_dir, f"{command.replace('-', '_')}_manifest.json")
    _write_manifest(manifest, command, cfg, outputs, wall, threads)
    return outputs + [manifest]


class _Parser(argparse.ArgumentParser):
    # Argument errors are validation errors: exit 1, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


#: The config leaves each subcommand also takes as a flag, ``--<leaf>``
#: with ``_`` as ``-``, typed like its default.
_FLAGS = {
    "bands": ("K", "L", "bands.n_max"),
    "fixed-point": (
        "fixed_point.eta", "fixed_point.e_min", "fixed_point.e_max", "fixed_point.n_points",
    ),
    "density": (
        "density.eta", "density.e_min", "density.e_max", "density.n_points", "density.extrapolate",
    ),
    "lyapunov": ("lyapunov.E", "lyapunov.n", "lyapunov.source"),
    "fluctuation": ("fluctuation.E", "fluctuation.eta", "fluctuation.a", "fluctuation.n"),
    "stability": ("stability.eps", "stability.n"),
    "recursion": ("recursion.n", "recursion.E", "recursion.eta"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="wtree", description="WT recursions on random metric trees")
    parser.add_argument("--version", action="version", version=f"wtree {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON configuration file")
    common.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override one configuration leaf (repeatable)",
    )
    common.add_argument("--out", metavar="DIR", default=".", help="output directory")
    common.add_argument(
        "--threads", type=int, metavar="N", default=1, help="worker threads of the tree solves"
    )
    common.add_argument(
        "--seed", type=int, metavar="U64", default=None, help="disorder master seed"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, fn in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=fn.__doc__)
        for path in _FLAGS[command]:
            default = DEFAULTS
            for key in path.split("."):
                default = default[key]
            if isinstance(default, bool):
                kind = {"action": "store_true"}
            else:
                kind = {"type": type(default), "metavar": type(default).__name__.upper()}
            flag = "--" + path.rpartition(".")[2].replace("_", "-")
            p.add_argument(flag, dest=path, default=None, help=f"sets {path}", **kind)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        for assignment in args.overrides:
            apply_override(cfg, assignment)
        if args.seed is not None:
            if args.seed < 0 or args.seed >= 2**64:
                raise ValidationError("--seed must fit in an unsigned 64-bit integer")
            cfg["disorder"]["master_seed"] = args.seed
        for path in _FLAGS[args.command]:
            val = getattr(args, path)
            if val is not None:
                _set_leaf(cfg, path, val)
        outputs = run(args.command, cfg, args.out, args.threads)
    except ValidationError as exc:
        print(f"wtree: error: {exc}", file=sys.stderr)
        return 1
    except NumericalDegeneracyError as exc:
        print(f"wtree: numerical degeneracy: {exc}", file=sys.stderr)
        return 2
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
