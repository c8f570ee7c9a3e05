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

import numpy as np

from . import __version__
from .config import DEFAULTS, apply_override, load_config, make_disorder, make_spec
from .engine import _eta_intercept, _failed_rows, solve_root_R_batch
from .ensemble import (
    _root_edge_lengths,
    _seed_disk,
    estimate_gamma,
    fluctuation_report,
    stability_scan,
)
from .errors import NumericalDegeneracyError, ValidationError, WtreeError
from .graphmodel import DisorderModel
from .observables import spectral_density, wt_bound
from .regular import ac_bands, fixed_point_batch, gamma_clean

__all__ = ["main", "run", "emit_plotdata"]

_ENV_THREADS = "WTREE_THREADS"


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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
    polyline.  Output bytes depend only on the arguments.
    """
    width, height = 800, 500
    ml, mr, mt, mb = 70, 160, 40, 55
    xs_all = [x for _, xs, _ in series for x in xs if math.isfinite(x)]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        raise ValidationError("plot needs at least one finite point")
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


def _cmd_bands(cfg, out_dir, threads):
    bl = ac_bands(cfg["K"], cfg["L"], cfg["bands"]["n_max"])
    rows = [(n, a, b) for n, (a, b) in enumerate(bl.intervals)]
    path = os.path.join(out_dir, "bands.csv")
    _write_csv(path, ["n", "e_low", "e_high"], rows)
    return [path]


def _cmd_fixed_point(cfg, out_dir, threads):
    sec = cfg["fixed_point"]
    K, L = cfg["K"], cfg["L"]
    energies = np.linspace(sec["e_min"], sec["e_max"], sec["n_points"])
    fp = fixed_point_batch(energies, sec["eta"], K, L)
    rows = []
    for i, E in enumerate(energies):
        rows.append(
            (
                float(E),
                sec["eta"],
                fp.phi[i].real,
                fp.phi[i].imag,
                float(fp.residual[i]),
                gamma_clean(complex(fp.z_used[i]), K, L),
                bool(fp.shifted[i]),
            )
        )
    path = os.path.join(out_dir, "fixed_point.csv")
    _write_csv(
        path,
        ["E", "eta", "phi_re", "phi_im", "residual", "gamma0", "shifted"],
        rows,
    )
    return [path]


def _cmd_density(cfg, out_dir, threads):
    sec = cfg["density"]
    spec = make_spec(cfg)
    dm = make_disorder(cfg)
    energies = np.linspace(sec["e_min"], sec["e_max"], sec["n_points"])
    if sec["extrapolate"]:
        ladder = sec["eta_ladder"]
        sweeps = [
            spectral_density(
                spec, dm, energies, eta, sec["replica"], sec["seed_mode"], threads
            )
            for eta in ladder
        ]
        # One closed-form line fit per (point, column): shape (eta, point, column).
        values = np.array([[(p.rho, p.im_R, p.abs_r) for p in sweep] for sweep in sweeps])
        fits = _eta_intercept(ladder, values)
        rows = []
        for i, E in enumerate(energies):
            bad = next((sweep[i].status for sweep in sweeps if sweep[i].status != "ok"), None)
            if bad is None:
                rows.append((float(E), 0.0, *(float(v) for v in fits[i]), "ok"))
            else:
                rows.append((float(E), 0.0, math.nan, math.nan, math.nan, bad))
    else:
        pts = spectral_density(
            spec, dm, energies, sec["eta"], sec["replica"], sec["seed_mode"], threads
        )
        rows = [(p.E, p.eta, p.rho, p.im_R, p.abs_r, p.status) for p in pts]
    path = os.path.join(out_dir, "density.csv")
    _write_csv(path, ["E", "eta", "rho", "im_R", "abs_r", "status"], rows)
    svg = os.path.join(out_dir, "density.svg")
    emit_plotdata(
        svg,
        "Root spectral density",
        "E",
        "rho",
        [("rho", [r[0] for r in rows], [r[2] for r in rows])],
    )
    return [path, svg]


def _cmd_lyapunov(cfg, out_dir, threads):
    sec = cfg["lyapunov"]
    spec = make_spec(cfg)
    dm0 = make_disorder(cfg)
    rows = []
    for lam in sec["lambdas"]:
        dm = DisorderModel(lam=lam, dist=dm0.dist, master_seed=dm0.master_seed)
        for eta in sec["etas"]:
            z = complex(sec["E"], eta)
            est = estimate_gamma(
                spec, dm, z, sec["n"], source=sec["source"], burn_in=sec["burn_in"]
            )
            rows.append(
                (
                    lam,
                    eta,
                    sec["E"],
                    est.n,
                    est.source,
                    est.gamma_hat,
                    est.stderr,
                    gamma_clean(z, spec.K, spec.L),
                )
            )
    path = os.path.join(out_dir, "lyapunov.csv")
    _write_csv(
        path,
        ["lam", "eta", "E", "n", "source", "gamma_hat", "stderr", "gamma0"],
        rows,
    )
    svg = os.path.join(out_dir, "lyapunov.svg")
    series = []
    for lam in sec["lambdas"]:
        xs = [math.log10(r[1]) for r in rows if r[0] == lam]
        ys = [r[5] for r in rows if r[0] == lam]
        series.append((f"lam={lam:.6g}", xs, ys))
    emit_plotdata(svg, "Lyapunov exponent", "log10(eta)", "gamma", series)
    return [path, svg]


def _cmd_fluctuation(cfg, out_dir, threads):
    sec = cfg["fluctuation"]
    spec = make_spec(cfg)
    dm0 = make_disorder(cfg)
    rows = []
    for lam in sec["lambdas"]:
        dm = DisorderModel(lam=lam, dist=dm0.dist, master_seed=dm0.master_seed)
        rep = fluctuation_report(
            spec,
            dm,
            complex(sec["E"], sec["eta"]),
            sec["n"],
            a=sec["a"],
            source=sec["source"],
            burn_in=sec["burn_in"],
        )
        rows.append(
            (
                lam,
                sec["E"],
                sec["eta"],
                rep.a,
                rep.n,
                rep.gamma_hat,
                rep.gamma_stderr,
                rep.delta_im,
                rep.delta_mod,
                rep.bound1,
                rep.bound2,
                rep.bound1_ok,
                rep.bound2_ok,
            )
        )
    path = os.path.join(out_dir, "fluctuation.csv")
    _write_csv(
        path,
        [
            "lam",
            "E",
            "eta",
            "a",
            "n",
            "gamma_hat",
            "gamma_stderr",
            "delta_im",
            "delta_mod",
            "bound1",
            "bound2",
            "bound1_ok",
            "bound2_ok",
        ],
        rows,
    )
    return [path]


def _cmd_stability(cfg, out_dir, threads):
    sec = cfg["stability"]
    spec = make_spec(cfg)
    dm = make_disorder(cfg)
    cells = stability_scan(
        spec,
        dm,
        sec["lambdas"],
        sec["etas"],
        sec["e_min"],
        sec["e_max"],
        sec["eps"],
        sec["n"],
    )
    rows = [(c.lam, c.eta, c.eps, c.n, c.exceedance, c.stderr) for c in cells]
    path = os.path.join(out_dir, "stability.csv")
    _write_csv(path, ["lam", "eta", "eps", "n", "exceedance", "stderr"], rows)
    svg = os.path.join(out_dir, "stability.svg")
    series = []
    for eta in sec["etas"]:
        xs = [r[0] for r in rows if r[1] == eta]
        ys = [r[4] for r in rows if r[1] == eta]
        series.append((f"eta={eta:.6g}", xs, ys))
    emit_plotdata(svg, "Fixed-point exceedance", "lambda", "exceedance", series)
    return [path, svg]


def _cmd_recursion(cfg, out_dir, threads):
    sec = cfg["recursion"]
    spec = make_spec(cfg)
    dm = make_disorder(cfg)
    z = complex(sec["E"], sec["eta"])
    n = sec["n"]
    replicas = np.arange(n, dtype=np.uint64)
    seed = _seed_disk(spec, z, sec["seed_mode"], at_cut=True)
    lengths = _root_edge_lengths(spec, dm, replicas)
    try:
        R = solve_root_R_batch(spec, dm, z, seed, replicas)
        status = ["ok"] * n
    except WtreeError as exc:
        R, status = _failed_rows(exc, n)
    rows = []
    for i in range(n):
        if status[i] != "ok":
            rows.append(
                (i, sec["E"], sec["eta"], math.nan, math.nan, False, math.nan, False, status[i])
            )
            continue
        bound = wt_bound(z, float(lengths[i]))
        rows.append(
            (
                i,
                sec["E"],
                sec["eta"],
                float(R[i].real),
                float(R[i].imag),
                bool(R[i].imag > 0),
                bound,
                bool(abs(R[i]) <= bound),
                "ok",
            )
        )
    path = os.path.join(out_dir, "recursion.csv")
    _write_csv(
        path,
        ["replica", "E", "eta", "R_re", "R_im", "herglotz_ok", "wt_bound", "bound_ok", "status"],
        rows,
    )
    return [path]


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
        "--threads",
        type=int,
        metavar="N",
        default=None,
        help=f"worker threads (default: ${_ENV_THREADS} or 1)",
    )
    common.add_argument(
        "--seed", type=int, metavar="U64", default=None, help="disorder master seed"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_bands = sub.add_parser("bands", parents=[common], help="AC band table of the clean tree")
    p_bands.add_argument("--K", type=int, default=None, help="branching number")
    p_bands.add_argument("--L", type=float, default=None, help="edge length")
    p_bands.add_argument("--n-max", type=int, default=None, help="highest band index")

    p_fp = sub.add_parser(
        "fixed-point", parents=[common], help="clean fixed point on an energy grid"
    )
    p_fp.add_argument("--eta", type=float, default=None)
    p_fp.add_argument("--e-min", type=float, default=None)
    p_fp.add_argument("--e-max", type=float, default=None)
    p_fp.add_argument("--n-points", type=int, default=None)

    p_dens = sub.add_parser("density", parents=[common], help="root spectral density sweep")
    p_dens.add_argument("--eta", type=float, default=None)
    p_dens.add_argument("--e-min", type=float, default=None)
    p_dens.add_argument("--e-max", type=float, default=None)
    p_dens.add_argument("--n-points", type=int, default=None)
    p_dens.add_argument(
        "--extrapolate", action="store_true", default=None, help="extrapolate to eta = 0"
    )

    p_lyap = sub.add_parser("lyapunov", parents=[common], help="Lyapunov exponent estimates")
    p_lyap.add_argument("--E", type=float, default=None)
    p_lyap.add_argument("--n", type=int, default=None)
    p_lyap.add_argument("--source", choices=["pool", "direct"], default=None)

    p_fluc = sub.add_parser(
        "fluctuation", parents=[common], help="quantile widths vs Lyapunov bounds"
    )
    p_fluc.add_argument("--E", type=float, default=None)
    p_fluc.add_argument("--eta", type=float, default=None)
    p_fluc.add_argument("--a", type=float, default=None)
    p_fluc.add_argument("--n", type=int, default=None)

    p_stab = sub.add_parser(
        "stability", parents=[common], help="fixed-point exceedance scan"
    )
    p_stab.add_argument("--eps", type=float, default=None)
    p_stab.add_argument("--n", type=int, default=None)

    p_rec = sub.add_parser(
        "recursion", parents=[common], help="randomized solves with invariant columns"
    )
    p_rec.add_argument("--n", type=int, default=None)
    p_rec.add_argument("--E", type=float, default=None)
    p_rec.add_argument("--eta", type=float, default=None)
    return parser


_FLAG_PATHS = {
    "bands": {"K": "K", "L": "L", "n_max": "bands.n_max"},
    "fixed-point": {
        "eta": "fixed_point.eta",
        "e_min": "fixed_point.e_min",
        "e_max": "fixed_point.e_max",
        "n_points": "fixed_point.n_points",
    },
    "density": {
        "eta": "density.eta",
        "e_min": "density.e_min",
        "e_max": "density.e_max",
        "n_points": "density.n_points",
        "extrapolate": "density.extrapolate",
    },
    "lyapunov": {"E": "lyapunov.E", "n": "lyapunov.n", "source": "lyapunov.source"},
    "fluctuation": {
        "E": "fluctuation.E",
        "eta": "fluctuation.eta",
        "a": "fluctuation.a",
        "n": "fluctuation.n",
    },
    "stability": {"eps": "stability.eps", "n": "stability.n"},
    "recursion": {"n": "recursion.n", "E": "recursion.E", "eta": "recursion.eta"},
}


def _resolve_threads(flag_value) -> int:
    if flag_value is not None:
        threads = flag_value
    else:
        env = os.environ.get(_ENV_THREADS)
        if env is not None:
            try:
                threads = int(env)
            except ValueError:
                raise ValidationError(f"${_ENV_THREADS} must be an integer, got {env!r}")
        else:
            threads = 1
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    return threads


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
        for attr, path in _FLAG_PATHS.get(args.command, {}).items():
            val = getattr(args, attr, None)
            if val is not None:
                node = cfg
                keys = path.split(".")
                for k in keys[:-1]:
                    node = node[k]
                node[keys[-1]] = val
        threads = _resolve_threads(args.threads)
        outputs = run(args.command, cfg, args.out, threads)
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
