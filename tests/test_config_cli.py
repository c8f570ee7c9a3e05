import argparse
import copy
import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import wtree.cli as cli
import wtree.engine
import wtree.ensemble as ensemble
from wtree import NumericalDegeneracyError, ValidationError, ac_bands
from wtree.config import (
    DEFAULTS,
    apply_override,
    load_config,
    make_disorder,
    make_spec,
)


def test_defaults_deep_copied():
    a = load_config()
    b = load_config()
    assert a == b
    a["density"]["eta"] = 99.0
    assert b["density"]["eta"] == DEFAULTS["density"]["eta"]
    assert DEFAULTS["density"]["eta"] != 99.0


def test_load_config_file_merge(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"K": 3, "density": {"eta": 0.5}}))
    cfg = load_config(str(p))
    assert cfg["K"] == 3
    assert cfg["density"]["eta"] == 0.5
    # untouched keys keep their defaults
    assert cfg["L"] == DEFAULTS["L"]
    assert cfg["density"]["n_points"] == DEFAULTS["density"]["n_points"]


def test_load_config_unknown_keys(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"Q": 1}))
    with pytest.raises(ValidationError, match="Q"):
        load_config(str(p))
    p2 = tmp_path / "bad2.json"
    p2.write_text(json.dumps({"density": {"bogus": 1}}))
    with pytest.raises(ValidationError, match="density.bogus"):
        load_config(str(p2))


def test_config_coercions(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"K": 3.0, "L": 2, "lyapunov": {"etas": [1, 2]}}))
    cfg = load_config(str(p))
    assert cfg["K"] == 3 and isinstance(cfg["K"], int)
    assert cfg["L"] == 2.0 and isinstance(cfg["L"], float)
    assert cfg["lyapunov"]["etas"] == [1.0, 2.0]


def test_config_rejections(tmp_path):
    for payload in (
        {"K": 2.5},
        {"K": "two"},
        {"depth": True},
        {"density": {"extrapolate": 1}},
    ):
        p = tmp_path / "r.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(ValidationError):
            load_config(str(p))


def test_apply_override_parsing():
    cfg = load_config()
    apply_override(cfg, "K=3")
    assert cfg["K"] == 3
    apply_override(cfg, "L=2.5")
    assert cfg["L"] == 2.5
    apply_override(cfg, "lyapunov.etas=[0.1, 0.01]")
    assert cfg["lyapunov"]["etas"] == [0.1, 0.01]
    apply_override(cfg, "disorder.dist=two_point")
    assert cfg["disorder"]["dist"] == "two_point"
    with pytest.raises(ValidationError):
        apply_override(cfg, "no_equals_sign")
    with pytest.raises(ValidationError):
        apply_override(cfg, "bogus.key=1")
    with pytest.raises(ValidationError):
        apply_override(cfg, "density=3")


def test_make_spec_and_disorder():
    cfg = load_config()
    apply_override(cfg, "K=3")
    apply_override(cfg, "depth=5")
    apply_override(cfg, "disorder.lambda=0.2")
    apply_override(cfg, "disorder.master_seed=42")
    spec = make_spec(cfg)
    dm = make_disorder(cfg)
    assert spec.K == 3 and spec.depth == 5
    assert dm.lam == 0.2 and dm.master_seed == 42


def test_resolve_threads(tmp_path, monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "run", lambda command, cfg, out, threads: seen.append(threads) or [])
    assert cli.main(["bands", "--out", str(tmp_path)]) == 0
    assert cli.main(["bands", "--out", str(tmp_path), "--threads", "3"]) == 0
    assert seen == [1, 3]
    monkeypatch.undo()
    assert cli.main(["bands", "--out", str(tmp_path), "--threads", "0"]) == 1
    assert "threads must be an integer >= 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_main_bands_success(tmp_path, capsys):
    rc = cli.main(["bands", "--out", str(tmp_path), "--n-max", "2"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert str(tmp_path / "bands.csv") in out
    assert str(tmp_path / "bands_manifest.json") in out
    rows = (tmp_path / "bands.csv").read_text().splitlines()
    assert rows[0] == "n,e_low,e_high"
    assert len(rows) == 4
    bands = ac_bands(2, 1.0, 2)
    for i, line in enumerate(rows[1:]):
        n, lo, hi = line.split(",")
        assert int(n) == i
        assert float(lo) == bands.intervals[i][0]
        assert float(hi) == bands.intervals[i][1]


def test_main_validation_exit_code(tmp_path, capsys):
    rc = cli.main(["bands", "--out", str(tmp_path), "--set", "L=-1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    rc2 = cli.main(["bands", "--out", str(tmp_path), "--set", "bogus=1"])
    assert rc2 == 1


@pytest.mark.parametrize("command", ["lyapunov", "fluctuation"])
def test_negative_burn_in_exit_code(tmp_path, capsys, command):
    rc = cli.main([command, "--out", str(tmp_path), "--set", f"{command}.source=pool",
                   "--set", f"{command}.burn_in=-1"])
    assert rc == 1
    assert "burn_in" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("source", ["pool", "direct"])
@pytest.mark.parametrize(
    "override", ["lyapunov.lambdas=[0.05,2]", "lyapunov.etas=[0.1,-1]", "lyapunov.etas=[0.1,0]"]
)
def test_lyapunov_points_validated_before_sampling(tmp_path, monkeypatch, capsys, override, source):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a pool or tree was sampled")

    monkeypatch.setattr(ensemble, "pool_init", no_sampling)
    monkeypatch.setattr(ensemble, "solve_root_R_batch", no_sampling)
    rc = cli.main(["lyapunov", "--out", str(tmp_path), "--set", f"lyapunov.source={source}",
                   "--set", override])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "lyapunov.csv").exists()


@pytest.mark.parametrize(
    "command,args",
    [
        ("lyapunov", ["--set", "lyapunov.n=4", "--set", "lyapunov.etas=[]"]),
        ("stability", ["--set", "stability.n=4", "--set", "stability.etas=[]"]),
        ("stability", ["--set", "stability.n=4", "--set", "stability.etas=[1e-3,NaN]"]),
        ("stability", ["--set", "stability.n=4", "--set", "stability.eps=NaN"]),
        ("stability", ["--set", "stability.n=4", "--set", "stability.e_min=NaN"]),
        ("fluctuation", ["--set", "fluctuation.n=4", "--set", "fluctuation.lambdas=[]"]),
        ("density", ["--extrapolate", "--set", "density.n_points=4", "--set", "density.eta_ladder=[]"]),
        ("density", ["--extrapolate", "--set", "density.n_points=4",
                     "--set", "density.eta_ladder=[0.1]"]),
        ("density", ["--extrapolate", "--set", "density.n_points=4",
                     "--set", "density.eta_ladder=[0.1,0.1]"]),
        ("recursion", ["--n", "0"]),
        ("recursion", ["--n", "-1"]),
        ("recursion", ["--eta", "0"]),
        ("recursion", ["--eta", "-1"]),
        ("fixed-point", ["--n-points", "0"]),
        ("fixed-point", ["--n-points", "-3"]),
        ("density", ["--n-points", "0"]),
        ("density", ["--n-points", "-3"]),
        ("density", ["--n-points", "4", "--set", "density.replica=-1"]),
        ("density", ["--n-points", "4", "--set", "density.replica=18446744073709551616"]),
        ("recursion", ["--set", "L=1e999"]),
        ("bands", ["--K", "0"]),
        ("bands", ["--K", "-1"]),
    ],
    ids=["lyapunov-etas", "stability-etas", "stability-etas-nan", "stability-eps-nan",
         "stability-e-min-nan", "fluctuation-lambdas", "density-ladder-empty",
         "density-ladder-one", "density-ladder-repeated", "recursion-n-zero",
         "recursion-n-negative", "recursion-eta-zero", "recursion-eta-negative",
         "fixed-point-n-points-zero", "fixed-point-n-points-negative",
         "density-n-points-zero", "density-n-points-negative", "density-replica-negative",
         "density-replica-2**64", "recursion-L-inf", "bands-K-zero", "bands-K-negative"],
)
def test_empty_or_degenerate_grid_rejected(tmp_path, capsys, command, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([command, "--out", str(tmp_path), "--set", "depth=3"] + args)
    assert rc == 1
    assert "wtree: error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# the flags of each subcommand and the config key each one sets, in
# declaration order, as the hand-written parser declared them
_COMMON_FLAGS = ["-h", "--help", "--config", "--set", "--out", "--threads", "--seed"]
_SUBCOMMAND_FLAGS = {
    "bands": [("--K", "K"), ("--L", "L"), ("--n-max", "bands.n_max")],
    "fixed-point": [("--eta", "fixed_point.eta"), ("--e-min", "fixed_point.e_min"),
                    ("--e-max", "fixed_point.e_max"), ("--n-points", "fixed_point.n_points")],
    "density": [("--eta", "density.eta"), ("--e-min", "density.e_min"),
                ("--e-max", "density.e_max"), ("--n-points", "density.n_points"),
                ("--extrapolate", "density.extrapolate")],
    "lyapunov": [("--E", "lyapunov.E"), ("--n", "lyapunov.n"), ("--source", "lyapunov.source")],
    "fluctuation": [("--E", "fluctuation.E"), ("--eta", "fluctuation.eta"),
                    ("--a", "fluctuation.a"), ("--n", "fluctuation.n")],
    "stability": [("--eps", "stability.eps"), ("--n", "stability.n")],
    "recursion": [("--n", "recursion.n"), ("--E", "recursion.E"), ("--eta", "recursion.eta")],
}


def test_subcommand_flag_strings():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(_SUBCOMMAND_FLAGS)
    for command, p in sub.choices.items():
        flags = [s for a in p._actions for s in a.option_strings]
        assert flags == _COMMON_FLAGS + [flag for flag, _ in _SUBCOMMAND_FLAGS[command]]


@pytest.mark.parametrize("command", list(_SUBCOMMAND_FLAGS))
def test_flag_equals_set_override(tmp_path, monkeypatch, command):
    # each flag is shorthand for one --set key, typed like its default
    seen = []
    monkeypatch.setattr(cli, "run", lambda cmd, cfg, out, threads: seen.append(cfg) or [])
    values = {int: "7", float: "0.5", str: "direct"}
    for flag, key in _SUBCOMMAND_FLAGS[command]:
        section, _, leaf = key.rpartition(".")
        default = (DEFAULTS[section] if section else DEFAULTS)[leaf]
        if isinstance(default, bool):
            by_flag, by_set = [flag], ["--set", f"{key}=true"]
        else:
            value = values[type(default)]
            by_flag, by_set = [flag, value], ["--set", f"{key}={value}"]
        assert cli.main([command, "--out", str(tmp_path)] + by_flag) == 0
        assert cli.main([command, "--out", str(tmp_path)] + by_set) == 0
        assert seen[-2] == seen[-1] != load_config()


@pytest.mark.parametrize("via", ["set", "config"])
@pytest.mark.parametrize("command", list(_SUBCOMMAND_FLAGS))
def test_vertex_bc_key_rejected(tmp_path, capsys, command, via):
    # the tree kernel merges Kirchhoff vertices only, so there is no vertex
    # condition to configure: the key is unknown before any work is done
    if via == "set":
        args = ["--set", "vertex_bc.beta_v=0.3"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vertex_bc": {"type": "symmetric", "beta_v": 0.3}}))
        args = ["--config", str(cfg)]
    out = tmp_path / "out"
    assert cli.main([command, "--out", str(out)] + args) == 1
    assert "unknown configuration key" in capsys.readouterr().err
    assert not out.exists()


def test_lyapunov_bogus_source_rejected(tmp_path, monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a pool or tree was sampled")

    monkeypatch.setattr(ensemble, "pool_init", no_sampling)
    monkeypatch.setattr(ensemble, "solve_root_R_batch", no_sampling)
    assert cli.main(["lyapunov", "--out", str(tmp_path), "--source", "bogus"]) == 1
    assert "unknown source 'bogus'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_import_leaves_scipy_special_and_mpmath_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = "import sys, wtree.cli; print([m for m in ('scipy.special', 'mpmath') if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_main_degeneracy_exit_code(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NumericalDegeneracyError("synthetic failure")

    monkeypatch.setattr(cli, "estimate_gamma", boom)
    rc = cli.main(
        [
            "lyapunov",
            "--out",
            str(tmp_path),
            "--set",
            "lyapunov.etas=[0.01]",
            "--set",
            "lyapunov.lambdas=[0.1]",
        ]
    )
    assert rc == 2
    assert "degeneracy" in capsys.readouterr().err


def test_bands_rerun_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["bands", "--out", str(d1)]) == 0
    assert cli.main(["bands", "--out", str(d2)]) == 0
    assert (d1 / "bands.csv").read_bytes() == (d2 / "bands.csv").read_bytes()


def test_fixed_point_rerun_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    args = ["fixed-point", "--n-points", "20", "--eta", "0.01"]
    assert cli.main(args + ["--out", str(d1)]) == 0
    assert cli.main(args + ["--out", str(d2)]) == 0
    assert (d1 / "fixed_point.csv").read_bytes() == (d2 / "fixed_point.csv").read_bytes()
    header = (d1 / "fixed_point.csv").read_text().splitlines()[0]
    assert header == "E,eta,phi_re,phi_im,residual,gamma0,shifted"


def test_density_thread_independence(tmp_path):
    d1, d2 = tmp_path / "t1", tmp_path / "t2"
    args = [
        "density",
        "--n-points",
        "16",
        "--set",
        "depth=4",
        "--set",
        "disorder.lambda=0.1",
    ]
    assert cli.main(args + ["--out", str(d1), "--threads", "1"]) == 0
    assert cli.main(args + ["--out", str(d2), "--threads", "2"]) == 0
    assert (d1 / "density.csv").read_bytes() == (d2 / "density.csv").read_bytes()
    svg = (d1 / "density.svg").read_bytes()
    assert svg == (d2 / "density.svg").read_bytes()
    assert svg.startswith(b"<svg")


def test_manifest_contents(tmp_path):
    rc = cli.main(["bands", "--out", str(tmp_path), "--seed", "7"])
    assert rc == 0
    manifest = json.loads((tmp_path / "bands_manifest.json").read_text())
    assert manifest["command"] == "bands"
    assert manifest["seed"] == 7
    assert manifest["config"]["disorder"]["master_seed"] == 7
    assert manifest["outputs"] == ["bands.csv"]
    assert set(manifest["versions"]) == {"python", "numpy", "scipy", "wtree"}
    assert isinstance(manifest["wall_time_s"], float)
    assert manifest["threads"] == 1


def test_lyapunov_command(tmp_path):
    rc = cli.main(
        [
            "lyapunov",
            "--out",
            str(tmp_path),
            "--n",
            "400",
            "--set",
            "lyapunov.etas=[0.01]",
            "--set",
            "lyapunov.lambdas=[0.0, 0.1]",
            "--set",
            "depth=6",
        ]
    )
    assert rc == 0
    rows = (tmp_path / "lyapunov.csv").read_text().splitlines()
    assert rows[0] == "lam,eta,E,n,source,gamma_hat,stderr,gamma0"
    assert len(rows) == 3
    lam0 = rows[1].split(",")
    assert float(lam0[0]) == 0.0
    # the clean row reproduces gamma0 exactly
    assert abs(float(lam0[5]) - float(lam0[7])) < 1e-12
    assert (tmp_path / "lyapunov.svg").exists()


def test_fluctuation_command(tmp_path):
    rc = cli.main(
        [
            "fluctuation",
            "--out",
            str(tmp_path),
            "--n",
            "500",
            "--set",
            "fluctuation.lambdas=[0.05]",
            "--set",
            "depth=6",
        ]
    )
    assert rc == 0
    rows = (tmp_path / "fluctuation.csv").read_text().splitlines()
    assert (
        rows[0]
        == "lam,E,eta,a,n,gamma_hat,gamma_stderr,delta_im,delta_mod,bound1,bound2,bound1_ok,bound2_ok"
    )
    assert len(rows) == 2
    vals = rows[1].split(",")
    assert vals[11] == "1" and vals[12] == "1"


def test_fluctuation_pool_bounds_nonnegative(tmp_path):
    # every sample of gamma_hat is >= 0, so a short, barely burnt-in pool
    # reports unresolved bounds, never negative (violated-looking) ones
    args = ["fluctuation", "--set", "fluctuation.source=pool", "--n", "64",
            "--set", "fluctuation.burn_in=5", "--out", str(tmp_path)]
    assert cli.main(args) == 0
    with open(tmp_path / "fluctuation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        for col in ("gamma_hat", "bound1", "bound2"):
            assert float(row[col]) >= 0.0, (row["lam"], col, row[col])


def test_stability_command_single_cell(tmp_path):
    rc = cli.main(
        [
            "stability",
            "--out",
            str(tmp_path),
            "--n",
            "100",
            "--set",
            "stability.lambdas=[0.1]",
            "--set",
            "depth=4",
        ]
    )
    assert rc == 0
    rows = (tmp_path / "stability.csv").read_text().splitlines()
    assert rows[0] == "lam,eta,eps,n,exceedance,stderr"
    assert len(rows) == 2
    svg = (tmp_path / "stability.svg").read_text()
    # a single cell leaves one point: drawn as a marker, not a line
    assert "<circle" in svg


def test_recursion_command(tmp_path):
    rc = cli.main(
        [
            "recursion",
            "--out",
            str(tmp_path),
            "--n",
            "50",
            "--set",
            "depth=6",
            "--set",
            "disorder.lambda=0.15",
        ]
    )
    assert rc == 0
    rows = (tmp_path / "recursion.csv").read_text().splitlines()
    assert rows[0] == "replica,E,eta,R_re,R_im,herglotz_ok,wt_bound,bound_ok,status"
    assert len(rows) == 51
    for line in rows[1:]:
        cells = line.split(",")
        assert cells[5] == "1"
        assert cells[7] == "1"
        assert cells[8] == "ok"


@pytest.mark.filterwarnings("error")
def test_recursion_budget_failure_one_solve(tmp_path, monkeypatch):
    # a call-level error gives every row its status from one solve
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    solve = cli.solve_root_R_batch
    monkeypatch.setattr(cli, "solve_root_R_batch", counting)
    rc = cli.main(["recursion", "--out", str(tmp_path), "--n", "4", "--set", "depth=30"])
    assert rc == 0
    assert len(calls) == 1
    with open(tmp_path / "recursion.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5
    status = "BudgetExceededError: tree solve would visit 2147483647 edges, budget is 16777216"
    for cells in rows[1:]:
        assert cells[3:] == ["nan", "nan", "0", "nan", "0", status]


def test_density_extrapolate_mode(tmp_path):
    rc = cli.main(
        [
            "density",
            "--out",
            str(tmp_path),
            "--n-points",
            "8",
            "--extrapolate",
            "--set",
            "depth=3",
            "--set",
            "density.eta_ladder=[0.1, 0.05]",
            "--set",
            "density.e_min=1.0",
            "--set",
            "density.e_max=3.0",
        ]
    )
    assert rc == 0
    rows = (tmp_path / "density.csv").read_text().splitlines()
    assert len(rows) == 9
    assert all(r.endswith("ok") for r in rows[1:])


def test_density_extrapolate_one_eta_failure(tmp_path, monkeypatch):
    # a point that fails at one ladder eta only is a failed row of the fit
    status = "NumericalDegeneracyError: marked"
    sweep = cli.spectral_density

    def marking(spec, dm, energies, eta, *args):
        pts = sweep(spec, dm, energies, eta, *args)
        if eta == 0.05:
            pts[2] = dataclasses.replace(pts[2], status=status)
        return pts

    monkeypatch.setattr(cli, "spectral_density", marking)
    rc = cli.main(
        ["density", "--out", str(tmp_path), "--n-points", "4", "--extrapolate",
         "--set", "depth=3", "--set", "density.eta_ladder=[0.1, 0.05]",
         "--set", "density.e_min=1.0", "--set", "density.e_max=3.0"]
    )
    assert rc == 0
    with open(tmp_path / "density.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    E = format(np.linspace(1.0, 3.0, 4)[2], ".17g")
    assert rows[3] == [E, "0", "nan", "nan", "nan", status]
    assert [r[5] for r in rows[1:]] == ["ok", "ok", status, "ok"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("extra", [[], ["--extrapolate"]], ids=["sweep", "extrapolate"])
def test_density_all_points_failing(tmp_path, extra):
    # a sweep whose every point fails still writes its CSV, a bare plot and the manifest
    rc = cli.main(["density", "--out", str(tmp_path), "--n-points", "5", "--set", "depth=30"] + extra)
    assert rc == 0
    assert sorted(os.listdir(tmp_path)) == ["density.csv", "density.svg", "density_manifest.json"]
    with open(tmp_path / "density.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 6
    status = "BudgetExceededError: tree solve would visit 2147483647 edges, budget is 16777216"
    for cells in rows[1:]:
        assert cells[2:] == ["nan", "nan", "nan", status]
    svg = (tmp_path / "density.svg").read_text()
    assert "<polyline" not in svg and "<circle" not in svg


# SHA-256 of the CSV each command writes at a tiny configuration, pinned
# so that any drift in the numbers (or their formatting) shows up here.
_PINNED_CSVS = [
    ("density", ["--extrapolate", "--threads", "2", "--set", "depth=4",
                 "--set", "disorder.lambda=0.2", "--set", "density.n_points=24"],
     "1cd5d5e5bf5fed2886eb74bf09c5ac3edd21b0cbc8cad4cfe20c8cf86c0187d3"),
    ("lyapunov", ["--set", "depth=4", "--n", "96", "--set", "lyapunov.burn_in=10",
                  "--set", "lyapunov.etas=[0.1]", "--set", "lyapunov.lambdas=[0,0.2]"],
     "4374bbb67137d29c529b91d9c2bebbe182d8df57b520c18a5da3109a55929b09"),
    # 1024 members, 16 generations per block of pool draws, 291 generations
    ("lyapunov", ["--set", "depth=4", "--n", "8192", "--set", "lyapunov.burn_in=10",
                  "--set", "lyapunov.etas=[0.1]", "--set", "lyapunov.lambdas=[0,0.2]"],
     "1535852df045d1c983e7e02b6891d2a22ffbac54fe4b758698f846fdb5b49a37"),
    ("lyapunov", ["--source", "direct", "--set", "depth=4", "--n", "64",
                  "--set", "lyapunov.etas=[0.1]", "--set", "lyapunov.lambdas=[0.2]"],
     "3e5e3726d79e72a618e6a798b72905f20de66daadc581285c3738b7bc2b33f82"),
    ("fluctuation", ["--set", "depth=5", "--n", "64", "--set", "fluctuation.lambdas=[0.2]"],
     "93d8346f03417eb7bdd5aae4850546615133939d8c329bb37909ca02f4ec9b60"),
    ("fluctuation", ["--set", "fluctuation.source=pool", "--set", "fluctuation.burn_in=20",
                     "--n", "64", "--set", "fluctuation.lambdas=[0.2]"],
     "2baef2c27a66885adcc66af08ac7fafc75e00b592513fb952aa18f636bd3ef5c"),
    ("stability", ["--set", "depth=4", "--n", "32", "--set", "stability.lambdas=[0.2,0.05]"],
     "069458686ab696e96bbb4909b2b6978e90f8167311165657c01f9a7fb921e92b"),
    ("recursion", ["--set", "depth=5", "--n", "32", "--set", "disorder.lambda=0.3"],
     "d3332a7d004154940742c5b99b7dc23e12e0ee1dbd8b1feca0f76cf20ab6a3f3"),
    ("recursion", ["--set", "depth=5", "--n", "32", "--set", "disorder.lambda=0.3",
                   "--set", "recursion.seed_mode=fixed_point"],
     "4a17c770c158e5d0297248f0fd805247ed9a1a8d16f64152b2240944eb7daa8d"),
    ("bands", [], "29ac3b80d1fc25fd94205ae6fb6df641671e00f95ca1d3f9ee2b044f9f4be8ef"),
    # the grid starts on the lower edge of the first band, so one shifted cell reads 1
    ("fixed-point", ["--e-min", repr(ac_bands(2, 1.0, 3).intervals[0][0]), "--e-max", "3.0",
                     "--n-points", "8"],
     "1967cd52bd81e7609dd082dea4652974a0745c5113ca0c1e45bc96691571a5a7"),
]


@pytest.mark.parametrize(
    "command,args,digest",
    _PINNED_CSVS,
    ids=["density", "lyapunov-pool", "lyapunov-pool-blocks", "lyapunov-direct",
         "fluctuation-direct", "fluctuation-pool", "stability", "recursion",
         "recursion-fixed-point", "bands", "fixed-point-band-edge"],
)
def test_csv_digest_pinned(tmp_path, command, args, digest):
    assert cli.main([command, "--out", str(tmp_path)] + args) == 0
    data = (tmp_path / f"{command.replace('-', '_')}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# SHA-256 of the SVG plot written by three of the pinned CSV runs
_PINNED_SVGS = [
    (*_PINNED_CSVS[0][:2], "d4532c285937b423061c245af1bd72bde522c1dc304aa6cd655eac6f316ae5fb"),
    (*_PINNED_CSVS[1][:2], "c7e9599e7ff2f0b260a830d798ebe0b85438b46f73d3f1dfe5a01270f245fc07"),
    (*_PINNED_CSVS[6][:2], "6da18224af0a60472fa1725309570ee32c993f5a0033e1ab65592bbf1e2a06bf"),
]


@pytest.mark.parametrize(
    "command,args,digest", _PINNED_SVGS, ids=["density", "lyapunov", "stability"]
)
def test_svg_digest_pinned(tmp_path, command, args, digest):
    assert cli.main([command, "--out", str(tmp_path)] + args) == 0
    data = (tmp_path / f"{command}.svg").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# the pinned commands that solve trees: density, the direct sources,
# stability and recursion
_THREADED_CSVS = [_PINNED_CSVS[i] for i in (0, 3, 4, 6, 7)]


@pytest.mark.parametrize("threads", ["2", "3"])
@pytest.mark.parametrize(
    "command,args,digest",
    _THREADED_CSVS,
    ids=["density", "lyapunov-direct", "fluctuation-direct", "stability", "recursion"],
)
def test_tree_commands_thread_independence(tmp_path, monkeypatch, command, args, digest, threads):
    # --threads reaches every tree solve and leaves the CSV bits unchanged
    seen = []
    solve = wtree.engine._solve

    def recording(*a, **kw):
        seen.append(a[-1])
        return solve(*a, **kw)

    monkeypatch.setattr(wtree.engine, "_solve", recording)
    # the last --threads wins over the pinned density run's own
    assert cli.main([command, "--out", str(tmp_path)] + args + ["--threads", threads]) == 0
    data = (tmp_path / f"{command}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    assert seen and set(seen) == {int(threads)}


@pytest.mark.parametrize("eta", ["nan", "inf"])
def test_fixed_point_non_finite_eta_exit_code(tmp_path, capsys, eta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["fixed-point", "--eta", eta, "--n-points", "5", "--out", str(tmp_path)])
    assert rc == 1
    assert "eta must be finite" in capsys.readouterr().err
    assert not (tmp_path / "fixed_point.csv").exists()


def test_run_does_not_mutate_cfg(tmp_path):
    cfg = load_config()
    snapshot = copy.deepcopy(cfg)
    cli.run("bands", cfg, out_dir=str(tmp_path))
    assert cfg == snapshot


def test_run_unknown_command(tmp_path):
    with pytest.raises(ValidationError):
        cli.run("bogus", load_config(), out_dir=str(tmp_path))


def test_emit_plotdata_validation(tmp_path):
    # with no finite point the plot is the bare axes frame on the unit box
    nan = float("nan")
    cli.emit_plotdata(str(tmp_path / "x.svg"), "t", "x", "y", [("a", [], [])])
    cli.emit_plotdata(str(tmp_path / "y.svg"), "t", "x", "y", [("a", [nan], [nan])])
    svg = (tmp_path / "x.svg").read_text()
    assert svg == (tmp_path / "y.svg").read_text()
    assert '<path d="M 70 40 V 445 H 640"' in svg
    assert "<polyline" not in svg and "<circle" not in svg
    for tick in ("0", "0.25", "0.5", "0.75", "1"):
        assert svg.count(f'font-size="11">{tick}</text>') == 2


def test_emit_plotdata_break_on_nonfinite(tmp_path):
    path = str(tmp_path / "z.svg")
    nan = float("nan")
    cli.emit_plotdata(
        path, "t", "x", "y", [("a", [0.0, 1.0, 2.0, 3.0], [1.0, nan, 2.0, 3.0])]
    )
    svg = open(path).read()
    # the polyline restarts after the gap
    assert svg.count("<polyline") >= 2 or "<circle" in svg
