"""The benchmark's four workloads, their inputs and their output checks.

Each workload is a closed loop in one process: the next iteration
starts when the previous one has returned.  The three CLI workloads
call ``wtree.cli.run`` with a resolved configuration; ``probe-scalar``
calls the library's single-edge functions directly.  Every function is
looked up on its module at call time, so the tracer's wrappers see it.

Seeds: the CLI workloads cycle through ``SUBSEEDS`` disorder master
seeds ``seed * SUBSEEDS + k``, so a run averages the seed-dependent
statistical error over more than one disorder family; ``probe-scalar``
uses ``seed`` as its master seed and draws its replica indices and edge
addresses from ``random.Random(seed)``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random
import time
import traceback

import wtree.cli
import wtree.engine
import wtree.observables
from wtree.config import apply_override, load_config, make_disorder, make_spec
from wtree.graphmodel import EdgeAddress, edge_length
from wtree.regular import cut_seed_disk

#: seed used when ``--seed`` is not given (the CLI's default master seed)
DEFAULT_SEED = 1
#: disorder master seeds a CLI workload cycles through per run
SUBSEEDS = 4
#: target standard error of the Lyapunov estimate in ``time_to_se_s``
SE_TARGET = 1e-3


class Iteration:
    """One timed iteration and what its output checks found."""

    def __init__(self, seconds, attempted, failed, latencies=(), digests=None, stderrs=(),
                 output_bytes=0):
        self.seconds = seconds
        self.attempted = attempted
        self.failed = failed
        self.latencies = list(latencies)
        self.digests = digests or {}
        self.stderrs = list(stderrs)
        self.output_bytes = output_bytes


def resolve_config(overrides):
    """Defaults plus ``key=value`` overrides, as ``wtree --set`` resolves them."""
    cfg = load_config()
    for assignment in overrides:
        apply_override(cfg, assignment)
    return cfg


def _finite(*vals):
    return all(math.isfinite(v) for v in vals)


def _check_fluctuation(row):
    d_im, d_mod = float(row["delta_im"]), float(row["delta_mod"])
    return (
        row["bound1_ok"] == "1"
        and row["bound2_ok"] == "1"
        and 0.0 <= d_im < 1.0
        and 0.0 <= d_mod < 1.0
        and _finite(float(row["gamma_hat"]), float(row["gamma_stderr"]))
    )


def _check_lyapunov(row):
    gamma, se, gamma0 = float(row["gamma_hat"]), float(row["stderr"]), float(row["gamma0"])
    if not _finite(gamma, se, gamma0):
        return False
    # At lam = 0 the pool sits on the clean fixed point, so the estimate is gamma0.
    return float(row["lam"]) != 0.0 or abs(gamma - gamma0) <= 1e-9 * abs(gamma0)


def _check_density(row):
    return row["status"] == "ok" and _finite(
        float(row["rho"]), float(row["im_R"]), float(row["abs_r"])
    )


class CliWorkload:
    """A ``wtree`` subcommand run at a fixed configuration."""

    def __init__(self, name, why, command, csv_name, check_row, expected_rows,
                 overrides, tiny_overrides, threads, layers, se_column=None):
        self.name = name
        self.why = why
        self.command = command
        self.csv_name = csv_name
        self.check_row = check_row
        self.expected_rows = expected_rows
        self.overrides = overrides
        self.tiny_overrides = tiny_overrides
        self.threads = threads
        self.layers = layers
        #: CSV column of the Lyapunov stderr that ``time_to_se_s`` projects
        self.se_column = se_column

    def runner(self, seed, tiny, out_root):
        return CliRunner(self, seed, tiny, out_root)


class CliRunner:
    def __init__(self, wl, seed, tiny, out_root):
        self.wl = wl
        self.master_seeds = [(seed * SUBSEEDS + k) % 2**64 for k in range(SUBSEEDS)]
        base = wl.tiny_overrides if tiny else wl.overrides
        self.setup_overrides = base + [f"disorder.master_seed={self.master_seeds[0]}"]
        self.configs = [
            resolve_config(base + [f"disorder.master_seed={ms}"]) for ms in self.master_seeds
        ]
        self.out_dirs = [os.path.join(out_root, f"seed-{ms}") for ms in self.master_seeds]
        # time_to_se_s averages over every master seed, so it needs them all.
        self.min_iterations = SUBSEEDS if wl.se_column else 2
        self.digests = {}

    def run(self, k):
        i = k % SUBSEEDS
        cfg, out = self.configs[i], self.out_dirs[i]
        expected = self.wl.expected_rows(cfg)
        t0 = time.perf_counter()
        try:
            files = wtree.cli.run(self.wl.command, cfg, out, self.wl.threads)
        except Exception:  # a failed command counts against failed_frac
            traceback.print_exc()
            return Iteration(None, expected, expected)
        seconds = time.perf_counter() - t0

        path = os.path.join(out, self.wl.csv_name)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        failed = max(expected - len(rows), 0)
        stderrs = []
        for row in rows:
            try:
                ok = self.wl.check_row(row)
                if self.wl.se_column:
                    stderrs.append(float(row[self.wl.se_column]))
            except (KeyError, ValueError):
                ok = False
            failed += not ok
        key = f"{self.master_seeds[i]}/{self.wl.csv_name}"
        if self.digests.setdefault(key, digest) != digest:
            # CSVs are a pure function of the configuration; a rerun must match.
            failed = expected
        return Iteration(seconds, max(expected, len(rows)), failed,
                         latencies=[seconds * 1e3], digests={key: digest}, stderrs=stderrs,
                         output_bytes=sum(os.path.getsize(f) for f in files))


class ProbeWorkload:
    """Single-edge library calls: forward value, backward value, Green function."""

    name = "probe-scalar"
    why = ("scalar DFS and solve_R_minus, which no CLI path runs; "
           "a batch-kernel fold can slow these small calls")
    layers = ("engine.scalar", "engine.minus", "observables.profile",
              "engine.batch", "graphmodel.omega")
    overrides = ["K=2", "depth=8", "disorder.lambda=0.1"]
    tiny_overrides = ["K=2", "depth=5", "disorder.lambda=0.1"]
    z = complex(2.0, 0.01)
    generation = 4
    #: every PROFILE_EVERY-th call also reconstructs the whole tree
    PROFILE_EVERY = 8

    def runner(self, seed, tiny, out_root):
        return ProbeRunner(self, seed, tiny)


class ProbeRunner:
    def __init__(self, wl, seed, tiny):
        self.wl = wl
        self.master_seeds = [seed]
        self.setup_overrides = (wl.tiny_overrides if tiny else wl.overrides) + [
            f"disorder.master_seed={seed}"
        ]
        cfg = resolve_config(self.setup_overrides)
        self.spec, self.dm = make_spec(cfg), make_disorder(cfg)
        self.seed_m = cut_seed_disk(wl.z, self.spec.K, self.spec.L)
        rng = random.Random(seed)
        n_probes = 8 if tiny else 64
        self.probes = [
            (EdgeAddress(tuple(rng.randrange(self.spec.K) for _ in range(wl.generation))),
             rng.randrange(2**32))
            for _ in range(n_probes)
        ]
        self.bounds = [
            wtree.observables.wt_bound(wl.z, edge_length(self.spec, self.dm, addr, rep))
            for addr, rep in self.probes
        ]
        # p99 needs at least 1000 calls, so that 10 lie beyond it.
        self.min_iterations = 2 if tiny else math.ceil(1000 / n_probes)
        self.reference = None

    def run(self, k):
        spec, dm, z, seed_m = self.spec, self.dm, self.wl.z, self.seed_m
        latencies = []
        results = []
        failed = 0
        t_block = time.perf_counter()
        for j, (addr, rep) in enumerate(self.probes):
            t0 = time.perf_counter()
            try:
                R_plus = wtree.engine.solve_edge_R(spec, dm, z, addr, seed_m, rep)
                R_minus = wtree.engine.solve_R_minus(spec, dm, z, addr, 0.0, rep, seed_m)
                G = wtree.observables.green_diag(R_plus, R_minus)
                mismatch = 0.0
                if j % self.wl.PROFILE_EVERY == 0:
                    profile = wtree.observables.tree_profile(spec, dm, z, rep, seed_m)
                    mismatch = wtree.observables.vertex_current_mismatch(profile)
            except Exception:  # a failed call counts against failed_frac
                traceback.print_exc()
                failed += 1
                results.append(None)
                continue
            latencies.append(time.perf_counter() - t0)
            results.append((R_plus, R_minus, G, mismatch))
        seconds = time.perf_counter() - t_block

        for res, bound in zip(results, self.bounds):
            if res is None:
                continue
            R_plus, _, _, mismatch = res
            if not (R_plus.imag > 0.0 and abs(R_plus) <= bound and mismatch <= 1e-9):
                failed += 1
        text = "\n".join(
            "None" if r is None else " ".join(format(v, ".17g") for v in r) for r in results
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            failed = len(self.probes)
        return Iteration(seconds, len(self.probes), failed,
                         latencies=[t * 1e3 for t in latencies],
                         digests={"probe_results": digest})


WORKLOADS = {
    wl.name: wl
    for wl in (
        CliWorkload(
            "direct-fluct",
            "direct-source tree solves: batch kernel and omega hashing, no pool code",
            "fluctuation",
            "fluctuation.csv",
            _check_fluctuation,
            lambda cfg: len(cfg["fluctuation"]["lambdas"]),
            ["K=2", "depth=12", "fluctuation.source=direct", "fluctuation.lambdas=[0.05,0.1]",
             "fluctuation.n=500"],
            ["K=2", "depth=6", "fluctuation.source=direct", "fluctuation.lambdas=[0.05,0.1]",
             "fluctuation.n=16"],
            1,
            ("cli.run", "ensemble.estimator", "engine.batch", "graphmodel.omega",
             "graphmodel.hash", "regular.seed"),
            se_column="gamma_stderr",
        ),
        CliWorkload(
            "pool-lyap",
            "population pool at eta down to 1e-3: per-call pool_step overhead, no tree solve",
            "lyapunov",
            "lyapunov.csv",
            _check_lyapunov,
            lambda cfg: len(cfg["lyapunov"]["lambdas"]) * len(cfg["lyapunov"]["etas"]),
            ["K=2", "lyapunov.source=pool", "lyapunov.lambdas=[0,0.05,0.1]",
             "lyapunov.etas=[0.1,0.01,0.001]", "lyapunov.n=800"],
            ["K=2", "lyapunov.source=pool", "lyapunov.lambdas=[0,0.1]",
             "lyapunov.etas=[0.1]", "lyapunov.n=16", "lyapunov.burn_in=5"],
            1,
            ("cli.run", "ensemble.estimator", "ensemble.pool_init", "ensemble.pool_step",
             "graphmodel.hash", "regular.seed"),
        ),
        CliWorkload(
            "density-sweep",
            "threaded per-point-z sweep over a 4-eta ladder at K=3: shorter hash chains, "
            "fixed-point reseeding, CSV/SVG output",
            "density",
            "density.csv",
            _check_density,
            lambda cfg: cfg["density"]["n_points"],
            ["K=3", "depth=8", "disorder.lambda=0.1", "density.extrapolate=true",
             "density.n_points=400"],
            ["K=3", "depth=4", "disorder.lambda=0.1", "density.extrapolate=true",
             "density.n_points=24"],
            min(2, os.cpu_count() or 1),
            ("cli.run", "observables.density", "engine.batch", "graphmodel.omega",
             "regular.fixed_point", "regular.seed"),
        ),
        ProbeWorkload(),
    )
}
