#!/usr/bin/env python3
"""Benchmark of wtree, end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload direct-fluct --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-check

One run measures one workload (see ``workloads.py``) for ``--seconds``
seconds after an untimed warm-up iteration, checks every output, prints
each metric by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``; with
``--trace 1`` untraced and traced iterations alternate and the metrics
are the per-layer ones.  A full report, including the SHA-256 of every
CSV written, goes to ``.bench_out/``.

``--self-check`` runs every workload at a tiny size, traced and
untraced, with all checks on, and exits non-zero if anything fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Pinned before numpy loads, so the density-sweep worker threads are the
# only parallelism in the benchmark's processes.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: fresh interpreters started per run to time set-up; the median is reported
SETUP_LAUNCHES = 5

# Runs in a fresh interpreter: "ready" is import plus config resolution.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import wtree.cli
from wtree.config import apply_override, load_config, make_disorder, make_spec
t1 = time.perf_counter()
cfg = load_config()
for assignment in sys.argv[1:]:
    apply_override(cfg, assignment)
make_spec(cfg)
make_disorder(cfg)
t2 = time.perf_counter()
print(t1 - t0, t2 - t1, flush=True)
"""


def launch_setup(overrides):
    """(setup_s, import_s, config_s) of one fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CHILD, *overrides],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up interpreter failed with exit code {proc.returncode}")
    import_s, config_s = (float(v) for v in line.split())
    return ready, import_s, config_s


def nearest_rank(values, q):
    """The q-quantile by nearest rank: at least (1 - q) of values are >= it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def tail_latency(values):
    """p99, or the highest percentile below it with ten samples beyond it, but at least p50."""
    q = 1.0 - 10.0 / len(values)
    if q <= 0.5:
        return statistics.median(values)
    return nearest_rank(values, min(q, 0.99))


def measure(runner, seconds, launches, tracer=None):
    """Closed loop of iterations for ``seconds``; with a tracer, odd ones are traced.

    The set-up launches are spread over the run, so that their median
    samples the same stretch of machine time as the iterations.
    Returns (untraced iterations, traced iterations, set-up samples).
    """
    plain, traced, setups = [], [], []
    min_iterations = 2 if tracer is not None else runner.min_iterations
    start = time.perf_counter()
    k = 0
    while True:
        if len(setups) < launches and time.perf_counter() - start >= len(setups) * seconds / launches:
            setups.append(launch_setup(runner.setup_overrides))
        if tracer is not None and k % 2 == 1:
            with tracer.installed():
                it = runner.run(k)
            traced.append(it)
        else:
            it = runner.run(k)
            plain.append(it)
        k += 1
        last = it.seconds or 0.0
        if k >= min_iterations and time.perf_counter() - start + last > seconds:
            break
    while len(setups) < launches:
        setups.append(launch_setup(runner.setup_overrides))
    return plain, traced, setups


def end_to_end(plain, setup_s, se_target):
    """Gated metrics, and the figures printed beside them ungated."""
    ok = [it for it in plain if it.seconds is not None]
    times = [it.seconds for it in ok]
    latencies = [ms for it in ok for ms in it.latencies]
    wall_s = statistics.median(times)
    # One figure per master seed (reruns of a seed are bit-identical).
    per_seed = {
        key: max((se / se_target) ** 2 for se in it.stderrs)
        for it in ok
        if it.stderrs
        for key in it.digests
    }
    se_factor = statistics.mean(per_seed.values()) if per_seed else 1.0
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "time_to_se_s": wall_s * se_factor,
        "call_p50_ms": statistics.median(latencies),
    }
    q = statistics.quantiles(times, n=4) if len(times) >= 2 else [wall_s] * 3
    # The tail is not gated: on a shared 2-vCPU VM the machine's speed
    # swings by up to 2x within seconds, which moved p99 by about 40 %
    # between runs.
    ungated = {
        "wall_s_q1": (q[0], "s", ""),
        "wall_s_q3": (q[2], "s", f"runs {len(times)}"),
        "call_p99_ms": (tail_latency(latencies), "ms", f"calls {len(latencies)}"),
    }
    return metrics, {"ungated": ungated, "iteration_s": times}


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_workload(name, seed, seconds, trace, tiny=False, launches=SETUP_LAUNCHES):
    """Measure one workload; returns the report dict."""
    from spans import TraceError, Tracer, layer_metrics, missing_layers
    from workloads import DEFAULT_SEED, SE_TARGET, WORKLOADS

    wl = WORKLOADS[name]
    out_root = os.path.join(OUT, f"{name}-{os.getpid()}")
    try:
        runner = wl.runner(seed, tiny, out_root)
        runner.run(0)  # untimed warm-up
        tracer = Tracer() if trace else None
        plain, traced, setups = measure(runner, seconds, launches, tracer)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    setup_s, import_s, config_s = (statistics.median(col) for col in zip(*setups))
    its = plain + traced
    attempted = sum(it.attempted for it in its)
    failed = sum(it.failed for it in its)
    report = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "seed_default": DEFAULT_SEED,
        "master_seeds": runner.master_seeds,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "digests": {k: v for it in its for k, v in it.digests.items()},
    }
    if not trace:
        metrics, detail = end_to_end(plain, setup_s, SE_TARGET)
        report.update(detail)
    else:
        lost = missing_layers(tracer.spans, wl.layers)
        if lost:
            raise TraceError(f"{name}: expected spans never fired: {', '.join(lost)}")
        metrics = layer_metrics(tracer.spans, len(traced))
        untraced_s = statistics.median(it.seconds for it in plain if it.seconds is not None)
        traced_s = statistics.median(it.seconds for it in traced if it.seconds is not None)
        metrics["cli.output_bytes"] = statistics.mean(it.output_bytes for it in traced)
        metrics["setup.import_s"] = import_s
        metrics["setup.config_s"] = config_s
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    report["metrics"] = metrics
    return report


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def print_report(report, declared):
    print(f"# wtree benchmark: workload={report['workload']} seed={report['seed']} "
          f"(master seeds {report['master_seeds']}, default seed {report['seed_default']}) "
          f"seconds={report['seconds']} trace={report['trace']}")
    env = report["env"]
    print(f"env nproc={env['nproc']} affinity={env['affinity']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas/omp threads pinned to 1")
    metrics = report["metrics"]
    for name, unit in declared:
        print(f"{name} {metrics[name]!r} {unit}")
    for name, (value, unit, note) in report.get("ungated", {}).items():
        print(f"{name} {value!r} {unit} (ungated{'; ' + note if note else ''})")
    print(f"failed_frac {report['failed_frac']!r} ratio "
          f"({report['failed']} of {report['attempted']} outputs)")
    for key, digest in sorted(report["digests"].items()):
        print(f"sha256 {key} {digest}")


def self_check():
    """Every workload at a tiny size, untraced and traced, with all checks."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            report = run_workload(name, 7, 0.0, trace, tiny=True, launches=1)
            names = {n for n, _ in declared_metrics(trace)}
            good = report["failed"] == 0 and set(report["metrics"]) == names
            ok &= good
            print(f"{name:14s} trace={trace} attempted={report['attempted']:5d} "
                  f"failed={report['failed']} metrics={len(report['metrics'])} "
                  f"{'ok' if good else 'FAIL'}")
    print("self-check " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    # numpy, and with it every module of wtree and of this benchmark, is
    # imported only after the thread variables are pinned.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "wtree", "__init__.py")):
        print(f"bench: no wtree sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import wtree

    if not os.path.abspath(wtree.__file__).startswith(SRC + os.sep):
        print(f"bench: imported wtree from {wtree.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.self_check:
        return self_check()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed

    report = run_workload(args.workload, seed, args.seconds, args.trace)
    declared = declared_metrics(args.trace)
    if set(report["metrics"]) != {n for n, _ in declared}:
        print("bench: computed metrics differ from BENCHMARK.json: "
              f"{sorted(set(report['metrics']) ^ {n for n, _ in declared})}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print_report(report, declared)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": report["metrics"][n], "unit": u} for n, u in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
