"""dotkit benchmark: closed-loop runs of the four CLI subcommands.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {fit,tune,simulate,model} --seed N \
        --seconds S --trace {0,1}

One client runs the workload's fixed job set (made from ``--seed``) through
``dotkit.cli.main(argv)`` in this process, starting each job when the
previous one returns, and checks every job's outputs. It repeats whole
passes of the job set for about ``--seconds``. With ``--trace 0`` it prints
the end-to-end metrics. With ``--trace 1`` every other job of the set runs
twice, untraced then traced, so the run takes about as long as an untraced
one; it prints per-layer metrics from the traced runs (see ``spans.py``). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Spans, per-job times and
the environment record go to ``.bench_build/bench/`` in the checkout.

dotkit is imported from ``src/`` of the checkout that holds this file; the
run stops with exit code 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOADS = ("fit", "tune", "simulate", "model")
SETUP_REPEATS = 3  # set-up is measured this many times; setup_s is the median
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import dotkit.cli; print(time.perf_counter() - t)"
)


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP pools at the cores this process may use (before numpy loads)."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ.setdefault(var, cores)
    return {var: os.environ[var] for var in THREAD_VARS}


def child_import_seconds() -> float:
    """Time ``import dotkit.cli`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def run_job(cli, job) -> tuple[float, bool]:
    """Run one CLI job; returns (wall seconds, outputs correct)."""
    start = time.perf_counter()
    try:
        code = cli.main(job.argv)
    except (Exception, SystemExit):
        elapsed = time.perf_counter() - start
        print(f"job {job.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return elapsed, False
    elapsed = time.perf_counter() - start
    if code != 0:
        print(f"job {job.name} exited with {code}", file=sys.stderr)
        return elapsed, False
    try:
        problem = job.check(job.outdir)
    except Exception:
        problem = f"outputs unreadable:\n{traceback.format_exc()}"
    if problem:
        print(f"job {job.name} failed its check: {problem}", file=sys.stderr)
    return elapsed, not problem


def bytes_in(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def more_passes(start: float, pass_s: float, seconds: float) -> bool:
    """Run another whole pass if the run then ends closer to ``seconds``."""
    return time.perf_counter() - start + 0.5 * pass_s < seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    caps = cap_threads()
    if not (SRC / "dotkit" / "cli.py").is_file():
        print(f"error: no dotkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import dotkit.cli as cli

    import_times = [time.perf_counter() - start]
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported dotkit from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_times += [child_import_seconds() for _ in range(SETUP_REPEATS - 1)]

    import numpy
    import scipy
    import yaml

    import spans
    import workloads

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / tag
    build_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        jobs = workloads.BUILDERS[args.workload](args.seed, workdir)
        build_times.append(time.perf_counter() - start)
    setup_s = statistics.median(import_times) + statistics.median(build_times)

    untraced: list[float] = []
    traced: list[float] = []
    traced_sizes: dict[int, int] = {}
    tracer = spans.Tracer()
    bytes_out = 0
    attempted = failed = 0
    measured = jobs[::2] if args.trace else jobs
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for job in measured:
            elapsed, ok = run_job(cli, job)
            untraced.append(elapsed)
            attempted, failed = attempted + 1, failed + (not ok)
            if args.trace:
                traced_sizes[len(traced)] = job.n_emitters
                with tracer.installed(len(traced)):
                    elapsed, ok = run_job(cli, job)
                traced.append(elapsed)
                bytes_out += bytes_in(job.outdir)
                attempted, failed = attempted + 1, failed + (not ok)
        if not more_passes(start, time.perf_counter() - pass_start, args.seconds):
            break
    wall_s = time.perf_counter() - start
    passes = len(untraced) // len(measured)

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_caps": caps,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    if args.trace:
        metrics = spans.layer_metrics(tracer, traced_sizes, bytes_out)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        tracer.write(workdir / "spans.tsv")
    else:
        metrics = {
            "job_s": statistics.median(untraced),
            "jobs_per_s": len(untraced) / sum(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "env": env,
        "jobs": [job.name for job in measured],
        "passes": passes,
        "wall_s": wall_s,
        "untraced_job_s": untraced,
        "traced_job_s": traced,
        "import_s": import_times,
        "build_s": build_times,
        **result,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"env {json.dumps(env)}")
    print(
        f"{args.workload}: {len(measured)} jobs x {passes} passes in {wall_s:.1f} s, "
        f"{failed} of {attempted} job runs failed"
    )
    if not args.trace:
        print(f"job_s is the median of {len(untraced)} jobs")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
