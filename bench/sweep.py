"""Repeat benchmark runs over seeds and summarize them.

From the root of a checkout::

    python3 bench/sweep.py spread --seeds 1-10 [--workloads fit tune] [--out FILE]
    python3 bench/sweep.py counts --seeds 1 2 [--workloads fit tune] [--out FILE]

``spread`` runs every workload once per seed with tracing off and prints,
for each end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to the metric's bound in ``BENCHMARK.json``.

``counts`` makes two traced runs on the first seed and one on the second.
It fails (exit code 1) unless every count of the two same-seed runs agrees
exactly and both seeds show the same dominant layer in every workload.

Both write every run's result, and the summary, to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fit", "tune", "simulate", "model")
COUNT_UNITS = ("count", "B", "points")
# The layer each workload is built to stress, and the share of job time it
# took on the commit that introduced the benchmark.
DOMINANT = {
    "fit": ("fitting.evaluate_fit_model.share", 0.85),
    "tune": ("fitting.fit_spectrum_peaks.share", 0.85),
    "simulate": ("montecarlo.mc_g2.share", 0.90),
    "model": ("emitters.g2_general.share_largest_n", 0.80),
}


def seed_list(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    argv = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", flush=True)
    return result


def spread(args, bench) -> bool:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, summary = {}, {}
    for workload in args.workloads:
        runs[workload] = [run(workload, s, 0, args.seconds) for s in args.seeds]
    steady = True
    for workload, results in runs.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / statistics.median(values)
            summary[f"{workload}.{name}"] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": share, "bound": bound,
            }
            flag = "ok" if share < bound / 3 else "WIDE" if share <= bound else "OVER BOUND"
            if name != "setup_s":
                steady &= share <= bound
            print(f"{workload:<9} {name:<12} median {statistics.median(values):11.5g}  "
                  f"spread {share:6.3f}  bound {bound:4.2f}  {flag}")
        failed = sum(r["failed"] for r in results)
        steady &= failed == 0
    _save(args.out, {"seeds": args.seeds, "runs": runs, "summary": summary})
    return steady


def counts(args, bench) -> bool:
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    first, second = args.seeds[0], args.seeds[1]
    runs, ok = {}, True
    for workload in args.workloads:
        a, b, c = (run(workload, s, 1, args.seconds) for s in (first, first, second))
        runs[workload] = {"first": [a, b], "second": c}
        for name, unit in units.items():
            if unit in COUNT_UNITS and a["metrics"][name]["value"] != b["metrics"][name]["value"]:
                print(f"{workload}: {name} differs between two runs of seed {first}: "
                      f"{a['metrics'][name]['value']} vs {b['metrics'][name]['value']}")
                ok = False
        dominant = [_dominant(r) for r in (a, c)]
        share_name, seed_share = DOMINANT[workload]
        shares = [r["metrics"][share_name]["value"] for r in (a, c)]
        print(f"{workload}: dominant layer {dominant[0]} (seed {first}), {dominant[1]} "
              f"(seed {second}); {share_name} = {shares[0]:.3f}, {shares[1]:.3f} "
              f"(at least {seed_share} when the benchmark was introduced)")
        ok &= dominant[0] == dominant[1] == share_name
        ok &= all(r["failed"] == 0 for r in (a, b, c))
    _save(args.out, {"seeds": [first, second], "runs": runs})
    return ok


def _dominant(result: dict) -> str:
    names = [share for share, _ in DOMINANT.values()]
    return max(names, key=lambda n: result["metrics"][n]["value"])


def _save(path, payload) -> None:
    if path:
        Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("spread", "counts"))
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds, or ranges like 1-10")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--out", help="JSON file for all results")
    args = parser.parse_args()
    args.seeds = seed_list(args.seeds)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.seconds = bench["run_seconds"]
    if args.mode == "counts" and len(args.seeds) < 2:
        parser.error("counts needs two seeds")
    ok = (spread if args.mode == "spread" else counts)(args, bench)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
