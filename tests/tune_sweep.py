"""Seed sweep of the resonance controller in acceptance criterion 7's layout.

Not a pytest module (pytest collects only ``test_*.py``). From the root of
a checkout::

    python3 tests/tune_sweep.py                 # seeds 7000-7199
    python3 tests/tune_sweep.py --seeds 7000-7039

Each seed draws three lines uniformly over 5 meV above 1.3 eV at 6.0, 7.3
and 8.6 um and runs ``align_resonance`` (tolerance 2 ueV, budget 500) with
the default meter, as criterion 7 does. dotkit is imported from the
checkout's ``src/``. The script prints the outcome counts, the wall time,
the meter readings and exposures per campaign, the true final spread, and
the largest spread among the energies of a campaign's last journal record.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import dotkit as dk  # noqa: E402

E0 = 1_300_000.0  # ueV
POSITIONS = (6.0, 7.3, 8.6)  # um
SPAN = 5000.0  # ueV
TOLERANCE = 2.0  # ueV
BUDGET = 500


def campaign(seed: int, cfg: dk.PlantConfig) -> dict:
    """One criterion-7 campaign; returns its outcome and counts."""
    gen = dk.RngSeed(seed).generator()
    energies = np.sort(E0 + gen.uniform(0.0, SPAN, len(POSITIONS)))
    emitters = tuple(
        dk.Emitter(energy=e, gamma=0.7, gamma_pd=2.5, sigma=1.0, position=p)
        for e, p in zip(energies, POSITIONS)
    )
    state = dk.PlantState(dk.EmitterSystem(emitters))
    meter = dk.EnergyMeter()
    try:
        log = dk.align_resonance(state, cfg, [0, 1, 2], TOLERANCE, BUDGET, rng=gen, meter=meter)
    except dk.PlantDestroyedError:
        return {"outcome": "destroyed"}
    except dk.BudgetExhaustedError:
        return {"outcome": "over budget"}
    final = state.energies()
    last = list(log.records[-1].energies.values()) if len(log) else [0.0]
    return {
        "outcome": "aligned",
        "readings": meter.counter,
        "exposures": len(log),
        "spread": float(final.max() - final.min()),
        "last_record_spread": max(last) - min(last),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="7000-7199", help="range LO-HI, inclusive")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    cfg = dk.PlantConfig()
    start = time.perf_counter()
    runs = [campaign(seed, cfg) for seed in seeds]
    wall = time.perf_counter() - start
    aligned = [r for r in runs if r["outcome"] == "aligned"]
    outcomes = ("aligned", "destroyed", "over budget")
    counts = {k: sum(r["outcome"] == k for r in runs) for k in outcomes}
    print(f"seeds {seeds.start}-{seeds.stop - 1} ({len(runs)} campaigns)")
    print("aligned / destroyed / over budget: " + " / ".join(str(v) for v in counts.values()))
    print(f"wall time: {wall:.1f} s")
    if aligned:
        exposures = np.array([r["exposures"] for r in aligned])
        spreads = np.array([r["spread"] for r in aligned])
        print(f"readings per campaign, median: {np.median([r['readings'] for r in aligned]):g}")
        print(
            f"exposures per campaign, median / p90 / max: {np.median(exposures):g} / "
            f"{np.percentile(exposures, 90):g} / {exposures.max()}"
        )
        print(
            f"true final spread, median / max (ueV): {np.median(spreads):.2f} / "
            f"{spreads.max():.2f}"
        )
        print(
            "last-record spread, max (ueV): "
            f"{max(r['last_record_spread'] for r in aligned):.2f}"
        )
    return 0 if counts["aligned"] == len(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
