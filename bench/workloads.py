"""The benchmark's four workloads: inputs made from a seed, and output checks.

Each ``build_<workload>(seed, workdir)`` writes the inputs of a fixed job
set under ``workdir`` and returns its jobs. A job is one ``dotkit`` CLI
call; its ``check`` reads the job's output directory and returns ``None``
when the outputs are correct, or a message saying what is wrong.

Why these four, and which layer each bypasses:

* ``fit``: eight joint fits, each of three coincidence histograms. The
  fitting layer (``evaluate_fit_model`` -> ``g2_general`` +
  ``convolve_irf``) does almost all the work; the Monte Carlo oracle and
  the tuning controller are bypassed.
* ``tune``: thirteen closed-loop alignments of three emitters. Peak fits
  inside the energy meter dominate; the g2 kernel is never called, so a
  kernel change must show no change here. A campaign's cost varies with
  its seed by about 28% (42 to 122 exposures), so a run needs many.
* ``simulate``: Monte Carlo oracle plus a coincidence histogram. ``mc_g2``
  dominates; fitting and tuning are bypassed.
* ``model``: analytic curves for N = 4 to 64 emitters. The only workload
  where the O(N^2) pair loop of ``g2_general`` dominates (at large N);
  at small N the CLI's row formatting and file writing dominate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import reference

E0 = 1_300_000.0  # ueV, 1.3 eV
IRF_FWHM = 0.1  # ns


@dataclass
class Job:
    name: str
    argv: list[str]
    outdir: Path
    check: Callable[[Path], str | None]
    n_emitters: int = 0


def _write_config(path: Path, config: dict) -> str:
    path.write_text(yaml.safe_dump(config, sort_keys=True))
    return str(path)


def _job(command, name, workdir, config, check, n_emitters=0) -> Job:
    config_path = _write_config(workdir / f"{name}.yaml", config)
    outdir = workdir / "out" / name
    argv = [command, "--config", config_path, "--out", str(outdir)]
    return Job(name, argv, outdir, check, n_emitters)


def _key_values(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, comments="#", ndmin=2)


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=n)]


# --- fit ---------------------------------------------------------------

FIT_JOBS = 8
FIT_CURVES = ((1, 1.9), (2, 2.0), (3, 1.4))  # (N, gamma) of each histogram
FIT_GAMMA_PD, FIT_SIGMA = 2.5, 1.0
FIT_N_EVENTS = 100_000
FIT_MAX_CHI2_DOF = 1.2
FIT_MAX_GAMMA_ERROR = 0.15
FIT_MAX_PULL = 5.0


def build_fit(seed: int, workdir: Path) -> list[Job]:
    """Joint fits, each of three fresh 1e5-event resonant histograms
    (N = 1, 2, 3; 100 ps IRF, 20 ps bins).

    Every fit ties one free ``sigma`` across the curves, frees ``gamma`` and
    ``scale`` per curve, and holds ``gamma_pd`` at its generating value, as
    a spectroscopy anchor would. With ``gamma_pd`` free, about one data set
    in four puts its optimum on the ``gamma_pd = 0`` bound, where the
    Nelder-Mead fit needs three times the evaluations; a single start keeps
    the random second start's 5,000-11,000 extra evaluations out as well.
    Either would make a job's cost depend on the seed more than on dotkit.
    The histograms are drawn with dotkit's own sampler, as a user would make
    synthetic data; the check compares with the generating rates.
    """
    import dotkit as dk

    grid = np.arange(-11.0, 11.001, 0.01)
    models = {
        n: dk.G2Curve(grid, dk.g2_general(dk.identical_system(n, gamma, FIT_GAMMA_PD, FIT_SIGMA), grid))
        for n, gamma in FIT_CURVES
    }
    seeds = iter(_seeds(seed, FIT_JOBS * (len(FIT_CURVES) + 1)))
    jobs = []
    for k in range(FIT_JOBS):
        curves = []
        n_points = 0
        for n, _ in FIT_CURVES:
            hist = dk.sample_coincidences(
                models[n], FIT_N_EVENTS, 10.0, dk.Irf(IRF_FWHM), dk.RngSeed(next(seeds)),
                bin_width=0.02,
            )
            curve = dk.normalize_histogram(hist)
            path = workdir / f"fit{k}_histogram_n{n}.tsv"
            dk.write_curve(path, curve)
            n_points += curve.values.size
            curves.append(
                {
                    "data": path.name,
                    "fixed": {"n": n, "delta_ueV": 0.0, "gamma_pd": FIT_GAMMA_PD},
                    "free": {
                        "gamma": {"guess": 1.2, "min": 0.05, "max": 10.0},
                        "scale": {"guess": 1.0, "min": 0.9, "max": 1.1},
                    },
                }
            )
        config = {
            "version": 1,
            "seed": next(seeds),
            "fit": {
                "model": "ideal",
                "coherent": True,
                "irf_fwhm_ns": IRF_FWHM,
                "n_restarts": 1,
                "shared": {"sigma": {"guess": 1.0, "min": 0.01, "max": 5.0}},
                "curves": curves,
            },
        }
        check = _fit_check(n_points - (1 + 2 * len(curves)))
        jobs.append(_job("fit", f"fit{k}", workdir, config, check))
    return jobs


def _fit_check(dof):
    def check(outdir: Path) -> str | None:
        rows = {}
        for line in (outdir / "fit_params.tsv").read_text().splitlines()[1:]:
            name, value, stderr = line.split("\t")[:3]
            rows[name] = (float(value), float(stderr))
        if rows["converged"][0] != 1:
            return "fit did not converge"
        chi2_dof = rows["residual_norm"][0] / dof
        if not chi2_dof <= FIT_MAX_CHI2_DOF:
            return f"chi2/dof {chi2_dof:.4f} > {FIT_MAX_CHI2_DOF}"
        # A flat 15% window on gamma fails about one correct N = 3 fit in
        # seven (18% off at 2.8 standard errors was seen), so the error is
        # judged against the fit's own standard error, which itself must
        # claim 15% or better.
        for k, (_, gamma) in enumerate(FIT_CURVES):
            value, stderr = rows[f"curve{k}.gamma"]
            if not stderr <= FIT_MAX_GAMMA_ERROR * gamma:
                return f"curve{k}.gamma stderr {stderr:.3g} > {FIT_MAX_GAMMA_ERROR:.0%} of {gamma}"
            if not abs(value - gamma) <= FIT_MAX_PULL * stderr:
                return f"curve{k}.gamma {value:.4g} is over {FIT_MAX_PULL} stderr from {gamma}"
        return None

    return check


# --- tune --------------------------------------------------------------

TUNE_CAMPAIGNS = 13
TUNE_POSITIONS = (6.0, 7.3, 8.6)  # um
TUNE_SPAN = 5000.0  # ueV above E0
TUNE_TOLERANCE = 2.0  # ueV
TUNE_BUDGET = 500


def build_tune(seed: int, workdir: Path) -> list[Job]:
    """Align-mode campaigns: three emitters drawn over 5 meV above 1.3 eV."""
    rng = np.random.default_rng(seed)
    jobs = []
    for k in range(TUNE_CAMPAIGNS):
        energies = E0 + rng.uniform(0.0, TUNE_SPAN, size=len(TUNE_POSITIONS))
        config = {
            "version": 1,
            "seed": int(rng.integers(0, 2**31)),
            "system": {
                "emitters": [
                    {"energy": float(e), "gamma": 1.4, "gamma_pd": 2.5, "sigma": 1.0, "position": x}
                    for e, x in zip(energies, TUNE_POSITIONS)
                ]
            },
            "tune": {
                "mode": "align",
                "targets": list(range(len(TUNE_POSITIONS))),
                "tolerance_ueV": TUNE_TOLERANCE,
                "max_exposures": TUNE_BUDGET,
            },
        }
        jobs.append(_job("tune", f"tune{k}", workdir, config, _check_tune))
    return jobs


def _check_tune(outdir: Path) -> str | None:
    report = _key_values(outdir / "report.txt")
    if report["alive"] != "1":
        return "plant destroyed"
    exposures = int(report["n_exposures"])
    if exposures > TUNE_BUDGET:
        return f"{exposures} exposures > budget {TUNE_BUDGET}"
    records = [
        line.split("\t")
        for line in (outdir / "journal.txt").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    if len(records) != exposures:
        return f"journal holds {len(records)} records, report says {exposures}"
    if not records:
        return "no exposure recorded for emitters 5 meV apart"
    measured = [float(item.split("=")[1]) for item in records[-1][4].split(";")]
    spread = max(measured) - min(measured)
    if not spread <= TUNE_TOLERANCE:
        return f"final measured spread {spread:.3f} ueV > {TUNE_TOLERANCE}"
    return None


# --- simulate ----------------------------------------------------------

SIM_GAMMAS = {1: 1.9, 2: 2.0, 3: 1.4}
SIM_SPACINGS = (0.0, 20.0, 46.0)  # ueV
SIM_N_REAL = 100_000
SIM_N_EVENTS = 100_000
SIM_MAX_PULL = 5.0


def build_simulate(seed: int, workdir: Path) -> list[Job]:
    """Monte Carlo oracle and a coincidence histogram for the 18-case matrix
    N = {1, 2, 3} x spacing {0, 20, 46} ueV x intensities {equal, 2:1}.

    The N = 1 cases have no interference term to sample, so they cost
    almost nothing; they keep the median job an N = 2 one.
    """
    seeds = iter(_seeds(seed, 18))
    jobs = []
    for n, gamma in SIM_GAMMAS.items():
        for spacing in SIM_SPACINGS:
            for label, intensities in (("eq", [1.0] * n), ("2to1", [2.0] + [1.0] * (n - 1))):
                emitters = [
                    {"energy": k * spacing, "gamma": gamma, "gamma_pd": 2.5, "sigma": 1.0,
                     "intensity": w}
                    for k, w in enumerate(intensities)
                ]
                config = {
                    "version": 1,
                    "seed": next(seeds),
                    "system": {"emitters": emitters},
                    "grid": {"tau_max_ns": 3.0, "n_points": 61},
                    "irf_fwhm_ns": IRF_FWHM,
                    "simulate": {
                        "mc": True,
                        "n_real": SIM_N_REAL,
                        "coincidences": {"n_events": SIM_N_EVENTS, "window_ns": 10.0,
                                         "bin_ns": 0.02},
                    },
                }
                name = f"sim_n{n}_d{int(spacing)}_{label}"
                jobs.append(_job("simulate", name, workdir, config,
                                 _simulate_check(emitters), n_emitters=n))
    return jobs


def _simulate_check(emitters):
    def check(outdir: Path) -> str | None:
        # The CLI's own oracle_pass takes a 3-sigma max over ~31 independent
        # delays, which a correct run misses about 1 time in 12 at N=3; the
        # benchmark gates on 5 standard errors instead.
        mc = _table(outdir / "mc_curve.tsv")
        analytic = reference.pairwise_g2(emitters, mc[:, 0])
        excess = np.abs(mc[:, 1] - analytic) - SIM_MAX_PULL * mc[:, 2]
        if not excess.max() <= 1e-9:
            return f"mc deviates from the analytic curve by more than {SIM_MAX_PULL} SE"
        counts = _table(outdir / "histogram.tsv")[:, 1]
        if counts.sum() != SIM_N_EVENTS:
            return f"histogram holds {counts.sum():.0f} events, not {SIM_N_EVENTS}"
        return None

    return check


# --- model -------------------------------------------------------------

MODEL_SIZES = (4, 8, 16, 32, 64)
MODEL_RESONANT_N = 8
MODEL_SPREAD = 20.0  # ueV
MODEL_TAU_MAX, MODEL_POINTS = 3.0, 6001
MODEL_G2_RTOL = 1e-9  # one unit in the 10th significant digit of curve.tsv
MODEL_IRF_ATOL = 1e-3


def build_model(seed: int, workdir: Path) -> list[Job]:
    """Analytic curves with a 100 ps IRF on a 6,001-point +-3 ns grid for
    N = 4 to 64 emitters spread over 20 ueV with intensities 0.5 to 2.

    The N = 8 system is resonant with equal intensities instead, so its
    g2(0) is known exactly: 2(1 - 1/N).
    """
    rng = np.random.default_rng(seed)
    jobs = []
    for n in MODEL_SIZES:
        gammas = rng.uniform(0.7, 2.0, n)
        if n == MODEL_RESONANT_N:
            energies, weights, g2_zero = np.zeros(n), np.ones(n), 2.0 * (1.0 - 1.0 / n)
        else:
            energies, weights, g2_zero = rng.uniform(0.0, MODEL_SPREAD, n), rng.uniform(0.5, 2.0, n), None
        emitters = [
            {"energy": float(e), "gamma": float(g), "gamma_pd": 2.5, "sigma": 1.0,
             "intensity": float(w)}
            for e, g, w in zip(energies, gammas, weights)
        ]
        jobs.append(_model_job(f"model_n{n}", workdir, emitters, g2_zero))
    return jobs


def _model_job(name, workdir, emitters, g2_zero):
    config = {
        "version": 1,
        "system": {"emitters": emitters},
        "grid": {"tau_max_ns": MODEL_TAU_MAX, "n_points": MODEL_POINTS},
        "irf_fwhm_ns": IRF_FWHM,
        "model": {"coherent": True},
    }
    tau = np.linspace(-MODEL_TAU_MAX, MODEL_TAU_MAX, MODEL_POINTS)
    cache = {}

    def check(outdir: Path) -> str | None:
        # The reference is computed on first use, outside set-up and timing.
        if not cache:
            cache["g2"] = reference.pairwise_g2(emitters, tau)
            cache["blurred"] = reference.gaussian_blur(cache["g2"], tau[1] - tau[0], IRF_FWHM)
        expected, blurred = cache["g2"], cache["blurred"]
        curve = _table(outdir / "curve.tsv")
        if curve.shape != (MODEL_POINTS, 3):
            return f"curve.tsv has shape {curve.shape}"
        if not np.all(np.abs(curve[:, 0] - tau) <= MODEL_G2_RTOL * np.abs(tau) + 1e-15):
            return "delay column differs from the configured grid"
        error = np.abs(curve[:, 1] - expected) / np.abs(expected)
        if not error.max() <= MODEL_G2_RTOL:
            return f"g2 differs from the pairwise reference by {error.max():.2e} (relative)"
        if not np.abs(curve[:, 2] - blurred).max() <= MODEL_IRF_ATOL:
            return "g2_irf differs from the reference blur by more than 1e-3"
        if g2_zero is not None:
            value = float(_key_values(outdir / "summary.txt")["g2_zero_model"])
            if not math.isclose(value, g2_zero, rel_tol=MODEL_G2_RTOL):
                return f"resonant g2(0) = {value!r}, expected 2(1 - 1/N) = {g2_zero!r}"
        return None

    return _job("model", name, workdir, config, check, n_emitters=len(emitters))


BUILDERS = {
    "fit": build_fit,
    "tune": build_tune,
    "simulate": build_simulate,
    "model": build_model,
}
