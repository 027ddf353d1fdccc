"""Config-driven batch front end.

Subcommands ``model``, ``simulate``, ``fit`` and ``tune`` each take
``--config <file> --seed <u64> --out <dir>``, validate the configuration
strictly (unknown keys are rejected), echo the effective configuration
into the output directory, and write plot-ready delimited text plus a
structured report. Runs are deterministic given (config, seed).

Configuration files are YAML with a mandatory ``version: 1`` key; the
full schema is documented in the package README.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from pathlib import Path

import numpy as np
import yaml

from .emitters import (
    Emitter,
    EmitterSystem,
    G2Curve,
    Irf,
    convolve_irf,
    g2_general,
    read_curve,
    write_curve,
)
from .errors import ConfigError, DotkitError, ParameterError
from .fitting import (
    FitSpec,
    evaluate_fit_model,
    fit_g2_joint,
    fit_params_table,
    format_fit_report,
    joint_curve_params,
)
from .montecarlo import (
    RngSeed,
    mc_g2,
    normalize_histogram,
    sample_coincidences,
    write_histogram,
)
from .spectra import Instrument, coverage_half_width, synth_spectrum, write_spectrum
from .tuning import (
    EnergyMeter,
    PlantConfig,
    PlantState,
    align_resonance,
    tune_to_target,
    write_journal,
)

CONFIG_VERSION = 1
# libyaml's loader and dumper where PyYAML was built with it; the same safe
# schema either way.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

EMITTER_KEYS = {
    "energy",
    "gamma",
    "gamma_pd",
    "sigma",
    "intensity",
    "position",
    "stark_coeff",
}
PLANT_KEYS = {
    "max_shift",
    "threshold_power",
    "kink_power",
    "destroy_power",
    "edge_ratio",
    "waveguide_length",
    "growth_rate",
    "kink_gain",
    "kernel_sigma",
    "step_noise",
    "thermal_cycle_redshift",
    "settling_shift",
}
METER_KEYS = {"snr", "half_window_ueV", "step_ueV", "instrument", "resolution_fwhm_ueV"}
BOUND_KEYS = {"guess", "min", "max"}

TOP_KEYS = {
    "version",
    "kind",
    "seed",
    "system",
    "grid",
    "irf_fwhm_ns",
    "model",
    "simulate",
    "fit",
    "tune",
}


def _check_keys(mapping, allowed, path):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected a mapping")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")


def _number(mapping, key, path, default=None, required=False):
    if key not in mapping or mapping[key] is None:
        if required:
            raise ConfigError(f"{path}.{key}: required")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key}: expected a finite number, got {value!r}")
    return float(value)


def _integer(mapping, key, path, default=None, required=False):
    value = _number(mapping, key, path, default, required)
    if value is None:
        return None
    if value != int(value):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    return int(value)


def _mapping(mapping, key, path):
    value = mapping.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{path}.{key}: expected a mapping, got {value!r}")
    return value


def _boolean(mapping, key, path, default=False):
    value = mapping.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected true/false, got {value!r}")
    return value


def load_config(path) -> dict:
    """Load and structurally validate a run configuration."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from exc
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        detail = " ".join(str(exc).split())
        raise ConfigError(f"{path}: not valid YAML: {detail}") from exc
    _check_keys(raw, TOP_KEYS, "config")
    version = raw.get("version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"config.version: expected {CONFIG_VERSION}, got {version!r}")
    if "system" in raw:
        _validate_system(raw["system"])
    _number(raw, "irf_fwhm_ns", "config")
    if "grid" in raw:
        grid = raw["grid"]
        _check_keys(grid, {"tau_max_ns", "n_points"}, "config.grid")
        if _number(grid, "tau_max_ns", "config.grid", required=True) <= 0:
            raise ConfigError("config.grid.tau_max_ns: must be > 0")
        if _integer(grid, "n_points", "config.grid", required=True) < 2:
            raise ConfigError("config.grid.n_points: must be >= 2")
    if "model" in raw:
        _check_keys(raw["model"], {"coherent"}, "config.model")
        _boolean(raw["model"], "coherent", "config.model", True)
    if "simulate" in raw:
        _validate_simulate(raw["simulate"])
    if "fit" in raw:
        _validate_fit(raw["fit"])
    if "tune" in raw:
        _validate_tune(raw["tune"])
    return raw


def _validate_system(system):
    _check_keys(system, {"reference_energy", "emitters"}, "config.system")
    emitters = system.get("emitters")
    if not isinstance(emitters, list) or not emitters:
        raise ConfigError("config.system.emitters: need a non-empty list")
    _number(system, "reference_energy", "config.system")
    for m, entry in enumerate(emitters):
        path = f"config.system.emitters[{m}]"
        _check_keys(entry, EMITTER_KEYS, path)
        for key in sorted(EMITTER_KEYS):
            _number(entry, key, path, required=key in ("energy", "gamma"))


def _validate_simulate(section):
    _check_keys(section, {"mc", "n_real", "coincidences"}, "config.simulate")
    _boolean(section, "mc", "config.simulate", True)
    _integer(section, "n_real", "config.simulate")
    if "coincidences" in section:
        coin = section["coincidences"]
        path = "config.simulate.coincidences"
        _check_keys(coin, {"n_events", "window_ns", "bin_ns", "normalization_window_ns"}, path)
        _integer(coin, "n_events", path, required=True)
        for key in ("window_ns", "bin_ns"):
            value = _number(coin, key, path)
            if value is not None and not value > 0:
                raise ConfigError(f"{path}.{key}: must be > 0, got {value:g}")
        window = coin.get("normalization_window_ns", [5.0, 10.0])
        if not (isinstance(window, list) and len(window) == 2):
            raise ConfigError(f"{path}.normalization_window_ns: need [lo, hi]")
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in window):
            raise ConfigError(f"{path}.normalization_window_ns: expected numbers, got {window!r}")


def _validate_bounds(entry, path):
    _check_keys(entry, BOUND_KEYS, path)
    for key in ("guess", "min", "max"):
        _number(entry, key, path, required=True)


def _validate_fit(section):
    _check_keys(
        section,
        {"model", "coherent", "irf_fwhm_ns", "n_restarts", "shared", "curves"},
        "config.fit",
    )
    if section.get("model", "ideal") not in ("ideal", "general"):
        raise ConfigError("config.fit.model: must be 'ideal' or 'general'")
    _boolean(section, "coherent", "config.fit", True)
    _number(section, "irf_fwhm_ns", "config.fit")
    _integer(section, "n_restarts", "config.fit")
    curves = section.get("curves")
    if not isinstance(curves, list) or not curves:
        raise ConfigError("config.fit.curves: need a non-empty list")
    for name, entry in _mapping(section, "shared", "config.fit").items():
        _validate_bounds(entry, f"config.fit.shared.{name}")
    for m, curve in enumerate(curves):
        path = f"config.fit.curves[{m}]"
        _check_keys(curve, {"data", "fixed", "free"}, path)
        if not isinstance(curve.get("data"), str):
            raise ConfigError(f"{path}.data: required path")
        fixed = _mapping(curve, "fixed", path)
        for name in fixed:
            # The emitter count must be whole: FitSpec would truncate it.
            convert = _integer if name == "n" else _number
            convert(fixed, name, f"{path}.fixed", required=True)
        for name, entry in _mapping(curve, "free", path).items():
            _validate_bounds(entry, f"{path}.free.{name}")


def _validate_tune(section):
    _check_keys(
        section,
        {
            "mode",
            "targets",
            "emitter_index",
            "target_ueV",
            "tolerance_ueV",
            "max_exposures",
            "plant",
            "meter",
        },
        "config.tune",
    )
    mode = section.get("mode", "align")
    if mode not in ("align", "single"):
        raise ConfigError("config.tune.mode: must be 'align' or 'single'")
    if mode == "align":
        targets = section.get("targets")
        if not isinstance(targets, list) or len(targets) < 2:
            raise ConfigError("config.tune.targets: need >= 2 emitter indices")
        for t in targets:
            if isinstance(t, bool) or not isinstance(t, int):
                raise ConfigError(f"config.tune.targets: expected integer indices, got {t!r}")
        if len(set(targets)) != len(targets):
            raise ConfigError(f"config.tune.targets: indices must be distinct, got {targets}")
    else:
        _integer(section, "emitter_index", "config.tune", required=True)
        _number(section, "target_ueV", "config.tune", required=True)
    _number(section, "tolerance_ueV", "config.tune", required=True)
    _integer(section, "max_exposures", "config.tune")
    if "plant" in section:
        plant = section["plant"]
        _check_keys(plant, PLANT_KEYS, "config.tune.plant")
        for key in plant:
            _number(plant, key, "config.tune.plant")
    if "meter" in section:
        meter = section["meter"]
        _check_keys(meter, METER_KEYS, "config.tune.meter")
        for key in sorted(METER_KEYS - {"instrument"}):
            value = _number(meter, key, "config.tune.meter")
            if value is not None and not value > 0:
                raise ConfigError(f"config.tune.meter.{key}: must be > 0, got {value:g}")


def _build_system(config) -> EmitterSystem:
    section = config.get("system")
    if section is None:
        raise ConfigError("config.system: required for this command")
    emitters = tuple(
        Emitter(
            energy=float(entry["energy"]),
            gamma=float(entry["gamma"]),
            gamma_pd=float(entry.get("gamma_pd", 0.0)),
            sigma=float(entry.get("sigma", 0.0)),
            intensity=float(entry.get("intensity", 1.0)),
            position=float(entry.get("position", 0.0)),
            stark_coeff=float(entry.get("stark_coeff", 0.0)),
        )
        for entry in section["emitters"]
    )
    return EmitterSystem(emitters, float(section.get("reference_energy", 0.0)))


def _build_grid(config) -> np.ndarray:
    section = config.get("grid")
    if section is None:
        raise ConfigError("config.grid: required for this command")
    tau_max = float(section["tau_max_ns"])
    n_points = int(section["n_points"])
    grid = np.linspace(-tau_max, tau_max, n_points)
    # linspace's +-tau pairs can differ in the last bit; made exactly
    # antisymmetric, each |tau| is one Monte Carlo delay, not two.
    return 0.5 * (grid - grid[::-1])


def _build_irf(config) -> Irf | None:
    fwhm = config.get("irf_fwhm_ns")
    return Irf(float(fwhm)) if fwhm is not None else None


def _echo_config(config, outdir: Path) -> None:
    text = yaml.dump(config, Dumper=_YAML_DUMPER, sort_keys=True)
    (outdir / "config.yaml").write_text(
        f"# dotkit effective run configuration (version {CONFIG_VERSION})\n" + text
    )


def _coherent_peak(system, tau_max=2.0):
    """Height and FWHM (ns) of the interference excess, unconvolved."""
    tau = np.linspace(0.0, tau_max, 4001)
    excess = g2_general(system, tau, True) - g2_general(system, tau, False)
    height = excess[0]
    if height <= 0:
        return 0.0, 0.0
    below = np.nonzero(excess <= 0.5 * height)[0]
    if below.size == 0:
        return float(height), float("inf")
    m = below[0]
    t_half = np.interp(0.5 * height, excess[[m, m - 1]], tau[[m, m - 1]])
    return float(height), float(2.0 * t_half)


def cmd_model(config, outdir: Path) -> None:
    """Evaluate the analytic model, with and without the IRF."""
    system = _build_system(config)
    grid = _build_grid(config)
    coherent = _boolean(config.get("model", {}), "coherent", "config.model", True)
    irf = _build_irf(config)
    values = g2_general(system, grid, coherent)
    # Python floats format faster than numpy scalars, to the same text.
    lines = [f"{t:.10g}\t{v:.10g}" for t, v in zip(grid.tolist(), values.tolist())]
    columns = "# tau_ns\tg2"
    g2_zero_irf = None
    if irf is not None:
        blurred = convolve_irf(G2Curve(grid, values), irf)
        lines = [
            f"{t:.10g}\t{v:.10g}\t{b:.10g}"
            for t, v, b in zip(grid.tolist(), values.tolist(), blurred.values.tolist())
        ]
        columns = "# tau_ns\tg2\tg2_irf"
        g2_zero_irf = float(blurred.values[np.argmin(np.abs(grid))])
    (outdir / "curve.tsv").write_text(columns + "\n" + "\n".join(lines) + "\n")
    height, fwhm = _coherent_peak(system)
    summary = [
        f"n_emitters = {len(system)}",
        f"coherent = {int(coherent)}",
        f"g2_zero_model = {g2_general(system, 0.0, coherent):.10g}",
        f"g2_zero_incoherent = {g2_general(system, 0.0, False):.10g}",
        f"coherent_peak_height = {height:.10g}",
        f"coherent_peak_fwhm_ns = {fwhm:.10g}",
    ]
    if g2_zero_irf is not None:
        summary.append(f"g2_zero_after_irf = {g2_zero_irf:.10g}")
    (outdir / "summary.txt").write_text("\n".join(summary) + "\n")


def _oracle_report(curve: G2Curve, analytic: np.ndarray, n_real: int) -> list[str]:
    """Lines of ``oracle_report.txt``: the Monte Carlo curve against the model.

    The oracle passes when its largest pull stays below the threshold that a
    correct oracle exceeds in 1% of runs, two-sided and corrected for the
    number of delays. ``mc_g2`` samples each distinct |tau| once, so rows at
    -tau and +tau are one test: the correction and ``n_beyond_3sigma`` run
    over distinct |tau|, each taking the larger pull of its rows.
    """
    dev = np.abs(curve.values - analytic)
    with np.errstate(divide="ignore", invalid="ignore"):
        pulls = np.where(curve.errors > 0, dev / curve.errors, 0.0)
    distinct, inverse = np.unique(np.abs(curve.delays), return_inverse=True)
    delay_pulls = np.zeros(distinct.size)
    np.maximum.at(delay_pulls, inverse, pulls)
    threshold = statistics.NormalDist().inv_cdf(1.0 - 0.005 / distinct.size)
    return [
        f"n_points = {dev.size}",
        f"n_distinct_delays = {distinct.size}",
        f"n_real = {n_real}",
        f"max_abs_deviation = {dev.max():.6g}",
        f"max_pull_sigma = {pulls.max():.6g}",
        f"n_beyond_3sigma = {int(np.sum(delay_pulls > 3.0))}",
        f"pull_threshold_sigma = {threshold:.6g}",
        f"oracle_pass = {int(pulls.max() <= threshold)}",
    ]


def cmd_simulate(config, outdir: Path) -> None:
    """Monte Carlo oracle run and/or synthetic coincidence histograms."""
    system = _build_system(config)
    seed = RngSeed(int(config.get("seed", 0)))
    section = config.get("simulate", {})
    irf = _build_irf(config)
    if _boolean(section, "mc", "config.simulate", True):
        grid = _build_grid(config)
        n_real = int(section.get("n_real", 100_000))
        curve = mc_g2(system, grid, n_real, seed)
        write_curve(
            outdir / "mc_curve.tsv",
            curve,
            header=[f"n_real = {n_real}", f"seed = {seed.seed}"],
        )
        report = _oracle_report(curve, g2_general(system, grid, True), n_real)
        (outdir / "oracle_report.txt").write_text("\n".join(report) + "\n")
    if "coincidences" in section:
        coin = section["coincidences"]
        if irf is None:
            raise ConfigError("config.irf_fwhm_ns: required to sample coincidences")
        window = float(coin.get("window_ns", 10.0))
        bin_ns = float(coin.get("bin_ns", 0.02))
        norm = coin.get("normalization_window_ns", [5.0, 10.0])
        step = min(bin_ns / 2.0, irf.fwhm / 8.0)
        model_grid = np.arange(-window - 1.0, window + 1.0 + 0.5 * step, step)
        model = G2Curve(model_grid, g2_general(system, model_grid, True))
        histogram = sample_coincidences(
            model,
            int(coin["n_events"]),
            window,
            irf,
            seed,
            bin_width=bin_ns,
            normalization_window=(float(norm[0]), float(norm[1])),
        )
        write_histogram(outdir / "histogram.tsv", histogram)
        write_curve(outdir / "normalized.tsv", normalize_histogram(histogram))


def cmd_fit(config, outdir: Path, config_dir: Path) -> None:
    """Joint fit of one or more measured/synthetic g2 curves."""
    section = config.get("fit")
    if section is None:
        raise ConfigError("config.fit: required for this command")
    model = section.get("model", "ideal")
    coherent = _boolean(section, "coherent", "config.fit", True)
    irf_fwhm = _number(section, "irf_fwhm_ns", "config.fit")
    irf = Irf(irf_fwhm) if irf_fwhm is not None else None
    n_restarts = _integer(section, "n_restarts", "config.fit", default=3)
    shared_cfg = section.get("shared", {})
    shared_free = {
        name: (float(b["guess"]), float(b["min"]), float(b["max"]))
        for name, b in shared_cfg.items()
    }
    base_system = _build_system(config) if model == "general" else None
    datasets, specs = [], []
    for m, entry in enumerate(section["curves"]):
        data_path = Path(entry["data"])
        if not data_path.is_absolute():
            data_path = config_dir / data_path
        if not data_path.is_file():
            raise ConfigError(f"config.fit.curves[{m}].data: no file {data_path}")
        datasets.append(read_curve(data_path))
        free = dict(shared_free)
        for name, b in entry.get("free", {}).items():
            free[name] = (float(b["guess"]), float(b["min"]), float(b["max"]))
        specs.append(
            FitSpec(
                model=model,
                coherent=coherent,
                fixed={k: float(v) for k, v in entry.get("fixed", {}).items()},
                free=free,
                irf=irf,
                base_system=base_system,
                n_restarts=n_restarts,
            )
        )
    result = fit_g2_joint(
        datasets, specs, shared=tuple(shared_free), rng=RngSeed(int(config.get("seed", 0)))
    )
    (outdir / "fit_report.txt").write_text(format_fit_report(result))
    (outdir / "fit_params.tsv").write_text(fit_params_table(result))
    for k, (data, spec, params) in enumerate(
        zip(datasets, specs, joint_curve_params(result, specs))
    ):
        model_vals = evaluate_fit_model(spec, params, data.delays)
        lines = ["# tau_ns\tg2\tstderr\tmodel"]
        columns = (data.delays, data.values, data.errors, model_vals)
        for t, v, s, m in zip(*(column.tolist() for column in columns)):
            lines.append(f"{t:.10g}\t{v:.10g}\t{s:.10g}\t{m:.10g}")
        (outdir / f"overlay_{k}.tsv").write_text("\n".join(lines) + "\n")


def _spectrum_grid(state, meter):
    """Energy grid of the before/after spectra, at the meter's step.

    It spans every line by at least 150 ueV and by the coverage
    :func:`synth_spectrum` needs through the meter's instrument, plus one
    step because ``arange`` can stop short of its end.
    """
    coverage = max(coverage_half_width(e, meter.instrument) for e in state.system.emitters)
    margin = max(150.0, coverage + meter.step)
    energies = state.energies()
    return np.arange(
        energies.min() - margin, energies.max() + margin + 0.5 * meter.step, meter.step
    )


def cmd_tune(config, outdir: Path) -> None:
    """Run the closed-loop controller end-to-end and journal it."""
    system = _build_system(config)
    section = config.get("tune")
    if section is None:
        raise ConfigError("config.tune: required for this command")
    plant_cfg = PlantConfig(**{k: float(v) for k, v in section.get("plant", {}).items()})
    meter_cfg = section.get("meter", {})
    instrument_kind = meter_cfg.get("instrument", "fabry_perot")
    default_resolution = 2.4 if instrument_kind == "fabry_perot" else 50.0
    instrument = Instrument(
        instrument_kind, float(meter_cfg.get("resolution_fwhm_ueV", default_resolution))
    )
    meter = EnergyMeter(
        instrument=instrument,
        snr=float(meter_cfg.get("snr", 200.0)),
        half_window=_number(meter_cfg, "half_window_ueV", "config.tune.meter"),
        step=_number(meter_cfg, "step_ueV", "config.tune.meter"),
    )
    if section.get("mode", "align") == "single":
        targets = [int(section["emitter_index"])]
    else:
        targets = [int(t) for t in section["targets"]]
    for k in targets:
        if not 0 <= k < len(system):
            raise ConfigError(
                f"config.tune: emitter index {k} is outside the system's "
                f"{len(system)} emitters (0..{len(system) - 1})"
            )
        try:
            meter.window(system.emitters[k])
        except ParameterError as err:
            raise ConfigError(
                f"config.tune.meter.half_window_ueV: emitter {k}: {err}; omit it to "
                f"derive the window from the line"
            ) from err
    state = PlantState(system)
    seed = RngSeed(int(config.get("seed", 0)))
    gen = seed.generator()
    grid = _spectrum_grid(state, meter)
    write_spectrum(
        outdir / "spectrum_before.tsv",
        synth_spectrum(state.current_system(), meter.instrument, grid, meter.snr, gen),
    )
    tolerance = float(section["tolerance_ueV"])
    max_exposures = int(section.get("max_exposures", 500))
    if section.get("mode", "align") == "single":
        log = tune_to_target(
            state,
            plant_cfg,
            targets[0],
            float(section["target_ueV"]),
            tolerance,
            max_exposures,
            rng=gen,
            meter=meter,
        )
    else:
        log = align_resonance(
            state, plant_cfg, targets, tolerance, max_exposures, rng=gen, meter=meter
        )
    write_journal(outdir / "journal.txt", log)
    grid = _spectrum_grid(state, meter)
    write_spectrum(
        outdir / "spectrum_after.tsv",
        synth_spectrum(state.current_system(), meter.instrument, grid, meter.snr, gen),
    )
    energies = state.energies()
    selected = energies[targets]
    report = [
        f"n_exposures = {len(log)}",
        f"alive = {int(state.alive)}",
        f"max_pairwise_detuning_ueV = {selected.max() - selected.min():.10g}",
    ]
    for k, energy in zip(targets, selected):
        report.append(f"energy[{k}] = {energy:.10g}")
    (outdir / "report.txt").write_text("\n".join(report) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dotkit",
        description="Photon-correlation simulation and strain-tuning toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("model", "evaluate the analytic g2 model"),
        ("simulate", "Monte Carlo oracle and synthetic coincidences"),
        ("fit", "fit g2 curves to the forward model"),
        ("tune", "run the closed-loop tuning controller"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="YAML run configuration")
        cmd.add_argument("--seed", type=int, default=None, help="RNG seed override")
        cmd.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        kind = config.get("kind")
        if kind is not None and kind != args.command:
            raise ConfigError(
                f"config.kind ({kind!r}) does not match subcommand {args.command!r}"
            )
        config["kind"] = args.command
        if args.seed is not None:
            config["seed"] = args.seed
        if _integer(config, "seed", "config", default=0) < 0:
            raise ConfigError(f"config.seed: expected an integer >= 0, got {config['seed']!r}")
        config.setdefault("seed", 0)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        config_dir = Path(args.config).resolve().parent
        if args.command == "model":
            cmd_model(config, outdir)
        elif args.command == "simulate":
            cmd_simulate(config, outdir)
        elif args.command == "fit":
            # Resolve data paths so the echoed config reproduces the run
            # from any directory.
            for entry in config.get("fit", {}).get("curves", []):
                path = Path(entry["data"])
                if not path.is_absolute():
                    entry["data"] = str((config_dir / path).resolve())
            cmd_fit(config, outdir, config_dir)
        else:
            cmd_tune(config, outdir)
        _echo_config(config, outdir)
        return 0
    except DotkitError as err:
        print(f"error:{err.category}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
