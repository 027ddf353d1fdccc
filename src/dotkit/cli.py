"""Config-driven batch front end.

Subcommands ``model``, ``simulate``, ``fit`` and ``tune`` each take
``--config <file> --seed <u64> --out <dir>``, check the configuration
strictly before any work (unknown keys are rejected), echo it into the
output directory, and write plot-ready delimited text plus a structured
report. Runs are deterministic given (config, seed).

Configuration files are YAML with a mandatory ``version: 1`` key. Every key,
its type and its default are declared once, in :data:`SCHEMA`, which
:func:`parse_config` walks; the package README documents it.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import yaml

from .emitters import (
    Emitter,
    EmitterSystem,
    G2Curve,
    Irf,
    _format_table,
    _system_coherence,
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
from .spectra import (
    INSTRUMENT_KINDS,
    Instrument,
    coverage_half_width,
    synth_spectrum,
    write_spectrum,
)
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

# Readers: each checks one raw value and returns it typed, or raises a
# ConfigError that names the value's path.


def _as_is(value, path):
    return value


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # nan, +-inf, or an int no float holds
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value, path):
    _number(value, path)
    if value != int(value):  # the raw value: a float holds no int above 2**53 exactly
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def _positive(value, path):
    number = _number(value, path)
    if not number > 0:
        raise ConfigError(f"{path}: must be > 0, got {number:g}")
    return number


def _at_least(low):
    def read(value, path):
        if _integer(value, path) < low:
            raise ConfigError(f"{path}: expected an integer >= {low}, got {value!r}")
        return int(value)

    return read


def _boolean(value, path):
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _text(value, path):
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _choice(*choices):
    def read(value, path):
        if value not in choices:
            raise ConfigError(f"{path}: expected one of {list(choices)}, got {value!r}")
        return value

    return read


def _window(value, path):
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{path}: need [lo, hi]")
    return [_number(v, path) for v in value]


def _targets(value, path):
    targets = _read([_integer], value, path)
    if len(targets) < 2 or len(set(targets)) != len(targets):
        raise ConfigError(f"{path}: need >= 2 distinct emitter indices, got {targets}")
    return targets


def _named(reader, **special):
    """Reader of a mapping from parameter names to values read by ``reader``,
    or by ``special[name]`` for the names given there."""

    def read(value, path):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected a mapping, got {value!r}")
        return {k: _read(special.get(k, reader), v, f"{path}.{k}") for k, v in value.items()}

    return read


def _tune(value, path):
    """The ``tune`` section, whose mode decides which target keys it takes."""
    mode = value.get("mode") if isinstance(value, dict) else None
    mode = _choice(*TUNE_MODES)("align" if mode is None else mode, f"{path}.mode")
    return _section({**TUNE, **TUNE_MODES[mode]}, value, path)


REQUIRED = object()  # the default of a key that must be given


def _fields(cls):
    """Keys of a dataclass's number fields; those it gives no default are required."""
    return {f.name: (_number, REQUIRED if f.default is MISSING else None) for f in fields(cls)}


# Each key maps to (reader, default). A reader is a function, a dict (a
# section, read key by key) or a one-item list (a non-empty list of that
# item). The default is filled in when the key is absent or null; REQUIRED
# makes that an error, and None leaves the key out, so that the library's
# own default applies where the value is used.
BOUNDS = dict.fromkeys(("guess", "min", "max"), (_number, REQUIRED))
SYSTEM = {"reference_energy": (_number, None), "emitters": ([_fields(Emitter)], REQUIRED)}
COINCIDENCES = {
    "n_events": (_integer, REQUIRED),
    "window_ns": (_positive, 10.0),
    "bin_ns": (_positive, 0.02),
    "normalization_window_ns": (_window, None),
}
SIMULATE = {
    "mc": (_boolean, True),
    "n_real": (_integer, 100_000),
    "coincidences": (COINCIDENCES, None),
}
CURVE = {
    "data": (_text, REQUIRED),
    "fixed": (_named(_number, n=_integer), {}),  # FitSpec would truncate a fractional n
    "free": (_named(BOUNDS), {}),
}
FIT = {
    "model": (_choice("ideal", "general"), "ideal"),
    "coherent": (_boolean, None),
    "irf_fwhm_ns": (_number, None),
    "n_restarts": (_integer, None),
    "shared": (_named(BOUNDS), {}),
    "curves": ([CURVE], REQUIRED),
}
METER = {
    "instrument": (_choice(*INSTRUMENT_KINDS), "fabry_perot"),
    "resolution_fwhm_ueV": (_positive, None),
    "snr": (_positive, None),
    "half_window_ueV": (_positive, None),
    "step_ueV": (_positive, None),
}
TUNE_MODES = {
    "align": {"targets": (_targets, REQUIRED)},
    "single": {"emitter_index": (_integer, REQUIRED), "target_ueV": (_number, REQUIRED)},
}
TUNE = {  # the keys of either mode; _tune adds those of the section's mode
    "mode": (_choice(*TUNE_MODES), "align"),
    "tolerance_ueV": (_number, REQUIRED),
    "max_exposures": (_at_least(0), 500),  # in both modes; tune_to_target's own is 200
    "plant": (_fields(PlantConfig), {}),
    "meter": (METER, {}),
}
SCHEMA = {
    "version": (_choice(CONFIG_VERSION), REQUIRED),
    "kind": (_as_is, None),  # main checks it against the subcommand
    "seed": (_at_least(0), 0),
    "system": (SYSTEM, None),
    "grid": ({"tau_max_ns": (_positive, REQUIRED), "n_points": (_at_least(2), REQUIRED)}, None),
    "irf_fwhm_ns": (_number, None),
    "model": ({"coherent": (_boolean, True)}, {}),
    "simulate": (SIMULATE, {}),
    "fit": (FIT, None),
    "tune": (_tune, None),
}


def _read(reader, value, path):
    if isinstance(reader, dict):
        return _section(reader, value, path)
    if isinstance(reader, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: need a non-empty list")
        return [_read(reader[0], item, f"{path}[{m}]") for m, item in enumerate(value)]
    return reader(value, path)


def _section(schema, raw, path):
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown, key=str)}")
    typed = {}
    for key, (reader, default) in schema.items():
        value = raw.get(key)
        if value is None:
            if default is REQUIRED:
                raise ConfigError(f"{path}.{key}: required")
            if default is None:
                continue
            value = default
        typed[key] = _read(reader, value, f"{path}.{key}")
    return typed


def parse_config(raw) -> dict:
    """Check, type and fill a raw configuration against :data:`SCHEMA`.

    Returns a new nested dict: every given key typed, every schema default
    filled in, and a key with neither left out. Raises ConfigError.
    """
    return _section(SCHEMA, raw, "config")


def load_config(path):
    """Read a YAML run configuration as written; :func:`parse_config` checks it."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from exc
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        detail = " ".join(str(exc).split())
        raise ConfigError(f"{path}: not valid YAML: {detail}") from exc


def _required(config, name):
    if name not in config:
        raise ConfigError(f"config.{name}: required for this command")
    return config[name]


def _given(section, **keys):
    """Keyword arguments ``{arg: section[key]}`` for the keys ``section`` gives."""
    return {arg: section[key] for arg, key in keys.items() if key in section}


def _build_system(config) -> EmitterSystem:
    section = _required(config, "system")
    emitters = tuple(Emitter(**entry) for entry in section["emitters"])
    return EmitterSystem(**{**section, "emitters": emitters})


def _build_grid(config) -> np.ndarray:
    section = _required(config, "grid")
    tau_max = section["tau_max_ns"]
    grid = np.linspace(-tau_max, tau_max, section["n_points"])
    # linspace's +-tau pairs can differ in the last bit; made exactly
    # antisymmetric, each |tau| is one Monte Carlo delay, not two.
    return 0.5 * (grid - grid[::-1])


def _build_irf(section) -> Irf | None:
    return Irf(section["irf_fwhm_ns"]) if "irf_fwhm_ns" in section else None


def _echo_config(config, outdir: Path) -> None:
    text = yaml.dump(config, Dumper=_YAML_DUMPER, sort_keys=True)
    (outdir / "config.yaml").write_text(
        f"# dotkit effective run configuration (version {CONFIG_VERSION})\n" + text
    )


# Points of the first head of the coherent-peak grid; each further head is 4x longer.
_PEAK_HEAD = 256


def _coherent_peak(system, tau_max=2.0):
    """Height and FWHM (ns) of the interference excess, the kernel's pair term, unconvolved.

    The FWHM is twice the first delay of ``linspace(0, tau_max, 4001)`` where the
    excess falls to half, interpolated linearly: (0, 0) without an excess, ``inf``
    without a crossing. The kernel runs on heads of that grid, 4x longer each
    time, until one holds the crossing; it works point by point, so the result
    is that of the whole grid.
    """
    tau = np.linspace(0.0, tau_max, 4001)
    head = _PEAK_HEAD
    while True:
        excess = _system_coherence(system, tau[:head])[1]
        height = excess[0]
        if height <= 0:
            return 0.0, 0.0
        below = np.nonzero(excess <= 0.5 * height)[0]
        if below.size:
            break
        if head >= tau.size:
            return float(height), float("inf")
        head *= 4
    m = below[0]
    t_half = np.interp(0.5 * height, excess[[m, m - 1]], tau[[m, m - 1]])
    return float(height), float(2.0 * t_half)


def cmd_model(config, outdir: Path) -> None:
    """Evaluate the analytic model, with and without the IRF, into ``curve.tsv``
    and ``summary.txt``. The grid is exactly antisymmetric and g2 reads only
    |tau|, so the kernel runs on the grid's upper half and the lower half is its mirror.
    """
    system = _build_system(config)
    grid = _build_grid(config)
    coherent = config["model"]["coherent"]
    irf = _build_irf(config)
    upper = g2_general(system, grid[grid.size // 2 :], coherent)
    values = np.concatenate((upper[grid.size % 2 :][::-1], upper))
    names, columns = "# tau_ns\tg2", [grid, values]
    g2_zero_irf = None
    if irf is not None:
        blurred = convolve_irf(G2Curve(grid, values), irf).values
        names, columns = names + "\tg2_irf", [grid, values, blurred]
        g2_zero_irf = float(blurred[np.argmin(np.abs(grid))])
    table = _format_table([names], "\t".join(["%.10g"] * len(columns)), columns)
    (outdir / "curve.tsv").write_text(table)
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
    seed = RngSeed(config["seed"])
    section = config["simulate"]
    irf = _build_irf(config)
    if section["mc"]:
        grid = _build_grid(config)
        n_real = section["n_real"]
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
        window = coin["window_ns"]
        bin_ns = coin["bin_ns"]
        step = min(bin_ns / 2.0, irf.fwhm / 8.0)
        model_grid = np.arange(-window - 1.0, window + 1.0 + 0.5 * step, step)
        model = G2Curve(model_grid, g2_general(system, model_grid, True))
        options = _given(coin, normalization_window="normalization_window_ns")
        histogram = sample_coincidences(
            model, coin["n_events"], window, irf, seed, bin_width=bin_ns, **options
        )
        write_histogram(outdir / "histogram.tsv", histogram)
        write_curve(outdir / "normalized.tsv", normalize_histogram(histogram))


def _bounds(free):
    return {name: (b["guess"], b["min"], b["max"]) for name, b in free.items()}


def cmd_fit(config, outdir: Path) -> None:
    """Joint fit of one or more measured/synthetic g2 curves."""
    section = _required(config, "fit")
    options = _given(section, model="model", coherent="coherent", n_restarts="n_restarts")
    if section["model"] == "general":
        options["base_system"] = _build_system(config)
    irf = _build_irf(section)
    shared = _bounds(section["shared"])
    datasets, specs = [], []
    for m, entry in enumerate(section["curves"]):
        data_path = Path(entry["data"])
        if not data_path.is_file():
            raise ConfigError(f"config.fit.curves[{m}].data: no file {data_path}")
        datasets.append(read_curve(data_path))
        free = {**shared, **_bounds(entry["free"])}
        specs.append(FitSpec(fixed=entry["fixed"], free=free, irf=irf, **options))
    result = fit_g2_joint(datasets, specs, shared=tuple(shared), rng=RngSeed(config["seed"]))
    (outdir / "fit_report.txt").write_text(format_fit_report(result))
    (outdir / "fit_params.tsv").write_text(fit_params_table(result))
    for k, (data, spec, params) in enumerate(
        zip(datasets, specs, joint_curve_params(result, specs))
    ):
        model_vals = evaluate_fit_model(spec, params, data.delays)
        columns = (data.delays, data.values, data.errors, model_vals)
        table = _format_table(["# tau_ns\tg2\tstderr\tmodel"], "\t".join(["%.10g"] * 4), columns)
        (outdir / f"overlay_{k}.tsv").write_text(table)


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
    section = _required(config, "tune")
    plant_cfg = PlantConfig(**section["plant"])
    meter_cfg = section["meter"]
    # Instrument.fabry_perot and Instrument.grating hold each kind's resolution.
    instrument = getattr(Instrument, meter_cfg["instrument"])(
        **_given(meter_cfg, resolution_fwhm="resolution_fwhm_ueV")
    )
    meter = EnergyMeter(
        instrument, **_given(meter_cfg, snr="snr", half_window="half_window_ueV", step="step_ueV")
    )
    single = section["mode"] == "single"
    targets = [section["emitter_index"]] if single else section["targets"]
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
    gen = RngSeed(config["seed"]).generator()
    grid = _spectrum_grid(state, meter)
    write_spectrum(
        outdir / "spectrum_before.tsv",
        synth_spectrum(state.current_system(), meter.instrument, grid, meter.snr, gen),
    )
    tolerance = section["tolerance_ueV"]
    budget = section["max_exposures"]
    if single:
        target = section["target_ueV"]
        log = tune_to_target(
            state, plant_cfg, targets[0], target, tolerance, budget, rng=gen, meter=meter
        )
    else:
        log = align_resonance(state, plant_cfg, targets, tolerance, budget, rng=gen, meter=meter)
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
        raw = load_config(args.config)
        if args.seed is not None and isinstance(raw, dict):
            raw["seed"] = args.seed
        config = parse_config(raw)
        kind = config.get("kind")
        if kind is not None and kind != args.command:
            raise ConfigError(
                f"config.kind ({kind!r}) does not match subcommand {args.command!r}"
            )
        # The echo is the config as written plus what this run settled: its
        # subcommand, its seed and, for ``fit``, data paths resolved so that
        # the echo reproduces the run from any directory.
        raw["kind"] = args.command
        raw["seed"] = config["seed"]
        if args.command == "fit" and "fit" in config:
            config_dir = Path(args.config).resolve().parent
            for entry, curve in zip(raw["fit"]["curves"], config["fit"]["curves"]):
                if not Path(curve["data"]).is_absolute():
                    curve["data"] = entry["data"] = str((config_dir / curve["data"]).resolve())
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "model":
            cmd_model(config, outdir)
        elif args.command == "simulate":
            cmd_simulate(config, outdir)
        elif args.command == "fit":
            cmd_fit(config, outdir)
        else:
            cmd_tune(config, outdir)
        _echo_config(raw, outdir)
        return 0
    except DotkitError as err:
        print(f"error:{err.category}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
