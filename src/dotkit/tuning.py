"""Laser-crystallization tuning plant and closed-loop resonance controller.

The plant is phenomenological: thermal transport and crystallization
kinetics are collapsed into a position-dependent power threshold, a linear
growth rate above it, a cubic superlinear amplification above the kink
power, and a Gaussian spatial crosstalk kernel. Strain shifts are
irreversible (blue only).

The controller measures energies the way the experiment does: it
synthesizes a windowed high-resolution scan of one emitter at a time
(the others gated away via Stark bias) and fits the line center. After
each pulse it measures only the line it stepped; an alignment re-measures
the other selected lines once when it stops stepping a line. The exposure
journal records, per pulse, the energies measured after it and the
meter's rescans (window widenings plus recenters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .emitters import Emitter, EmitterSystem, _format_table
from .errors import (
    BudgetExhaustedError,
    GridCoverageError,
    InfeasibleLayoutError,
    ParameterError,
    PlantDestroyedError,
    UnreachableTargetError,
)
from .fitting import fit_spectrum_peaks
from .montecarlo import as_generator
from .spectra import COVERAGE_LINEWIDTHS, Instrument, coverage_half_width, synth_spectrum


@dataclass(frozen=True)
class PlantConfig:
    """Calibration of the crystallization plant.

    Powers are quoted at the waveguide center; the position factor scales
    them toward the edges, where the substrate heat sink is closer and
    1.5-2x more power is needed.
    """

    max_shift: float = 70_000.0  # ueV at full crystallization under the spot
    threshold_power: float = 2.5  # mW, center value
    kink_power: float = 4.0  # mW, onset of the superlinear response
    destroy_power: float = 6.0  # mW, diode/membrane destruction
    edge_ratio: float = 1.75  # edge/center power scaling
    waveguide_length: float = 15.0  # um
    growth_rate: float = 0.003  # crystallized fraction per mW*s above threshold
    kink_gain: float = 25.0  # cubic amplification scale above the kink
    kernel_sigma: float = 0.196  # um, crosstalk falloff
    step_noise: float = 1.0  # ueV rms added per exposure
    settling_shift: float = 0.0  # ueV applied to all emitters after pulse 1

    def __post_init__(self):
        if not 0 < self.threshold_power < self.kink_power < self.destroy_power:
            raise ParameterError("need 0 < threshold < kink < destroy power")
        if self.kernel_sigma <= 0 or self.growth_rate <= 0 or self.max_shift <= 0:
            raise ParameterError("kernel_sigma, growth_rate, max_shift must be > 0")
        if self.edge_ratio < 1:
            raise ParameterError("edge_ratio must be >= 1")
        if self.step_noise < 0:
            raise ParameterError("step_noise must be >= 0")

    def position_factor(self, x: float) -> float:
        """Power scale at position x (1 at the center, edge_ratio at the ends)."""
        half = 0.5 * self.waveguide_length
        rel = min(abs(x - half) / half, 1.0)
        return 1.0 + (self.edge_ratio - 1.0) * rel**2

    def threshold_at(self, x: float) -> float:
        return self.threshold_power * self.position_factor(x)

    def kink_at(self, x: float) -> float:
        return self.kink_power * self.position_factor(x)

    def destroy_at(self, x: float) -> float:
        return self.destroy_power * self.position_factor(x)

    @property
    def nominal_response(self) -> float:
        """Expected shift rate at the exposure site, ueV per mW*s."""
        return self.max_shift * self.growth_rate


@dataclass
class PlantState:
    """Mutable plant: crystallization fractions and accumulated shifts.

    ``emitter_shifts`` holds the irreversible strain blue-shifts;
    ``offsets`` holds global shifts of every line, such as the
    post-first-exposure settling, and may be negative.
    """

    system: EmitterSystem
    site_fraction: dict[float, float] = field(default_factory=dict)
    emitter_shifts: np.ndarray | None = None
    offsets: np.ndarray | None = None
    alive: bool = True
    exposure_count: int = 0

    def __post_init__(self):
        n = len(self.system)
        if self.emitter_shifts is None:
            self.emitter_shifts = np.zeros(n)
        if self.offsets is None:
            self.offsets = np.zeros(n)

    def energies(self) -> np.ndarray:
        """Current transition energies in ueV."""
        return self.system.energies + self.emitter_shifts + self.offsets

    def current_system(self) -> EmitterSystem:
        """Emitter system at the current (shifted) energies."""
        return self.system.with_energies(self.energies())


@dataclass(frozen=True)
class ExposurePulse:
    """One heating-laser exposure."""

    site: float  # um along the waveguide
    power: float  # mW
    duration: float  # s

    def __post_init__(self):
        if not all(map(math.isfinite, (self.site, self.power, self.duration))):
            raise ParameterError("pulse site, power and duration must be finite")
        if self.power <= 0 or self.duration <= 0:
            raise ParameterError("pulse power and duration must be > 0")


@dataclass(frozen=True)
class ExposureRecord:
    pulse: ExposurePulse
    energies: dict[int, float]  # measured energies after the pulse, by index
    spectra: tuple[str, ...] = ()
    rescans: int = 0  # window widenings plus recenters during this record's scans

    def __post_init__(self):
        if self.rescans < 0 or not all(map(math.isfinite, self.energies.values())):
            raise ParameterError("record rescans must be >= 0 and its energies finite")


@dataclass
class ExposureLog:
    """Controller audit trail: one record per pulse."""

    records: list[ExposureRecord] = field(default_factory=list)

    def append(self, record: ExposureRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def crosstalk_kernel(distance: float, kernel_sigma: float) -> float:
    """Fraction of the site shift seen at the given distance (1 at d=0)."""
    if kernel_sigma <= 0:
        raise ParameterError("kernel_sigma must be > 0")
    d = abs(distance)
    return float(math.exp(-(d**2) / (2.0 * kernel_sigma**2)))


def apply_exposure(
    state: PlantState,
    cfg: PlantConfig,
    pulse: ExposurePulse,
    rng,
) -> tuple[PlantState, np.ndarray]:
    """Advance the plant by one heating pulse; returns per-emitter shifts.

    Below the local power threshold no crystallization occurs (emitters
    still pick up the per-exposure noise floor). Above the kink power the
    dose is amplified by a cubic factor; above the destruction power the
    plant dies and the call raises.
    """
    if not state.alive:
        raise PlantDestroyedError("plant was destroyed; exposures rejected")
    gen = as_generator(rng)
    factor = cfg.position_factor(pulse.site)
    if pulse.power > cfg.destroy_power * factor:
        state.alive = False
        raise PlantDestroyedError(
            f"{pulse.power:g} mW at x={pulse.site:g} um exceeds the destruction "
            f"power {cfg.destroy_power * factor:g} mW: diode and membrane destroyed"
        )
    threshold = cfg.threshold_power * factor
    kink = cfg.kink_power * factor
    fraction = state.site_fraction.get(pulse.site, 0.0)
    if pulse.power <= threshold:
        grown = 0.0
    else:
        dose = cfg.growth_rate * (pulse.power - threshold) * pulse.duration
        if pulse.power > kink:
            over = (pulse.power - kink) / (cfg.destroy_power * factor - kink)
            dose *= 1.0 + cfg.kink_gain * over**3
        grown = min(1.0 - fraction, dose)
    raw = cfg.max_shift * grown
    distances = np.abs(state.system.positions - pulse.site)
    kernel = np.exp(-(distances**2) / (2.0 * cfg.kernel_sigma**2))
    shifts = raw * kernel + gen.normal(0.0, cfg.step_noise, size=distances.size)
    shifts = np.maximum(shifts, 0.0)
    state.site_fraction[pulse.site] = fraction + grown
    state.emitter_shifts = state.emitter_shifts + shifts
    state.exposure_count += 1
    if state.exposure_count == 1 and cfg.settling_shift:
        state.offsets = state.offsets + cfg.settling_shift
    return state, shifts


# Room, in linewidths, that the meter's derived scan window leaves beyond
# the spectrometer's coverage rule for the line to sit off the expected center.
WINDOW_PLAY_LINEWIDTHS = 2.0


class EnergyMeter:
    """Measurement-in-the-loop line readout.

    Synthesizes a windowed scan of a single emitter through the
    high-resolution interferometer (the other emitters Stark-gated out of
    the window), fits one pseudo-Voigt line and returns its center. The
    scan is centered on the expected (or previous) energy and spans
    +-``half_window`` ueV. By default (``None``) the window is derived from
    the line: the +-10-linewidth coverage :func:`synth_spectrum` needs plus
    2 linewidths of play. An explicit ``half_window`` below that coverage
    is rejected. When the line has jumped out of the window the meter
    widens the scan 4x and retries; when it sits near the window edge it
    recenters and rescans. ``last_rescans`` counts both for the latest
    reading.
    """

    def __init__(
        self,
        instrument: Instrument | None = None,
        snr: float = 200.0,
        half_window: float | None = None,
        step: float | None = None,
    ):
        self.instrument = instrument or Instrument.fabry_perot()
        self.snr = snr
        self.half_window = half_window
        self.step = step if step is not None else self.instrument.resolution_fwhm / 4.0
        self.last: dict[int, float] = {}
        self.counter = 0
        self.last_ref = ""
        self.last_rescans = 0

    def window(self, emitter: Emitter) -> float:
        """Half-width (ueV) of the first scan of ``emitter``'s line."""
        if self.half_window is None:
            return coverage_half_width(emitter, self.instrument, WINDOW_PLAY_LINEWIDTHS)
        coverage = coverage_half_width(emitter, self.instrument)
        if self.half_window < coverage:
            raise ParameterError(
                f"half_window {self.half_window:g} ueV is below the {coverage:g} ueV "
                f"a scan needs to cover the line (+-{COVERAGE_LINEWIDTHS:g} linewidths)"
            )
        return self.half_window

    def measure(self, state: PlantState, index: int, rng, expected: float | None = None) -> float:
        gen = as_generator(rng)
        e = state.system.emitters[index]
        center = expected if expected is not None else self.last.get(index, e.energy)
        true_energy = state.energies()[index]
        line = Emitter(
            energy=true_energy,
            gamma=e.gamma,
            gamma_pd=e.gamma_pd,
            sigma=e.sigma,
            intensity=e.intensity,
        )
        half = self.window(line)
        for rescans in range(6):
            grid = np.arange(center - half, center + half + 0.5 * self.step, self.step)
            try:
                spectrum = synth_spectrum(
                    EmitterSystem((line,)), self.instrument, grid, self.snr, gen
                )
                peak = fit_spectrum_peaks(spectrum)
            except GridCoverageError:
                # The line jumped out of the window; widen and retry.
                half *= 4.0
                continue
            if abs(peak.center - center) > 0.8 * half:
                # Line sits at the window edge; recenter and rescan.
                center = peak.center
                continue
            self.counter += 1
            self.last_ref = f"scan{self.counter:05d}"
            self.last_rescans = rescans
            self.last[index] = peak.center
            return peak.center
        raise GridCoverageError(f"lost the line of emitter {index} while scanning")


def calibrate_ramp(
    state: PlantState,
    cfg: PlantConfig,
    site: float,
    powers,
    duration: float,
    rng,
    emitter_index: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Power ramp: one pulse per power, recording the cumulative shift of
    the emitter at (or nearest to) the site.

    The returned curve is flat below the local threshold, grows linearly
    above it, and turns superlinear past the kink; crossing the
    destruction power raises, with the partial curve attached to the
    error as ``ramp``.
    """
    gen = as_generator(rng)
    powers = np.asarray(powers, dtype=float)
    if powers.size and np.any(np.diff(powers) <= 0):
        raise ParameterError("ramp powers must be strictly ascending")
    if emitter_index is None:
        emitter_index = int(np.argmin(np.abs(state.system.positions - site)))
    start = state.energies()[emitter_index]
    shifts = np.zeros(powers.size)
    for m, power in enumerate(powers):
        try:
            apply_exposure(state, cfg, ExposurePulse(site, float(power), duration), gen)
        except PlantDestroyedError as err:
            err.ramp = (powers[:m], shifts[:m])
            raise
        shifts[m] = state.energies()[emitter_index] - start
    return powers, shifts


# Step planning constants: expected step is half the remaining distance,
# floored at a fine step and capped so a +3.5 sigma noise fluctuation
# cannot carry the line past target + tolerance.
FINE_STEP_FRACTION = 0.5
OVERSHOOT_SIGMAS = 3.5
MIN_DURATION = 0.1  # s
MAX_DURATION = 10.0  # s


def _plan_step(remaining: float, tolerance: float, noise: float) -> float:
    fine = FINE_STEP_FRACTION * tolerance
    step = max(0.5 * remaining, fine)
    cap = remaining + tolerance - OVERSHOOT_SIGMAS * noise
    if cap > 0:
        step = min(step, cap)
    else:
        step = min(step, 0.15 * tolerance)
    return step


def _plan_pulse(cfg: PlantConfig, site: float, step: float, rate: float) -> ExposurePulse:
    """Choose power/duration below the kink delivering roughly ``step`` ueV."""
    threshold = cfg.threshold_at(site)
    kink = cfg.kink_at(site)
    max_excess = 0.9 * (kink - threshold)
    dose = step / max(rate, 1e-12)  # mW*s above threshold
    excess = min(max_excess, dose / MIN_DURATION)
    duration = min(max(dose / excess, MIN_DURATION), MAX_DURATION)
    return ExposurePulse(site=site, power=threshold + excess, duration=duration)


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, log: ExposureLog):
        self.used += 1
        if self.used > self.limit:
            err = BudgetExhaustedError(
                f"exposure budget ({self.limit}) exhausted before convergence"
            )
            err.log = log
            raise err


def _tune_loop(
    state: PlantState,
    cfg: PlantConfig,
    index: int,
    target_fn,
    tolerance: float,
    budget: _Budget,
    gen,
    meter: EnergyMeter,
    log: ExposureLog,
    measured: dict[int, float],
    measure_all: tuple[int, ...] = (),
) -> None:
    """Step one emitter toward ``target_fn()`` (re-evaluated per exposure).

    Starts from the controller's nominal response rate and blends each
    measured shift back into it, so the loop calibrates itself against
    the actual plant. Only the stepped line is measured after each pulse.
    ``measure_all`` lists further lines to re-measure once when a loop
    that pulsed stops (crosstalk absorption during alignment); those
    readings join the last pulse's record, so every record lists exactly
    the lines measured after its pulse.
    """
    site = state.system.emitters[index].position
    rate = cfg.nominal_response
    energy = measured[index]
    first = len(log)
    while energy < target_fn() - tolerance:
        budget.spend(log)
        step = _plan_step(target_fn() - energy, tolerance, cfg.step_noise)
        pulse = _plan_pulse(cfg, site, step, rate)
        apply_exposure(state, cfg, pulse, gen)
        measured[index] = meter.measure(state, index, gen, expected=energy + step)
        log.append(
            ExposureRecord(pulse, {index: measured[index]}, (meter.last_ref,), meter.last_rescans)
        )
        observed = measured[index] - energy
        dose = (pulse.power - cfg.threshold_at(site)) * pulse.duration
        if observed > 3.0 * cfg.step_noise and dose > 0:
            # Self-calibration: blend the measured response into the rate.
            rate = 0.7 * rate + 0.3 * observed / dose
        energy = measured[index]
    if len(log) == first:
        return
    last = log.records[-1]
    energies, refs, rescans = dict(last.energies), list(last.spectra), last.rescans
    for other in measure_all:
        if other != index:
            energies[other] = measured[other] = meter.measure(state, other, gen)
            refs.append(meter.last_ref)
            rescans += meter.last_rescans
    log.records[-1] = ExposureRecord(last.pulse, energies, tuple(refs), rescans)


def tune_to_target(
    state: PlantState,
    cfg: PlantConfig,
    emitter_index: int,
    target: float,
    tolerance: float,
    max_exposures: int = 200,
    rng=None,
    meter: EnergyMeter | None = None,
) -> ExposureLog:
    """Blue-shift one emitter until its measured line sits within
    ``tolerance`` of ``target`` (ueV).

    Steps halve as the line approaches and are capped so overshooting
    beyond target + tolerance is a > 3 sigma event per step; the practical
    no-overshoot guarantee assumes tolerance is at least about twice the
    per-exposure noise. Red targets raise immediately: strain cannot
    lower the energy, use the Stark bias or a different emitter.
    """
    if tolerance < 1.0:
        raise ParameterError("tolerance must be >= 1 ueV")
    gen = as_generator(rng if rng is not None else 0)
    meter = meter or EnergyMeter()
    log = ExposureLog()
    energy = meter.measure(state, emitter_index, gen)
    if target < energy - tolerance:
        raise UnreachableTargetError(
            f"target {target:g} ueV is red of the current line ({energy:g} ueV); "
            f"strain tuning only blue-shifts"
        )
    budget = _Budget(max_exposures)
    _tune_loop(
        state,
        cfg,
        emitter_index,
        lambda: target,
        tolerance,
        budget,
        gen,
        meter,
        log,
        measured={emitter_index: energy},
    )
    return log


def _pairwise_spread(values: dict[int, float]) -> float:
    v = list(values.values())
    return max(v) - min(v)


def align_resonance(
    state: PlantState,
    cfg: PlantConfig,
    emitter_indices,
    tolerance: float,
    max_exposures: int = 500,
    rng=None,
    meter: EnergyMeter | None = None,
) -> ExposureLog:
    """Tune the selected emitters into mutual resonance.

    The target is the bluest selected line plus a guard band covering the
    noise creep it will pick up while the others are tuned; emitters are
    stepped in ascending energy order. Only the stepped line is measured
    after each exposure; when its loop stops, every other selected line is
    re-measured once, so crosstalk is absorbed by the loop and the
    convergence test always sees readings taken after the last pulse.
    Succeeds when all pairwise measured detunings are within tolerance
    (with an internal margin for the readout error); the last journal
    record then lists those readings for every selected line.
    """
    indices = list(emitter_indices)
    if len(indices) < 2:
        raise ParameterError("alignment needs at least two emitters")
    if tolerance < 1.0:
        raise ParameterError("tolerance must be >= 1 ueV")
    positions = state.system.positions
    for a in indices:
        for b in indices:
            if a < b:
                coupling = crosstalk_kernel(positions[a] - positions[b], cfg.kernel_sigma)
                if coupling > 0.5:
                    raise InfeasibleLayoutError(
                        f"emitters {a} and {b} are {abs(positions[a] - positions[b]):g} um "
                        f"apart; kernel coupling {coupling:.2f} > 0.5 cannot converge"
                    )
    gen = as_generator(rng if rng is not None else 0)
    meter = meter or EnergyMeter()
    log = ExposureLog()
    budget = _Budget(max_exposures)
    internal = 0.75 * tolerance

    measured = {k: meter.measure(state, k, gen) for k in indices}
    while _pairwise_spread(measured) > internal:
        bluest = max(measured, key=measured.get)
        others = [k for k in indices if k != bluest]
        # Guard band: expected half-normal noise creep of the bluest line
        # over the exposures the others will still need.
        steps_left = sum(
            math.ceil(math.log2(max((measured[bluest] - measured[k]) / tolerance, 1.0)))
            + 4
            for k in others
        )
        guard = min(
            cfg.step_noise * math.sqrt(2.0 / math.pi) * steps_left,
            0.2 * max(_pairwise_spread(measured), tolerance),
        )
        for k in sorted(others, key=lambda q: measured[q]):

            def chase(k=k):
                return max(v for q, v in measured.items() if q != k) + guard

            _tune_loop(
                state,
                cfg,
                k,
                chase,
                internal,
                budget,
                gen,
                meter,
                log,
                measured,
                measure_all=tuple(indices),
            )
    return log


def write_journal(path, log: ExposureLog) -> None:
    """Serialize the audit trail, one record per pulse."""
    header = [
        "# exposure journal",
        "# n site_um power_mW duration_s energies(idx=ueV;...) spectra rescans",
    ]
    rows = (
        (
            m, rec.pulse.site, rec.pulse.power, rec.pulse.duration,
            ";".join("%d=%.10g" % kv for kv in sorted(rec.energies.items())),
            ",".join(rec.spectra) if rec.spectra else "-",
            rec.rescans,
        )
        for m, rec in enumerate(log.records, start=1)
    )
    row_format = "%d\t%.10g\t%.10g\t%.10g\t%s\t%s\t%d"
    Path(path).write_text(_format_table(header, row_format, zip(*rows)))


def read_journal(path) -> ExposureLog:
    """Parse a journal back into an equivalent log for audit replay.

    Journals written before the ``rescans`` column existed read with
    ``rescans = 0``. A malformed row raises :class:`ParameterError` naming
    the file and line: one with other than 6 or 7 tab-separated fields, a
    field that does not parse, a non-finite number, a repeated energy
    index, or a negative ``rescans``.
    """
    log = ExposureLog()
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields = line.split("\t")
            if len(fields) not in (6, 7):
                raise ValueError(f"{len(fields)} tab-separated fields, not 6 or 7")
            _, site, power, duration, energies, spectra, *rescans = fields
            pairs = [item.split("=") for item in energies.split(";") if item]
            readings = {int(index): float(energy) for index, energy in pairs}
            if len(readings) < len(pairs):
                raise ValueError(f"an energy index is repeated in {energies!r}")
            record = ExposureRecord(
                pulse=ExposurePulse(float(site), float(power), float(duration)),
                energies=readings,
                spectra=tuple(spectra.split(",")) if spectra != "-" else (),
                rescans=int(rescans[0]) if rescans else 0,
            )
        except ValueError as err:
            raise ParameterError(f"journal {path}, line {number}: {err}") from err
        log.append(record)
    return log
