"""Domain types and the analytic second-order correlation model.

Working units throughout the package: energies in ueV, times in ns,
rates in 1/ns, detunings in rad/ns (energy difference divided by hbar).
Spectral-diffusion widths are ordinary (not angular) frequencies in 1/ns.

One coherence kernel, :func:`_coherence`, computes every analytic g2 in real arithmetic,
for :func:`g2_general`, :func:`g2_ideal`, ``fitting._g2_columns`` and ``cli._coherent_peak``.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import GridCoverageError, GridTooCoarseError, ParameterError

# Reduced Planck constant in working units (ueV * ns).
HBAR_UEV_NS = 0.6582119569
# Planck constant h = 2*pi*hbar, for conversions involving ordinary frequency.
PLANCK_UEV_NS = 2.0 * math.pi * HBAR_UEV_NS
# FWHM / standard-deviation ratio of a Gaussian, 2*sqrt(2*ln 2).
GAUSSIAN_FWHM_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
# Widest spectral diffusion (1/ns) the coherence kernel takes: its 2 pi^2 sigma^2
# overflows a float above 3e153, and at t = 0 an infinite one would make 0 * inf.
_MAX_SIGMA = 1e150


@dataclass(frozen=True)
class Emitter:
    """One single-photon emitter coupled to the waveguide.

    Parameters
    ----------
    energy : float
        Transition energy in ueV, absolute or relative to a reference.
    gamma : float
        Radiative emission rate in 1/ns. Must be > 0.
    gamma_pd : float
        Pure-dephasing rate in 1/ns.
    sigma : float
        Spectral-diffusion width (ordinary frequency) in 1/ns.
    intensity : float
        Relative measured intensity (excitation rate times waveguide
        coupling), dimensionless weight >= 0.
    position : float
        Location along the waveguide in um.
    """

    energy: float
    gamma: float
    gamma_pd: float = 0.0
    sigma: float = 0.0
    intensity: float = 1.0
    position: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():  # the fields, in order
            if not math.isfinite(value):
                raise ParameterError(f"emitter {name} must be finite, got {value}")
            if value < 0 and name in ("gamma_pd", "sigma", "intensity"):
                raise ParameterError(f"emitter {name} must be >= 0, got {value}")
        if not self.gamma > 0:
            raise ParameterError(f"emitter gamma (radiative rate) must be > 0, got {self.gamma}")

    @property
    def total_dephasing(self) -> float:
        """Coherence decay rate gamma/2 + gamma_pd in 1/ns."""
        return 0.5 * self.gamma + self.gamma_pd


@dataclass(frozen=True)
class EmitterSystem:
    """Ordered collection of emitters sharing one waveguide mode."""

    emitters: tuple[Emitter, ...]
    reference_energy: float = 0.0

    def __post_init__(self):
        emitters = tuple(self.emitters)
        object.__setattr__(self, "emitters", emitters)
        if len(emitters) < 1:
            raise ParameterError("system needs at least one emitter")
        if sum(e.intensity for e in emitters) <= 0:
            raise ParameterError("total intensity must be > 0")

    def __len__(self) -> int:
        return len(self.emitters)

    @property
    def energies(self) -> np.ndarray:
        return np.array([e.energy for e in self.emitters])

    @property
    def intensities(self) -> np.ndarray:
        return np.array([e.intensity for e in self.emitters])

    @property
    def positions(self) -> np.ndarray:
        return np.array([e.position for e in self.emitters])

    def with_energies(self, energies: Sequence[float]) -> "EmitterSystem":
        """Copy of the system with per-emitter transition energies replaced."""
        if len(energies) != len(self.emitters):
            raise ParameterError("energy list length must match emitter count")
        new = tuple(replace(e, energy=float(en)) for e, en in zip(self.emitters, energies))
        return EmitterSystem(new, self.reference_energy)


def identical_system(
    n: int,
    gamma: float,
    gamma_pd: float = 0.0,
    sigma: float = 0.0,
    spacing_uev: float = 0.0,
    intensities: Sequence[float] | None = None,
    reference_energy: float = 0.0,
) -> EmitterSystem:
    """Build n emitters with common rates and equally spaced energies.

    ``spacing_uev`` places emitter k at reference + k * spacing, so for two
    emitters it is exactly the pair detuning.
    """
    if n < 1:
        raise ParameterError("emitter count must be >= 1")
    if intensities is None:
        intensities = [1.0] * n
    if len(intensities) != n:
        raise ParameterError("intensity list length must match emitter count")
    emitters = tuple(
        Emitter(
            energy=reference_energy + k * spacing_uev,
            gamma=gamma,
            gamma_pd=gamma_pd,
            sigma=sigma,
            intensity=float(intensities[k]),
        )
        for k in range(n)
    )
    return EmitterSystem(emitters, reference_energy)


@dataclass(frozen=True)
class G2Curve:
    """Second-order correlation values on a delay grid.

    ``errors`` carries per-point one-standard-error bars when the curve
    came from a Monte Carlo estimate or a normalized histogram.
    """

    delays: np.ndarray
    values: np.ndarray
    errors: np.ndarray | None = None

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "values", values)
        if delays.ndim != 1 or delays.shape != values.shape:
            raise ParameterError("delays and values must be 1-d arrays of equal length")
        if not np.all(np.isfinite(delays)):
            raise ParameterError("curve delays must be finite")
        if delays.size >= 2 and not np.all(np.diff(delays) > 0):
            raise ParameterError("delay grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ParameterError("curve values must be finite")
        if self.errors is not None:
            errors = np.asarray(self.errors, dtype=float)
            object.__setattr__(self, "errors", errors)
            if errors.shape != values.shape:
                raise ParameterError("errors must match values in shape")

    @property
    def step(self) -> float:
        """Grid step; raises unless the grid is uniform."""
        steps = np.diff(self.delays)
        if steps.size == 0:
            raise ParameterError("single-point curve has no step")
        if not np.allclose(steps, steps[0], rtol=1e-6, atol=1e-12):
            raise ParameterError("grid is not uniform")
        return float(steps[0])


@dataclass(frozen=True)
class Irf:
    """Gaussian instrument response of the coincidence electronics.

    ``fwhm`` is the timing resolution in ns (0.1 ns for a typical
    single-photon detector pair).
    """

    fwhm: float

    def __post_init__(self):
        if not (self.fwhm > 0 and math.isfinite(self.fwhm)):
            raise ParameterError(f"IRF fwhm must be finite and > 0, got {self.fwhm}")

    @property
    def sigma(self) -> float:
        return self.fwhm / GAUSSIAN_FWHM_SIGMA


def _whole_number(value, name: str) -> int:
    """``value`` as an int: an integer, or a float with a whole value."""
    whole = isinstance(value, numbers.Integral)
    if not (whole or isinstance(value, float) and value.is_integer()):
        raise ParameterError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _coherence(t, gammas, omegas, rates, sigmas, weights, coherent=True, ladder=False):
    """The coherence kernel: decay and pair of g2 = 1 - decay + pair at
    delays ``t >= 0``, from per-emitter decay rates, detunings (rad/ns),
    coherence rates, diffusion widths and weights w_i that sum to 1:
    decay = sum_i w_i^2 exp(-gamma_i t). With the amplitudes
    a_i = exp(-rate_i t - 2 pi^2 sigma_i^2 t^2 + i omega_i t) and the field
    F = sum_i w_i a_i, pair = sum_{i!=j} w_i w_j Re[a_i conj(a_j)] is taken
    as |F|^2 - sum_i w_i^2 |a_i|^2 in real arithmetic, O(N) work per delay
    in O(len(t)) memory; it is 0 without ``coherent`` or with one emitter.
    A pair term with a sigma above ``_MAX_SIGMA`` is a ParameterError.
    ``ladder`` appends Re F, Im F, Re G and Im G, G = sum_k k w_k a_k.
    """
    decay = sum(w**2 * np.exp(-gamma * t) for gamma, w in zip(gammas, weights))
    sums = np.zeros((4 if ladder else 2,) + t.shape)  # Re F, Im F[, Re G, Im G]
    power = np.zeros_like(t)  # sum_i w_i^2 |a_i|^2
    if coherent and len(weights) > 1:
        if max(sigmas) > _MAX_SIGMA:
            raise ParameterError(
                f"diffusion width sigma must be <= {_MAX_SIGMA:g} /ns, got {max(sigmas):g}"
            )
        for k, (omega, rate, sigma, w) in enumerate(zip(omegas, rates, sigmas, weights)):
            amplitude = w * np.exp(-rate * t - 2.0 * math.pi**2 * sigma**2 * t**2)
            power += amplitude**2
            parts = (amplitude,)  # Re and Im of w_k a_k; at omega == 0, Im is 0 exactly
            if omega:
                parts = (amplitude * trig(omega * t) for trig in (np.cos, np.sin))
            for j, part in enumerate(parts):
                sums[j] += part
                if ladder:
                    sums[2 + j] += k * part
                del part  # one part alive at a time: the generator makes the next
    pair = sums[0] ** 2 + sums[1] ** 2 - power
    return (decay, pair, *sums) if ladder else (decay, pair)


def _system_coherence(system: EmitterSystem, t, coherent=True, ladder=False):
    """:func:`_coherence` of a system; detunings from its first emitter keep phases small."""
    e0 = system.emitters[0].energy
    columns = zip(*((e.gamma, (e.energy - e0) / HBAR_UEV_NS, e.total_dephasing, e.sigma)
                    for e in system.emitters))
    return _coherence(t, *columns, system.intensities / system.intensities.sum(), coherent, ladder)


def g2_ideal(
    tau,
    n: int,
    gamma: float,
    total_dephasing: float,
    diffusion_sigma: float,
    detunings: np.ndarray | None = None,
):
    """g2(tau) for n identical emitters with equal intensities.

    Evaluates
    ``[1 - exp(-gamma |tau|)/n]
    + exp(-2 Gamma |tau| - 4 pi^2 sigma^2 tau^2)/n^2 * sum_{i!=j} cos(d_ij tau)``
    where Gamma is the per-emitter coherence decay rate gamma/2 + gamma_pd,
    by :func:`_coherence` with weights 1/n and detunings d_i0.

    Parameters
    ----------
    tau : float or array
        Delay(s) in ns; the curve is even, negative values are allowed.
    n : int
        Number of emitters, >= 1.
    gamma, total_dephasing, diffusion_sigma : float
        Radiative rate, coherence decay rate Gamma, and spectral-diffusion
        width, all in 1/ns (sigma as ordinary frequency).
    detunings : (n, n) array, optional
        Pair detunings d_ij = omega_i - omega_j in rad/ns; omitted means all
        emitters resonant. Any other matrix raises ParameterError.
    """
    n = _whole_number(n, "emitter count")
    if n < 1:
        raise ParameterError(f"emitter count must be >= 1, got {n}")
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ParameterError(f"radiative rate must be finite and > 0, got {gamma}")
    for name, rate in (("total_dephasing", total_dephasing), ("diffusion_sigma", diffusion_sigma)):
        if not (rate >= 0 and math.isfinite(rate)):
            raise ParameterError(f"{name} must be finite and >= 0, got {rate}")
    t = np.abs(np.asarray(tau, dtype=float))
    d = np.zeros((n, n)) if detunings is None else np.asarray(detunings, dtype=float)
    if d.shape != (n, n) or not np.abs(d - d[:, :1] + d[:, 0]).max() <= 1e-12 * np.abs(d).max():
        raise ParameterError(f"detunings must be an ({n}, {n}) matrix d_ij = omega_i - omega_j")
    rates, sigmas, weights = [total_dephasing] * n, [diffusion_sigma] * n, [1.0 / n] * n
    decay, pair = _coherence(t, [gamma] * n, d[:, 0], rates, sigmas, weights)
    out = 1.0 - decay + pair
    return out if np.ndim(tau) else float(out)


def g2_general(system: EmitterSystem, tau, coherent: bool = True):
    """g2(tau) for arbitrary rates, linewidths and intensities: 1 - decay + pair
    of :func:`_coherence` with weights I_i / sum(I), coherence rates
    gamma_i/2 + gamma_pd_i and detunings (E_i - E_0) / hbar from the first
    emitter. ``coherent=False`` drops the pair term: the distinguishable-emitter baseline.
    """
    decay, pair = _system_coherence(system, np.abs(np.asarray(tau, dtype=float)), coherent)
    out = 1.0 - decay + pair
    return out if np.ndim(tau) else float(out)


def g2_curve(system: EmitterSystem, tau_grid: np.ndarray, coherent: bool = True) -> G2Curve:
    """Model curve on a grid; :func:`convolve_irf` blurs it with a timing response."""
    return G2Curve(np.asarray(tau_grid, dtype=float), g2_general(system, tau_grid, coherent))


def gaussian_kernel(step: float, fwhm: float, n_sigma: float = 6.0) -> np.ndarray:
    """Discrete unit-sum Gaussian kernel on a uniform grid of the given step."""
    sigma = fwhm / GAUSSIAN_FWHM_SIGMA
    half = int(math.ceil(n_sigma * sigma / step))
    t = np.arange(-half, half + 1) * step
    kernel = np.exp(-0.5 * (t / sigma) ** 2)
    return kernel / kernel.sum()


def _blur(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """``values`` convolved with a unit-sum ``kernel`` of odd length, the ends
    padded with the edge values so that a flat plateau is preserved exactly."""
    half = kernel.size // 2
    padded = np.concatenate([np.full(half, values[0]), values, np.full(half, values[-1])])
    return np.convolve(padded, kernel, mode="valid")


def convolve_irf(curve: G2Curve, irf: Irf) -> G2Curve:
    """Blur a model curve with the Gaussian timing response.

    The grid must be uniform with step <= fwhm/5, and the kernel's +-6 sigma
    must fit in the grid's span (fwhm <= 0.392 span): a tap beyond it would
    only ever meet the padding. Ends are padded with the edge values, so a
    flat plateau is preserved exactly.
    """
    step = curve.step
    if step > irf.fwhm / 5.0 + 1e-12:
        raise GridTooCoarseError(
            f"grid step {step:g} ns too coarse for IRF fwhm {irf.fwhm:g} ns "
            f"(need step <= fwhm/5)"
        )
    # gaussian_kernel's half width in steps, checked before it is allocated.
    if 6.0 * irf.sigma / step > curve.delays.size - 1:
        span = curve.delays[-1] - curve.delays[0]
        raise GridCoverageError(
            f"IRF fwhm {irf.fwhm:g} ns too wide for a {span:g} ns grid of "
            f"{curve.delays.size} points: its kernel's +-6 sigma ({6.0 * irf.sigma:g} ns) "
            f"must fit in the span (need fwhm <= 0.392 span)"
        )
    return G2Curve(curve.delays.copy(), _blur(curve.values, gaussian_kernel(step, irf.fwhm)))


def fwhm_from_sigma(sigma: float) -> float:
    """Spectral FWHM in ueV of the Gaussian diffusion broadening.

    ``sigma`` is an ordinary frequency in 1/ns, so the conversion uses
    Planck's h rather than hbar: FWHM = 2 sqrt(2 ln 2) h sigma.
    """
    return GAUSSIAN_FWHM_SIGMA * PLANCK_UEV_NS * sigma


def fwhm_from_dephasing(gamma_pd: float) -> float:
    """Spectral FWHM in ueV of the Lorentzian pure-dephasing broadening."""
    return 2.0 * HBAR_UEV_NS * gamma_pd


def write_curve(path, curve: G2Curve, header: Sequence[str] = ()) -> None:
    """Write a curve as delimited text (tau_ns, g2[, stderr])."""
    if curve.errors is None:
        names, columns = "# tau_ns\tg2", (curve.delays, curve.values)
    else:
        names, columns = "# tau_ns\tg2\tstderr", (curve.delays, curve.values, curve.errors)
    lines = [*(f"# {h}" for h in header), names]
    if any(line.splitlines() != [line] for line in lines):
        raise ParameterError("a curve header item must not break the line")
    Path(path).write_text(_format_table(lines, "\t".join(["%.10g"] * len(columns)), columns))


def _format_table(header_lines: Sequence[str], row_format: str, columns) -> str:
    """The header lines as text, then all rows of ``columns`` formatted by one
    ``%`` on the interleaved cells; a header line may contain ``%``."""
    lists = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    n_rows, width = len(lists[0]) if lists else 0, len(lists)
    cells = [None] * (n_rows * width)
    for j, column in enumerate(lists):
        cells[j::width] = column
    head = "".join(line + "\n" for line in header_lines)
    return head + ((row_format + "\n") * n_rows) % tuple(cells)


def _read_table(path, kind: str) -> tuple[dict[str, str], np.ndarray]:
    """The ``# key = value`` header lines and the numeric rows, at least two
    columns wide, of a ``kind`` file; a malformed file is a ParameterError."""
    try:
        lines = Path(path).read_text().splitlines()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows
            data = np.loadtxt(lines, comments="#", ndmin=2)
    except ValueError as err:
        # numpy's advice after the ';' names its own keyword arguments.
        raise ParameterError(f"{kind} file {path}: {str(err).split(';')[0]}") from err
    if data.shape[1] < 2:
        raise ParameterError(f"{kind} file {path} must have >= 2 columns")
    header = (line.strip()[1:].partition("=") for line in lines if line.lstrip().startswith("#"))
    return {key.strip(): value.strip() for key, eq, value in header if eq}, data


def read_curve(path) -> G2Curve:
    """Read a curve written by :func:`write_curve`."""
    data = _read_table(path, "curve")[1]
    errors = data[:, 2] if data.shape[1] >= 3 else None
    try:
        return G2Curve(data[:, 0], data[:, 1], errors)
    except ParameterError as err:
        raise ParameterError(f"curve file {path}: {err}") from err
