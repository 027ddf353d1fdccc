"""Domain types and the analytic second-order correlation model.

Working units throughout the package: energies in ueV, times in ns,
rates in 1/ns, detunings in rad/ns (energy difference divided by hbar).
Spectral-diffusion widths are ordinary (not angular) frequencies in 1/ns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import GridTooCoarseError, ParameterError

# Reduced Planck constant in working units (ueV * ns).
HBAR_UEV_NS = 0.6582119569
# Planck constant h = 2*pi*hbar, for conversions involving ordinary frequency.
PLANCK_UEV_NS = 2.0 * math.pi * HBAR_UEV_NS
# FWHM / standard-deviation ratio of a Gaussian, 2*sqrt(2*ln 2).
GAUSSIAN_FWHM_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


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
        if not self.gamma > 0:
            raise ParameterError(f"radiative rate must be > 0, got {self.gamma}")
        if self.gamma_pd < 0:
            raise ParameterError(f"dephasing rate must be >= 0, got {self.gamma_pd}")
        if self.sigma < 0:
            raise ParameterError(f"diffusion width must be >= 0, got {self.sigma}")
        if self.intensity < 0:
            raise ParameterError(f"intensity must be >= 0, got {self.intensity}")

    @property
    def total_dephasing(self) -> float:
        """Coherence decay rate gamma/2 + gamma_pd in 1/ns."""
        return 0.5 * self.gamma + self.gamma_pd

    def shifted(self, delta_energy: float) -> "Emitter":
        """Copy of this emitter with the transition moved by ``delta_energy`` ueV."""
        return replace(self, energy=self.energy + delta_energy)


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


def _interference(t, omegas, rates, sigmas, weights):
    """Pair sum ``sum_{i!=j} w_i w_j Re[a_i conj(a_j)]`` at delays ``t >= 0``,
    ``a_i = exp(-rate_i t - 2 pi^2 sigma_i^2 t^2 + i omega_i t)``, taken as
    ``|sum_i w_i a_i|^2 - sum_i w_i^2 |a_i|^2``: O(N) work per delay and
    O(len(t)) memory. At ``omega == 0``, cos = 1 and sin = 0 exactly."""
    field_re, field_im, power = np.zeros((3,) + t.shape)
    for omega, rate, sigma, w in zip(omegas, rates, sigmas, weights):
        amplitude = w * np.exp(-rate * t - 2.0 * math.pi**2 * sigma**2 * t**2)
        power += amplitude**2
        if omega:
            field_re += amplitude * np.cos(omega * t)
            field_im += amplitude * np.sin(omega * t)
        else:
            field_re += amplitude
    return field_re**2 + field_im**2 - power


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
    where Gamma is the per-emitter coherence decay rate gamma/2 + gamma_pd.
    The pair sum is ``|sum_i a_i|^2 - sum_i |a_i|^2``, ``a_i = exp(-Gamma |tau|
    - 2 pi^2 sigma^2 tau^2 + i d_i0 tau)``, with emitter 0 as reference energy.

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
    if n < 1:
        raise ParameterError(f"emitter count must be >= 1, got {n}")
    if not gamma > 0:
        raise ParameterError(f"radiative rate must be > 0, got {gamma}")
    t = np.abs(np.asarray(tau, dtype=float))
    d = np.zeros((n, n)) if detunings is None else np.asarray(detunings, dtype=float)
    if d.shape != (n, n) or not np.abs(d - d[:, :1] + d[:, 0]).max() <= 1e-12 * np.abs(d).max():
        raise ParameterError(f"detunings must be an ({n}, {n}) matrix d_ij = omega_i - omega_j")
    pair_sum = _interference(t, d[:, 0], [total_dephasing] * n, [diffusion_sigma] * n, [1.0] * n)
    out = 1.0 - np.exp(-gamma * t) / n + pair_sum / n**2
    return out if np.ndim(tau) else float(out)


def g2_general(system: EmitterSystem, tau, coherent: bool = True):
    """g2(tau) for arbitrary rates, linewidths and intensities.

    The incoherent part is ``1 - sum_i I_i^2 exp(-gamma_i |tau|) / (sum I)^2``;
    with ``coherent`` the pairwise interference
    ``sum_{i!=j} I_i I_j Re[a_i conj(a_j)] / (sum I)^2`` is added, with
    ``a_i = exp(-(gamma_i/2 + gamma_pd_i)|tau| - 2 pi^2 sigma_i^2 tau^2
    + i (E_i - E_ref) tau / hbar)``, evaluated in O(N) per delay as
    ``|sum_i I_i a_i|^2 - sum_i I_i^2 |a_i|^2``. ``E_ref`` is the first
    emitter's energy, which keeps phases small for absolute energies near
    1.3 eV. ``coherent=False`` gives the distinguishable-emitter baseline.
    """
    t = np.abs(np.asarray(tau, dtype=float))
    weights = system.intensities
    total = weights.sum()
    if total <= 0:
        raise ParameterError("total intensity must be > 0")
    out = np.ones_like(t)
    for e, w in zip(system.emitters, weights):
        out = out - (w / total) ** 2 * np.exp(-e.gamma * t)
    if coherent and len(system) > 1:
        omegas = (system.energies - system.emitters[0].energy) / HBAR_UEV_NS
        rates, sigmas = zip(*((e.total_dephasing, e.sigma) for e in system.emitters))
        out = out + _interference(t, omegas, rates, sigmas, weights) / total**2
    return out if np.ndim(tau) else float(out)


def g2_curve(
    system: EmitterSystem,
    tau_grid: np.ndarray,
    coherent: bool = True,
    irf: Irf | None = None,
) -> G2Curve:
    """Model curve on a grid, optionally blurred by the instrument response."""
    curve = G2Curve(np.asarray(tau_grid, dtype=float), g2_general(system, tau_grid, coherent))
    if irf is not None:
        curve = convolve_irf(curve, irf)
    return curve


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

    The grid must be uniform with step <= fwhm/5. Ends are padded with the
    edge values, so a flat plateau is preserved exactly.
    """
    step = curve.step
    if step > irf.fwhm / 5.0 + 1e-12:
        raise GridTooCoarseError(
            f"grid step {step:g} ns too coarse for IRF fwhm {irf.fwhm:g} ns "
            f"(need step <= fwhm/5)"
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
