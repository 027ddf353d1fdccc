"""Forward model of measured emission spectra, and their text files.

Each emitter contributes a Voigt line: Lorentzian width from radiative
decay plus pure dephasing, Gaussian width from spectral diffusion combined
in quadrature with the instrument response. The Voigt profile is the
real part of the Faddeeva function w(z), evaluated with Weideman's 32-term
rational series (J. A. C. Weideman, "Computation of the complex error
function", SIAM J. Numer. Anal. 31, 1497-1518, 1994).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .emitters import (
    GAUSSIAN_FWHM_SIGMA,
    HBAR_UEV_NS,
    Emitter,
    EmitterSystem,
    _format_table,
    _read_table,
    fwhm_from_sigma,
)
from .errors import GridCoverageError, ParameterError
from .montecarlo import as_generator

INSTRUMENT_KINDS = ("grating", "fabry_perot")


@dataclass(frozen=True)
class Instrument:
    """Spectrometer model: a Gaussian response of fixed FWHM in ueV."""

    kind: str
    resolution_fwhm: float

    def __post_init__(self):
        if self.kind not in INSTRUMENT_KINDS:
            raise ParameterError(f"instrument kind must be one of {INSTRUMENT_KINDS}")
        if not self.resolution_fwhm > 0:
            raise ParameterError("instrument resolution must be > 0")

    @classmethod
    def grating(cls, resolution_fwhm: float = 50.0) -> "Instrument":
        return cls("grating", resolution_fwhm)

    @classmethod
    def fabry_perot(cls, resolution_fwhm: float = 2.4) -> "Instrument":
        return cls("fabry_perot", resolution_fwhm)


@dataclass(frozen=True)
class Spectrum:
    """Sampled intensity versus energy as seen through an instrument."""

    energies: np.ndarray
    intensities: np.ndarray
    instrument: Instrument

    def __post_init__(self):
        energies = np.asarray(self.energies, dtype=float)
        intensities = np.asarray(self.intensities, dtype=float)
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "intensities", intensities)
        if energies.ndim != 1 or energies.shape != intensities.shape:
            raise ParameterError("energies and intensities must be 1-d, equal length")
        for name, column in (("energies", energies), ("intensities", intensities)):
            if not np.all(np.isfinite(column)):
                raise ParameterError(f"{name} must be finite")
        if energies.size >= 2:
            steps = np.diff(energies)
            if not np.all(steps > 0):
                raise ParameterError("energy grid must be strictly increasing")
            if steps.max() > self.instrument.resolution_fwhm / 3.0 + 1e-12:
                raise ParameterError(
                    "energy grid step must be <= instrument resolution / 3"
                )
        if np.any(intensities < 0):
            raise ParameterError("intensities must be >= 0")

    @property
    def step(self) -> float:
        return float(self.energies[1] - self.energies[0])


def lorentzian_fwhm(gamma: float, gamma_pd: float) -> float:
    """Homogeneous linewidth 2 hbar (gamma/2 + gamma_pd) in ueV."""
    return 2.0 * HBAR_UEV_NS * (0.5 * gamma + gamma_pd)


def line_fwhm(gamma: float, gamma_pd: float, sigma: float, instrument_fwhm: float = 0.0) -> float:
    """Approximate total Voigt FWHM of one line through an instrument."""
    f_lor = lorentzian_fwhm(gamma, gamma_pd)
    f_gauss = np.hypot(fwhm_from_sigma(sigma), instrument_fwhm)
    return 0.5346 * f_lor + np.sqrt(0.2166 * f_lor**2 + f_gauss**2)


def _weideman_series(n_terms: int):
    """Weideman's scale L and his polynomial's coefficients, highest power first.

    The coefficients are the cosine transform of f(t) = exp(-t^2) (L^2 + t^2)
    on t = L tan(theta/2), sampled at theta = k pi / 2N: the FFT of Weideman's
    paper, written out because the samples are even in k. Plain floats, so
    importing this module runs no numpy kernel.
    """
    m = 2 * n_terms
    scale = math.sqrt(n_terms / math.sqrt(2.0))
    t = [scale * math.tan(0.5 * math.pi * k / m) for k in range(1, m)]
    f = [math.exp(-tk * tk) * (scale * scale + tk * tk) for tk in t]
    coeffs = []
    for n in range(n_terms, 0, -1):
        cosines = (fk * math.cos(math.pi * n * k / m) for k, fk in enumerate(f, 1))
        coeffs.append((scale * scale + 2.0 * math.fsum(cosines)) / (2 * m))
    return scale, coeffs


_WEIDEMAN_L, _WEIDEMAN_COEFFS = _weideman_series(32)


def _voigt(x, sigma: float, hwhm: float) -> np.ndarray:
    """Voigt profile (unit area) of Gaussian ``sigma`` and Lorentzian ``hwhm``.

    Re w(z) / (sigma sqrt(2 pi)) at z = (x + i hwhm) / (sigma sqrt 2), with
    w(z) = 2 p(Z) / (L - i z)^2 + 1 / (sqrt(pi) (L - i z)) and p a polynomial
    in Z = (L + i z) / (L - i z). It holds for Im z >= 0, so for any
    sigma > 0 and hwhm >= 0; within 4e-14 of the peak of
    ``scipy.special.voigt_profile`` over the widths the toolkit uses.
    """
    scale = sigma * math.sqrt(2.0)
    r = np.empty(np.shape(x), dtype=complex)  # L - i z, then its reciprocal
    r.real = _WEIDEMAN_L + hwhm / scale
    np.divide(x, -scale, out=r.imag)
    np.reciprocal(r, out=r)
    z = r * (2.0 * _WEIDEMAN_L)
    z -= 1.0
    w = z * _WEIDEMAN_COEFFS[0]  # Horner's rule in one buffer
    w += _WEIDEMAN_COEFFS[1]
    for c in _WEIDEMAN_COEFFS[2:]:
        w *= z
        w += c
    w *= 2.0 * r
    w += 1.0 / math.sqrt(math.pi)
    w *= r
    return w.real / (scale * math.sqrt(math.pi))


# A scan grid must span every line center by this many linewidths each side.
COVERAGE_LINEWIDTHS = 10.0


def coverage_half_width(emitter: Emitter, instrument: Instrument, play: float = 0.0) -> float:
    """Half-width (ueV) of the grid :func:`synth_spectrum` needs around one line.

    That is +-10 linewidths of the line through the instrument, plus
    ``play`` further linewidths of room for the line to sit off center.
    """
    width = line_fwhm(emitter.gamma, emitter.gamma_pd, emitter.sigma, instrument.resolution_fwhm)
    return float((COVERAGE_LINEWIDTHS + play) * width)


def synth_spectrum(
    system: EmitterSystem,
    instrument: Instrument,
    grid,
    noise_snr: float = np.inf,
    rng=None,
) -> Spectrum:
    """Synthesize the measured spectrum of a system.

    ``noise_snr`` is the ratio of the peak intensity to the additive
    Gaussian noise level; infinite means noiseless. The grid must cover
    every line center by +-10 linewidths (:func:`coverage_half_width`).
    """
    grid = np.asarray(grid, dtype=float)
    for e in system.emitters:
        half = coverage_half_width(e, instrument)
        if grid[0] > e.energy - half or grid[-1] < e.energy + half:
            raise GridCoverageError(
                f"grid [{grid[0]:g}, {grid[-1]:g}] ueV does not cover the line at "
                f"{e.energy:g} ueV by +-{COVERAGE_LINEWIDTHS:g} linewidths "
                f"({half / COVERAGE_LINEWIDTHS:g} ueV)"
            )
    intensity = np.zeros_like(grid)
    for e in system.emitters:
        gauss_sigma = (
            np.hypot(fwhm_from_sigma(e.sigma), instrument.resolution_fwhm)
            / GAUSSIAN_FWHM_SIGMA
        )
        hwhm = 0.5 * lorentzian_fwhm(e.gamma, e.gamma_pd)
        intensity += e.intensity * _voigt(grid - e.energy, gauss_sigma, hwhm)
    if np.isfinite(noise_snr):
        if noise_snr <= 0:
            raise ParameterError(f"noise SNR must be > 0, got {noise_snr}")
        gen = as_generator(rng)
        intensity = intensity + gen.normal(0.0, intensity.max() / noise_snr, grid.size)
        intensity = np.maximum(intensity, 0.0)
    return Spectrum(grid, intensity, instrument)


def write_spectrum(path, spectrum: Spectrum) -> None:
    """Write a spectrum as delimited text (energy_ueV, intensity)."""
    resolution = f"# resolution_fwhm_ueV = {spectrum.instrument.resolution_fwhm:.10g}"
    lines = [f"# instrument = {spectrum.instrument.kind}", resolution, "# energy_ueV\tintensity"]
    columns = (spectrum.energies, spectrum.intensities)
    Path(path).write_text(_format_table(lines, "%.10g\t%.10g", columns))


def read_spectrum(path) -> Spectrum:
    """Read a spectrum written by :func:`write_spectrum`."""
    meta, data = _read_table(path, "spectrum")
    try:  # the header values, and the spectrum they describe
        instrument = Instrument(
            meta.get("instrument", "grating"),
            float(meta.get("resolution_fwhm_ueV", 50.0)),
        )
        return Spectrum(data[:, 0], data[:, 1], instrument)
    except ValueError as err:
        raise ParameterError(f"spectrum file {path}: {err}") from err
