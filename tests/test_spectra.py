"""Spectrum forward model, instruments, ensemble statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import voigt_profile

import dotkit as dk
from dotkit import spectra
from dotkit.spectra import _voigt, _weideman_series, line_fwhm, lorentzian_fwhm

from conftest import REF_GAMMA, REF_GAMMA_PD, REF_SIGMA

CENTER = 1_300_000.0  # ueV, typical InAs transition scale


def single_line_system(energy=CENTER):
    return dk.EmitterSystem(
        (dk.Emitter(energy=energy, gamma=REF_GAMMA, gamma_pd=REF_GAMMA_PD, sigma=REF_SIGMA),)
    )


class TestInstrument:
    def test_defaults(self):
        assert dk.Instrument.grating().resolution_fwhm == 50.0
        assert dk.Instrument.fabry_perot().resolution_fwhm == 2.4

    def test_validation(self):
        with pytest.raises(dk.ParameterError):
            dk.Instrument("prism", 1.0)
        with pytest.raises(dk.ParameterError):
            dk.Instrument("grating", 0.0)

    def test_spectrum_grid_step_limit(self):
        grid = np.arange(0.0, 100.0, 2.0)  # step 2 > 2.4/3
        with pytest.raises(dk.ParameterError):
            dk.Spectrum(grid, np.ones_like(grid), dk.Instrument.fabry_perot())


class TestSynthSpectrum:
    def test_noiseless_peak_at_line_center(self):
        # The instrument response never moves an isolated symmetric line.
        grid = np.arange(CENTER - 300.0, CENTER + 300.0, 0.5)
        spectrum = dk.synth_spectrum(single_line_system(), dk.Instrument.fabry_perot(), grid)
        assert grid[np.argmax(spectrum.intensities)] == pytest.approx(CENTER, abs=0.5)
        wide = np.arange(CENTER - 2000.0, CENTER + 2000.0, 10.0)
        coarse = dk.synth_spectrum(single_line_system(), dk.Instrument.grating(), wide)
        assert wide[np.argmax(coarse.intensities)] == pytest.approx(CENTER, abs=10.0)

    def test_total_linewidth_through_interferometer(self):
        # Lorentzian 2*hbar*(gamma/2 + gamma_pd) = 3.75 ueV; Gaussian
        # sqrt(9.74^2 + 2.4^2) = 10.0 ueV; Voigt total ~= 12 ueV.
        assert lorentzian_fwhm(REF_GAMMA, REF_GAMMA_PD) == pytest.approx(3.752, abs=0.002)
        total = line_fwhm(REF_GAMMA, REF_GAMMA_PD, REF_SIGMA, 2.4)
        assert total == pytest.approx(12.0, abs=0.5)
        grid = np.arange(CENTER - 300.0, CENTER + 300.0, 0.5)
        spectrum = dk.synth_spectrum(single_line_system(), dk.Instrument.fabry_perot(), grid)
        y = spectrum.intensities
        above = grid[y >= 0.5 * y.max()]
        assert above[-1] - above[0] == pytest.approx(total, abs=0.7)

    def test_grid_coverage_enforced(self):
        grid = np.arange(CENTER - 20.0, CENTER + 20.0, 0.5)
        with pytest.raises(dk.GridCoverageError):
            dk.synth_spectrum(single_line_system(), dk.Instrument.fabry_perot(), grid)

    def test_resolved_pair_and_grating_merge(self):
        # 540 ueV apart: resolved by the interferometer; two lines 30 ueV
        # apart merge through the 50 ueV grating.
        from scipy.signal import find_peaks

        pair = dk.EmitterSystem(
            (
                dk.Emitter(CENTER, REF_GAMMA, REF_GAMMA_PD, REF_SIGMA),
                dk.Emitter(CENTER + 540.0, REF_GAMMA, REF_GAMMA_PD, REF_SIGMA),
            )
        )
        grid = np.arange(CENTER - 400.0, CENTER + 940.0, 0.5)
        through_fp = dk.synth_spectrum(pair, dk.Instrument.fabry_perot(), grid)
        peaks_fp, _ = find_peaks(through_fp.intensities, prominence=0.2 * through_fp.intensities.max())
        assert peaks_fp.size == 2

        close = dk.EmitterSystem(
            (
                dk.Emitter(CENTER, REF_GAMMA, REF_GAMMA_PD, REF_SIGMA),
                dk.Emitter(CENTER + 30.0, REF_GAMMA, REF_GAMMA_PD, REF_SIGMA),
            )
        )
        gridw = np.arange(CENTER - 800.0, CENTER + 830.0, 10.0)
        through_grating = dk.synth_spectrum(close, dk.Instrument.grating(), gridw)
        peaks_gr, _ = find_peaks(
            through_grating.intensities, prominence=0.1 * through_grating.intensities.max()
        )
        assert peaks_gr.size == 1

    def test_area_independent_of_instrument(self):
        system = single_line_system()
        fine = np.arange(CENTER - 500.0, CENTER + 500.0, 0.5)
        wide = np.arange(CENTER - 5000.0, CENTER + 5000.0, 10.0)
        area_fp = np.trapezoid(
            dk.synth_spectrum(system, dk.Instrument.fabry_perot(), fine).intensities, dx=0.5
        )
        area_gr = np.trapezoid(
            dk.synth_spectrum(system, dk.Instrument.grating(), wide).intensities, dx=10.0
        )
        assert area_gr == pytest.approx(area_fp, rel=0.005)

    def test_noiseless_spectrum_even_around_line(self):
        grid = np.arange(CENTER - 256.0, CENTER + 256.5, 0.5)
        spectrum = dk.synth_spectrum(single_line_system(), dk.Instrument.fabry_perot(), grid)
        y = spectrum.intensities
        np.testing.assert_allclose(y, y[::-1], rtol=1e-10)

    def test_noise_is_seeded_and_clipped(self):
        grid = np.arange(CENTER - 300.0, CENTER + 300.0, 0.5)
        a = dk.synth_spectrum(
            single_line_system(), dk.Instrument.fabry_perot(), grid, 20.0, dk.RngSeed(3)
        )
        b = dk.synth_spectrum(
            single_line_system(), dk.Instrument.fabry_perot(), grid, 20.0, dk.RngSeed(3)
        )
        assert np.array_equal(a.intensities, b.intensities)
        assert np.all(a.intensities >= 0)


# Gaussian sigma and Lorentzian HWHM (ueV) that synth_spectrum meets: emitter
# diffusion in quadrature with a 2.4 ueV Fabry-Perot or a 50 ueV grating
# (sigma 1.02 and 21.2 ueV), and linewidths from near-lifetime-limited up.
VOIGT_SIGMA = (0.5, 42.5)
VOIGT_HWHM = (0.01, 20.0)
# Offsets out to 6 meV: before/after spectra hold lines up to 5 meV apart,
# so each line is also evaluated in the far tails, under its neighbours.
VOIGT_OFFSETS = np.linspace(-6000.0, 6000.0, 24001)
# Largest allowed |_voigt - scipy's voigt_profile|, relative to the peak.
VOIGT_TOLERANCE = 1e-13


def voigt_error(sigma, hwhm, shift=0.0):
    x = VOIGT_OFFSETS + shift
    reference = voigt_profile(x, sigma, hwhm)
    return np.max(np.abs(_voigt(x, sigma, hwhm) - reference)) / voigt_profile(0.0, sigma, hwhm)


class TestVoigt:
    """The numpy Weideman series against scipy's Voigt profile."""

    @settings(max_examples=100, deadline=None)
    @given(
        sigma=st.floats(*VOIGT_SIGMA),
        hwhm=st.floats(*VOIGT_HWHM),
        shift=st.floats(0.0, 0.5),
    )
    def test_matches_scipy(self, sigma, hwhm, shift):
        assert voigt_error(sigma, hwhm, shift) <= VOIGT_TOLERANCE

    @pytest.mark.parametrize("sigma, hwhm", [(4.26, 2.11), (1.02, 0.01), (42.5, 20.0)])
    def test_catches_a_24_term_series(self, monkeypatch, sigma, hwhm):
        # Weideman's series with 24 terms is off by ~1e-11 of the peak; the
        # tolerance above must tell it from the 32-term one.
        scale, coeffs = _weideman_series(24)
        monkeypatch.setattr(spectra, "_WEIDEMAN_L", scale)
        monkeypatch.setattr(spectra, "_WEIDEMAN_COEFFS", coeffs)
        assert voigt_error(sigma, hwhm) > 10 * VOIGT_TOLERANCE

    @pytest.mark.parametrize("sigma, hwhm", [(0.5, 0.01), (4.26, 2.11), (42.5, 20.0)])
    def test_unit_area(self, sigma, hwhm):
        # Trapezoid sum on +-X = +-30 meV plus the tails beyond: the
        # Lorentzian's (2/pi) arctan(hwhm / X), and (2/pi) hwhm sigma^2 / X^3
        # from its Gaussian blur; what is left is O(X^-5).
        x, step = np.linspace(-30_000.0, 30_000.0, 240_001, retstep=True)
        tails = 2.0 / np.pi * (np.arctan(hwhm / x[-1]) + hwhm * sigma**2 / x[-1] ** 3)
        area = np.trapezoid(_voigt(x, sigma, hwhm), dx=step) + tails
        assert area == pytest.approx(1.0, abs=1e-13)


class TestSampleEnsemble:
    def test_chance_resonance_is_negligible(self):
        # Among 20 draws from the inhomogeneous line, almost no pair falls
        # within 10 ueV: direct estimate over many ensembles.
        gen = dk.RngSeed(13).generator()
        close = 0
        total = 0
        for _ in range(300):
            draws = np.sort(gen.normal(CENTER, 30_000.0 / dk.GAUSSIAN_FWHM_SIGMA, 20))
            diffs = draws[:, None] - draws[None, :]
            close += np.count_nonzero(np.abs(diffs[np.triu_indices(20, 1)]) <= 10.0)
            total += 190
        assert close / total < 0.01


class TestSpectrumIo:
    def test_round_trip(self, tmp_path):
        grid = np.arange(CENTER - 300.0, CENTER + 300.0, 0.5)
        spectrum = dk.synth_spectrum(single_line_system(), dk.Instrument.fabry_perot(), grid)
        path = tmp_path / "spec.tsv"
        dk.write_spectrum(path, spectrum)
        back = dk.read_spectrum(path)
        np.testing.assert_allclose(back.energies, spectrum.energies)
        np.testing.assert_allclose(back.intensities, spectrum.intensities, rtol=1e-9)
        assert back.instrument == spectrum.instrument


class TestNonFinite:
    """A spectrum is finite, so no fit sees a NaN or an infinity."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["energies", "intensities"])
    def test_rejected_naming_the_column(self, bad, column):
        columns = {"energies": np.arange(0.0, 60.0, 0.5), "intensities": np.ones(120)}
        columns[column][7] = bad
        with pytest.raises(dk.ParameterError, match=f"^{column} must be finite"):
            dk.Spectrum(columns["energies"], columns["intensities"], dk.Instrument.fabry_perot())

    def test_read_spectrum_rejects_nan(self, tmp_path):
        path = tmp_path / "spec.tsv"
        rows = "".join(f"{0.5 * k:g}\t{'nan' if k == 3 else 1.0}\n" for k in range(40))
        path.write_text("# instrument = fabry_perot\n# resolution_fwhm_ueV = 2.4\n" + rows)
        with pytest.raises(dk.ParameterError, match="spec.tsv: intensities must be finite"):
            dk.read_spectrum(path)
