"""Analytic g2 model: domain types, identities, convolution, conversions."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import dotkit as dk
from dotkit import HBAR_UEV_NS

from conftest import REF_GAMMA, REF_GAMMA_PD, REF_SIGMA, pair_factor


class TestEmitterTypes:
    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(dk.ParameterError):
            dk.Emitter(energy=0.0, gamma=0.0)
        with pytest.raises(dk.ParameterError):
            dk.Emitter(energy=0.0, gamma=-1.0)

    def test_rejects_negative_rates(self):
        with pytest.raises(dk.ParameterError):
            dk.Emitter(energy=0.0, gamma=1.0, gamma_pd=-0.1)
        with pytest.raises(dk.ParameterError):
            dk.Emitter(energy=0.0, gamma=1.0, sigma=-0.1)
        with pytest.raises(dk.ParameterError):
            dk.Emitter(energy=0.0, gamma=1.0, intensity=-1.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("energy", math.nan),
            ("gamma", math.inf),
            ("gamma_pd", math.nan),
            ("sigma", math.inf),
            ("intensity", math.nan),
            ("position", -math.inf),
        ],
    )
    def test_rejects_non_finite_field(self, name, value):
        fields = {"energy": 0.0, "gamma": 1.0, name: value}
        with pytest.raises(dk.ParameterError, match=f"emitter {name} must be finite"):
            dk.Emitter(**fields)

    def test_total_dephasing(self):
        e = dk.Emitter(energy=0.0, gamma=REF_GAMMA, gamma_pd=REF_GAMMA_PD)
        assert e.total_dephasing == pytest.approx(0.35 + 2.5)
        assert e.total_dephasing > 0

    def test_system_needs_intensity(self):
        e = dk.Emitter(energy=0.0, gamma=1.0, intensity=0.0)
        with pytest.raises(dk.ParameterError):
            dk.EmitterSystem((e,))

    def test_curve_grid_must_increase(self):
        with pytest.raises(dk.ParameterError):
            dk.G2Curve(np.array([0.0, 0.0, 1.0]), np.zeros(3))

    @pytest.mark.parametrize("delays", [[0.0, math.inf], [-math.inf, 0.0], [math.inf], [math.nan]])
    def test_curve_delays_must_be_finite(self, delays):
        with pytest.raises(dk.ParameterError, match="delays must be finite"):
            dk.G2Curve(delays, np.ones(len(delays)))

    @pytest.mark.parametrize("fwhm", [0.0, -0.1, math.inf, math.nan])
    def test_irf_fwhm_must_be_finite_and_positive(self, fwhm):
        with pytest.raises(dk.ParameterError, match="IRF fwhm"):
            dk.Irf(fwhm)


class TestPairCoupling:
    """The closed-form pair factor that the Monte Carlo pair checks aim at."""

    TAU = np.linspace(-0.5, 0.5, 21)

    def test_reference_rates(self):
        # Gamma_ij = (0.7 + 0.7)/2 + (2.5 + 2.5) = 5.7 1/ns
        e = dk.Emitter(energy=0.0, gamma=REF_GAMMA, gamma_pd=REF_GAMMA_PD)
        assert pair_factor(e, e, self.TAU) == pytest.approx(np.exp(-5.7 * np.abs(self.TAU)))

    def test_resonant_pair_has_zero_detuning(self):
        e = dk.Emitter(energy=123.0, gamma=1.0)
        assert np.array_equal(pair_factor(e, e, self.TAU), np.exp(-np.abs(self.TAU)))

    def test_detuning_from_energy_difference(self):
        # Oracle: delta = E/hbar; 46 ueV -> 69.886 rad/ns, period ~90 ps,
        # faster than the 100 ps timing resolution.
        e_hi = dk.Emitter(energy=46.0, gamma=1.0)
        e_lo = dk.Emitter(energy=0.0, gamma=1.0)
        delta = 46.0 / HBAR_UEV_NS
        assert delta == pytest.approx(69.886, rel=1e-4)
        period = 2 * math.pi / delta
        assert pair_factor(e_hi, e_lo, period) == pytest.approx(math.exp(-period))
        assert pair_factor(e_hi, e_lo, period / 2) == pytest.approx(-math.exp(-period / 2))
        assert period < 0.1

    def test_antisymmetry(self):
        # delta_ij = -delta_ji, so swapping the emitters leaves the factor as is.
        e_hi = dk.Emitter(energy=10.0, gamma=1.0)
        e_lo = dk.Emitter(energy=-5.0, gamma=2.0)
        t = self.TAU
        assert np.array_equal(pair_factor(e_hi, e_lo, t), pair_factor(e_lo, e_hi, t))

    def test_identical_pair_reduces_to_single_emitter_rates(self):
        e = dk.Emitter(energy=0.0, gamma=REF_GAMMA, gamma_pd=REF_GAMMA_PD, sigma=REF_SIGMA)
        t = self.TAU
        single = np.exp(-e.total_dephasing * np.abs(t) - 2 * math.pi**2 * e.sigma**2 * t**2)
        assert pair_factor(e, e, t) == pytest.approx(single**2)

    def test_equals_coherent_excess_of_g2_kernel(self):
        # g2 = incoherent part + 2 I_i I_j / (I_i + I_j)^2 x the pair factor.
        e_i = dk.Emitter(energy=30.0, gamma=1.9, gamma_pd=2.5, sigma=1.0, intensity=1.0)
        e_j = dk.Emitter(energy=-16.0, gamma=0.8, gamma_pd=3.5, sigma=1.6, intensity=2.5)
        pair = dk.EmitterSystem((e_i, e_j))
        tau = np.linspace(-3.0, 3.0, 61)
        excess = dk.g2_general(pair, tau) - dk.g2_general(pair, tau, coherent=False)
        scale = (e_i.intensity + e_j.intensity) ** 2 / (2 * e_i.intensity * e_j.intensity)
        np.testing.assert_allclose(pair_factor(e_i, e_j, tau), excess * scale, rtol=0, atol=1e-12)


class TestG2Ideal:
    def test_two_emitter_peak(self):
        assert dk.g2_ideal(0.0, 2, REF_GAMMA, 2.85, REF_SIGMA) == pytest.approx(1.0, abs=1e-12)

    def test_three_emitter_peak(self):
        assert dk.g2_ideal(0.0, 3, REF_GAMMA, 2.85, REF_SIGMA) == pytest.approx(4 / 3, abs=1e-12)

    def test_single_emitter_antibunching(self):
        assert dk.g2_ideal(0.0, 1, 1.0, 0.5, 0.0) == 0.0

    def test_uncorrelated_plateau(self):
        for n in (1, 2, 3):
            assert dk.g2_ideal(50.0, n, 1.0, 2.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_superradiant_peak_identity(self, n):
        # g2(0) = 2(1 - 1/N) for any resonant ensemble
        assert dk.g2_ideal(0.0, n, 1.0, 3.0, 1.0) == pytest.approx(2 * (1 - 1 / n), abs=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(dk.ParameterError):
            dk.g2_ideal(0.0, 0, 1.0, 1.0, 0.0)
        with pytest.raises(dk.ParameterError):
            dk.g2_ideal(0.0, 2, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "n, gamma, total_dephasing, diffusion_sigma, message",
        [
            (2.5, 1.0, 1.0, 0.0, "emitter count must be a whole number"),
            ("2", 1.0, 1.0, 0.0, "emitter count must be a whole number"),
            (2, math.inf, 1.0, 0.0, "radiative rate"),
            (2, math.nan, 1.0, 0.0, "radiative rate"),
            (2, 1.0, -1.0, 0.0, "total_dephasing"),
            (2, 1.0, math.nan, 0.0, "total_dephasing"),
            (2, 1.0, math.inf, 0.0, "total_dephasing"),
            (2, 1.0, 1.0, -0.1, "diffusion_sigma"),
            (2, 1.0, 1.0, math.nan, "diffusion_sigma"),
            (2, 1.0, 1.0, math.inf, "diffusion_sigma"),
        ],
    )
    def test_rejects_bad_arguments(self, n, gamma, total_dephasing, diffusion_sigma, message):
        # A negative coherence rate would make the pair term grow as exp(|rate| tau).
        with pytest.raises(dk.ParameterError, match=message):
            dk.g2_ideal(0.5, n, gamma, total_dephasing, diffusion_sigma)

    def test_whole_float_count_and_slow_coherence_accepted(self):
        # A whole float counts as n; a coherence rate below gamma/2 is a
        # valid (if unphysical) input, which the detuned-reference tests draw.
        assert dk.g2_ideal(0.5, 2.0, 1.0, 3.0, 1.0) == dk.g2_ideal(0.5, 2, 1.0, 3.0, 1.0)
        assert math.isfinite(dk.g2_ideal(0.5, 2, 4.0, 0.5, 0.0))

    def test_even_in_tau(self):
        tau = np.linspace(0.0, 3.0, 31)
        d = np.array([[0.0, 30.0], [-30.0, 0.0]])
        plus = dk.g2_ideal(tau, 2, 0.7, 2.85, 1.0, d)
        minus = dk.g2_ideal(-tau, 2, 0.7, 2.85, 1.0, d)
        np.testing.assert_allclose(plus, minus, atol=1e-14)


class TestG2General:
    def test_reduces_to_ideal_for_identical_emitters(self, resonant_pair):
        tau = np.linspace(-4.0, 4.0, 257)
        ideal = dk.g2_ideal(tau, 2, REF_GAMMA, 0.35 + REF_GAMMA_PD, REF_SIGMA)
        np.testing.assert_allclose(dk.g2_general(resonant_pair, tau), ideal, atol=1e-12)

    def test_three_emitter_distinguishable_baseline(self):
        trio = dk.identical_system(3, 1.4, REF_GAMMA_PD, REF_SIGMA)
        assert dk.g2_general(trio, 0.0, coherent=False) == pytest.approx(2 / 3, abs=1e-12)

    def test_unequal_intensities(self):
        # Hand evaluation for I = (2, 1) resonant at tau = 0:
        # incoherent 1 - (4+1)/9 = 4/9, coherent 2*2*1/9 = 4/9 -> 8/9;
        # both the dip and the peak shrink against the equal-I case.
        pair = dk.identical_system(2, REF_GAMMA, REF_GAMMA_PD, REF_SIGMA, intensities=[2, 1])
        assert dk.g2_general(pair, 0.0) == pytest.approx(8 / 9, abs=1e-12)
        assert dk.g2_general(pair, 0.0, coherent=False) == pytest.approx(4 / 9, abs=1e-12)
        equal = dk.identical_system(2, REF_GAMMA, REF_GAMMA_PD, REF_SIGMA)
        assert dk.g2_general(pair, 0.0, coherent=False) < dk.g2_general(equal, 0.0, coherent=False)

    def test_coherent_off_is_half_of_resonant_peak(self):
        for intensities in ([1, 1, 1], [2, 1, 1], [3, 2, 1]):
            system = dk.identical_system(3, 1.0, 2.0, 0.5, intensities=intensities)
            on = dk.g2_general(system, 0.0, coherent=True)
            off = dk.g2_general(system, 0.0, coherent=False)
            assert on == pytest.approx(2 * off, abs=1e-12)

    def test_long_delay_plateau(self):
        system = dk.identical_system(3, 1.0, 2.0, 0.5, spacing_uev=20.0, intensities=[2, 1, 1])
        assert dk.g2_general(system, 80.0) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        system = dk.identical_system(3, 1.0, 2.0, 0.5, spacing_uev=33.0, intensities=[2, 1, 3])
        tau = np.linspace(0.0, 5.0, 101)
        np.testing.assert_allclose(
            dk.g2_general(system, tau), dk.g2_general(system, -tau), atol=1e-14
        )

    def test_intensity_scaling_invariance(self):
        tau = np.linspace(-3.0, 3.0, 61)
        a = dk.identical_system(2, 0.7, 2.5, 1.0, spacing_uev=20.0, intensities=[2, 1])
        b = dk.identical_system(2, 0.7, 2.5, 1.0, spacing_uev=20.0, intensities=[14, 7])
        np.testing.assert_allclose(dk.g2_general(a, tau), dk.g2_general(b, tau), atol=1e-12)

    def test_zero_total_intensity_rejected(self):
        with pytest.raises(dk.ParameterError):
            dk.identical_system(2, 1.0, intensities=[0.0, 0.0])


class TestConvolveIrf:
    def test_flat_curve_unchanged(self, irf_100ps, fine_grid):
        flat = dk.G2Curve(fine_grid, np.ones_like(fine_grid))
        out = dk.convolve_irf(flat, irf_100ps)
        np.testing.assert_allclose(out.values, 1.0, atol=1e-12)

    def test_grid_too_coarse(self, irf_100ps):
        grid = np.arange(-2.0, 2.0, 0.05)  # step > fwhm/5
        curve = dk.G2Curve(grid, np.ones_like(grid))
        with pytest.raises(dk.GridTooCoarseError):
            dk.convolve_irf(curve, irf_100ps)

    @pytest.mark.parametrize("factor, fits", [(0.999, True), (1.001, False)])
    def test_kernel_must_fit_in_the_span(self, factor, fits):
        # A 601-point, 6 ns grid holds a kernel of +-600 steps: 6 sigma <= 6 ns.
        grid = np.linspace(-3.0, 3.0, 601)
        curve = dk.G2Curve(grid, np.ones_like(grid))
        irf = dk.Irf(factor * dk.GAUSSIAN_FWHM_SIGMA)  # sigma = factor ns
        if fits:
            np.testing.assert_allclose(dk.convolve_irf(curve, irf).values, 1.0, atol=1e-12)
        else:
            with pytest.raises(dk.GridCoverageError, match="must fit in the span"):
                dk.convolve_irf(curve, irf)

    def test_resonant_pair_peak_against_quadrature(self, resonant_pair, irf_100ps, fine_grid):
        # Independent oracle: direct quadrature of the Gaussian blur at tau=0.
        sigma = irf_100ps.sigma

        def blurred_at_zero():
            def integrand(t):
                return (
                    dk.g2_general(resonant_pair, t)
                    * math.exp(-0.5 * (t / sigma) ** 2)
                    / (sigma * math.sqrt(2 * math.pi))
                )

            return quad(integrand, -1.0, 1.0, limit=200)[0]

        oracle = blurred_at_zero()
        assert oracle == pytest.approx(0.9056, abs=2e-3)  # frozen from the oracle
        curve = dk.G2Curve(fine_grid, dk.g2_general(resonant_pair, fine_grid))
        out = dk.convolve_irf(curve, irf_100ps)
        peak = out.values[np.argmin(np.abs(fine_grid))]
        assert peak == pytest.approx(oracle, abs=1e-3)
        assert 0.90 <= peak <= 1.00

    def test_large_detuning_washed_out(self, irf_100ps, fine_grid):
        # 46 ueV detuning oscillates ~90 ps, below the timing resolution.
        pair = dk.identical_system(2, REF_GAMMA, REF_GAMMA_PD, REF_SIGMA, spacing_uev=46.0)
        on = dk.convolve_irf(dk.G2Curve(fine_grid, dk.g2_general(pair, fine_grid)), irf_100ps)
        off = dk.convolve_irf(
            dk.G2Curve(fine_grid, dk.g2_general(pair, fine_grid, coherent=False)), irf_100ps
        )
        i0 = np.argmin(np.abs(fine_grid))
        assert on.values[i0] - off.values[i0] <= 0.05

    def test_area_preserved(self, resonant_pair, irf_100ps, fine_grid):
        curve = dk.G2Curve(fine_grid, dk.g2_general(resonant_pair, fine_grid))
        out = dk.convolve_irf(curve, irf_100ps)
        window = np.abs(fine_grid) <= 4.0  # much wider than the 0.1 ns fwhm
        before = np.trapezoid(curve.values[window], fine_grid[window])
        after = np.trapezoid(out.values[window], fine_grid[window])
        assert after == pytest.approx(before, rel=1e-3)


class TestLinewidthConversions:
    def test_diffusion_linewidth(self):
        # 2 sqrt(2 ln 2) h sigma at sigma = 1/ns: 9.74, rounds to 10 ueV
        assert dk.fwhm_from_sigma(REF_SIGMA) == pytest.approx(9.7388, rel=1e-4)
        assert dk.fwhm_from_sigma(REF_SIGMA) == pytest.approx(10.0, rel=0.03)

    def test_dephasing_linewidth(self):
        # 2 hbar gamma_pd at 2.5/ns: 3.29, rounds to 3 ueV
        assert dk.fwhm_from_dephasing(REF_GAMMA_PD) == pytest.approx(
            2 * HBAR_UEV_NS * REF_GAMMA_PD, rel=1e-12
        )
        assert dk.fwhm_from_dephasing(REF_GAMMA_PD) == pytest.approx(3.29, abs=0.01)

    def test_zero(self):
        assert dk.fwhm_from_sigma(0.0) == 0.0
        assert dk.fwhm_from_dephasing(0.0) == 0.0


class TestCurveIo:
    def test_round_trip(self, tmp_path):
        curve = dk.G2Curve(
            np.linspace(-1, 1, 11), np.linspace(0, 2, 11), np.full(11, 0.1)
        )
        path = tmp_path / "curve.tsv"
        dk.write_curve(path, curve, header=["demo"])
        back = dk.read_curve(path)
        np.testing.assert_allclose(back.delays, curve.delays)
        np.testing.assert_allclose(back.values, curve.values)
        np.testing.assert_allclose(back.errors, curve.errors)


ROWS = "0.0\t1\n0.02\t5\n"
MALFORMED = {
    "bad cell": "0.0\t1\n0.02\tabc\n",
    "ragged row": ROWS + "0.04\t5\t7\n",
    "one column": "0.0\n0.02\n",
    "fractional count": "0.0\t1.5\n0.02\t5\n",
    "uneven bins": ROWS + "0.05\t7\n",
    "repeated centers": "0.0\t1\n0.0\t5\n",
    "falling centers": "0.02\t1\n0.0\t5\n",
    "bad seed": "# seed = one\n" + ROWS,
    "infinite window": "# normalization_window_ns = 5 inf\n" + ROWS,
    "bad resolution": "# resolution_fwhm_ueV = wide\n" + ROWS,
    "infinite delay": ROWS + "inf\t1\n",
    "infinite value": ROWS + "0.04\tinf\n",
}
CASES = [
    (reader, name)
    for reader in ("curve", "histogram", "spectrum")
    for name in ("bad cell", "ragged row", "one column", "infinite delay", "infinite value")
] + [
    ("histogram", "fractional count"),
    ("histogram", "uneven bins"),
    ("histogram", "repeated centers"),
    ("histogram", "falling centers"),
    ("histogram", "bad seed"),
    ("histogram", "infinite window"),
    ("spectrum", "bad resolution"),
]


@pytest.mark.parametrize("reader,name", CASES, ids=[f"{r}-{n}" for r, n in CASES])
def test_malformed_table_file_is_parameter_error(tmp_path, reader, name):
    """Every table reader turns a malformed file into one ParameterError naming it."""
    path = tmp_path / "table.tsv"
    path.write_text(MALFORMED[name])
    with pytest.raises(dk.ParameterError, match="table.tsv"):
        getattr(dk, f"read_{reader}")(path)
