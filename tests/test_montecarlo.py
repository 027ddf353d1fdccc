"""Trajectory oracle and coincidence generator."""

import math

import numpy as np
import pytest
from scipy.stats import chi2, chisquare

import dotkit as dk
import mc_reference
from dotkit import montecarlo
from dotkit.montecarlo import _bin_law

from conftest import REF_GAMMA, REF_GAMMA_PD, REF_SIGMA, mc_pair_factor, pair_factor


class TestCoherencePair:
    """The pair-coherence factor as ``mc_g2`` samples it on two emitters."""

    def test_deterministic_limit(self):
        # No dephasing, no diffusion: exact exponential with zero variance.
        e = dk.Emitter(energy=0.0, gamma=REF_GAMMA)
        mean, err = mc_pair_factor(e, e, 0.5, 500, dk.RngSeed(0))
        assert mean == pytest.approx(math.exp(-REF_GAMMA * 0.5), rel=1e-12)
        assert err == 0.0

    def test_reference_parameters_against_closed_form(self):
        # exp(-0.57 - 0.3948) = 0.3811 at tau = 0.1 ns
        e = dk.Emitter(energy=0.0, gamma=REF_GAMMA, gamma_pd=REF_GAMMA_PD, sigma=REF_SIGMA)
        target = pair_factor(e, e, 0.1)
        assert target == pytest.approx(0.381065, abs=1e-5)
        mean, err = mc_pair_factor(e, e, 0.1, 100_000, dk.RngSeed(1))
        assert abs(mean - target) <= 3 * err
        assert err < 0.01

    def test_zero_delay_exact(self):
        e = dk.Emitter(energy=40.0, gamma=2.0, gamma_pd=3.0, sigma=2.0)
        mean, err = mc_pair_factor(e, e, 0.0, 200, dk.RngSeed(2))
        assert mean == 1.0
        assert err == 0.0

    def test_detuned_pair(self):
        e_hi = dk.Emitter(energy=20.0, gamma=0.7, gamma_pd=2.5, sigma=1.0)
        e_lo = dk.Emitter(energy=0.0, gamma=0.7, gamma_pd=2.5, sigma=1.0)
        tau = np.array([0.05, 0.1, 0.2])
        mean, err = mc_pair_factor(e_hi, e_lo, tau, 50_000, dk.RngSeed(3))
        target = pair_factor(e_hi, e_lo, tau)
        np.testing.assert_array_less(np.abs(mean - target), 3 * err + 1e-12)

    def test_needs_enough_realizations(self):
        e = dk.Emitter(energy=0.0, gamma=1.0)
        with pytest.raises(dk.ParameterError):
            mc_pair_factor(e, e, 0.1, 50, dk.RngSeed(0))

    def test_standard_error_scales_as_sqrt_n(self):
        e = dk.Emitter(energy=0.0, gamma=REF_GAMMA, gamma_pd=REF_GAMMA_PD, sigma=REF_SIGMA)
        _, err_n = mc_pair_factor(e, e, 0.15, 20_000, dk.RngSeed(4))
        _, err_2n = mc_pair_factor(e, e, 0.15, 40_000, dk.RngSeed(4))
        assert err_n / err_2n == pytest.approx(math.sqrt(2), rel=0.1)


class TestMcG2:
    def test_single_emitter_no_variance(self):
        system = dk.identical_system(1, 1.9)
        tau = np.linspace(-2, 2, 21)
        curve = dk.mc_g2(system, tau, 1000, dk.RngSeed(5))
        np.testing.assert_allclose(curve.values, 1 - np.exp(-1.9 * np.abs(tau)), atol=1e-12)
        np.testing.assert_allclose(curve.errors, 0.0, atol=1e-15)

    def test_three_emitter_resonant_peak(self, resonant_trio):
        curve = dk.mc_g2(resonant_trio, np.array([0.0]), 20_000, dk.RngSeed(6))
        assert abs(curve.values[0] - 4 / 3) <= 3 * curve.errors[0] + 1e-12

    @pytest.mark.parametrize(
        "n,spacing,intensities",
        [
            (2, 0.0, None),
            (2, 46.0, [2, 1]),
            (3, 20.0, None),
            (3, 46.0, [2, 1, 1]),
        ],
    )
    def test_oracle_equivalence_spot_checks(self, n, spacing, intensities):
        # Full 18-case matrix at 1e5 runs in the acceptance suite; unit
        # tests spot-check with fewer realizations.
        gamma = {2: 2.0, 3: 1.4}[n]
        system = dk.identical_system(
            n, gamma, REF_GAMMA_PD, REF_SIGMA, spacing_uev=spacing, intensities=intensities
        )
        tau = np.linspace(-3, 3, 61)
        curve = dk.mc_g2(system, tau, 30_000, dk.RngSeed(50))
        analytic = dk.g2_general(system, tau)
        np.testing.assert_array_less(
            np.abs(curve.values - analytic), 3 * curve.errors + 1e-12
        )

    def test_reproducible_bit_for_bit(self, resonant_trio):
        tau = np.linspace(-2, 2, 41)
        a = dk.mc_g2(resonant_trio, tau, 5_000, dk.RngSeed(7, stream_id=3))
        b = dk.mc_g2(resonant_trio, tau, 5_000, dk.RngSeed(7, stream_id=3))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.errors, b.errors)

    def test_streams_differ(self, resonant_trio):
        tau = np.linspace(-2, 2, 41)
        a = dk.mc_g2(resonant_trio, tau, 5_000, dk.RngSeed(7, stream_id=0))
        b = dk.mc_g2(resonant_trio, tau, 5_000, dk.RngSeed(7, stream_id=1))
        assert not np.array_equal(a.values, b.values)


class TestMcG2Arguments:
    """Bad arguments are refused before any realization is drawn."""

    TAU = np.linspace(-1.0, 1.0, 5)

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def fail(*args):
            raise AssertionError("realizations were drawn")

        monkeypatch.setattr(montecarlo, "_sample_mean", fail)

    def test_whole_float_is_a_count(self, resonant_pair):
        a = dk.mc_g2(resonant_pair, self.TAU, 1_000.0, dk.RngSeed(8))
        b = dk.mc_g2(resonant_pair, self.TAU, 1_000, dk.RngSeed(8))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.errors, b.errors)

    @pytest.mark.parametrize("n_real", [1000.7, "1000", None, math.nan, math.inf, 99])
    def test_n_real_must_be_a_whole_count(self, resonant_pair, no_draws, n_real):
        with pytest.raises(dk.ParameterError, match="n_real"):
            dk.mc_g2(resonant_pair, self.TAU, n_real, dk.RngSeed(8))

    @pytest.mark.parametrize("rng", [5, np.random.default_rng(5), None])
    def test_rng_must_be_a_seed(self, resonant_pair, no_draws, rng):
        with pytest.raises(dk.ParameterError, match=f"RngSeed, got {type(rng).__name__}"):
            dk.mc_g2(resonant_pair, self.TAU, 1_000, rng)

    @pytest.mark.parametrize(
        "tau,message",
        [
            ([0.5, 0.0, 1.0], "delay grid must be strictly increasing"),
            ([0.0, 0.0, 1.0], "delay grid must be strictly increasing"),
            ([0.0, math.nan, 1.0], "finite delays"),
            ([0.0, 1.0, math.inf], "finite delays"),
            ([[0.0, 1.0]], "1-d"),
        ],
    )
    def test_delay_grid_checked_up_front(self, resonant_pair, no_draws, tau, message):
        with pytest.raises(dk.ParameterError, match=message):
            dk.mc_g2(resonant_pair, tau, 1_000, dk.RngSeed(8))


class TestSampleCoincidences:
    def test_flat_model_uniform(self, irf_100ps):
        grid = np.arange(-11, 11.001, 0.01)
        flat = dk.G2Curve(grid, np.ones_like(grid))
        hist = dk.sample_coincidences(flat, 200_000, 10.0, irf_100ps, dk.RngSeed(5))
        assert hist.counts.sum() == 200_000
        _, p = chisquare(hist.counts)
        assert p > 0.001

    def test_resonant_pair_peak(self, resonant_pair, irf_100ps):
        grid = np.arange(-11, 11.001, 0.01)
        model = dk.G2Curve(grid, dk.g2_general(resonant_pair, grid))
        hist = dk.sample_coincidences(model, 10**9, 10.0, irf_100ps, dk.RngSeed(6))
        norm = dk.normalize_histogram(hist)
        peak = norm.values[np.argmin(np.abs(norm.delays))]
        assert 0.90 <= peak <= 1.00

    def test_three_emitter_peak_band(self, resonant_trio, irf_100ps):
        # three-emitter bunching peak lands in the 1.1-1.3 band
        grid = np.arange(-11, 11.001, 0.01)
        model = dk.G2Curve(grid, dk.g2_general(resonant_trio, grid))
        hist = dk.sample_coincidences(model, 10**8, 10.0, irf_100ps, dk.RngSeed(13))
        norm = dk.normalize_histogram(hist)
        peak = norm.values[np.argmin(np.abs(norm.delays))]
        assert 1.1 <= peak <= 1.3

    def test_single_emitter_residual_floor(self, irf_100ps):
        system = dk.identical_system(1, 1.9)
        grid = np.arange(-11, 11.001, 0.01)
        model = dk.G2Curve(grid, dk.g2_general(system, grid))
        hist = dk.sample_coincidences(model, 10**7, 10.0, irf_100ps, dk.RngSeed(7))
        norm = dk.normalize_histogram(hist)
        assert norm.values[np.argmin(np.abs(norm.delays))] <= 0.1

    def test_sampler_consistency_with_convolved_model(self, resonant_pair, irf_100ps):
        grid = np.arange(-11, 11.001, 0.01)
        model = dk.G2Curve(grid, dk.g2_general(resonant_pair, grid))
        hist = dk.sample_coincidences(model, 1_000_000, 10.0, irf_100ps, dk.RngSeed(8))
        norm = dk.normalize_histogram(hist)
        blurred = dk.convolve_irf(model, irf_100ps)
        expected = np.interp(norm.delays, blurred.delays, blurred.values)
        in_band = np.abs(norm.values - expected) <= 3 * norm.errors
        assert in_band.mean() >= 0.99

    def test_window_errors(self, resonant_pair, irf_100ps):
        grid = np.arange(-2, 2.001, 0.01)
        model = dk.G2Curve(grid, dk.g2_general(resonant_pair, grid))
        for window in (0.0, -math.inf):
            with pytest.raises(dk.EmptyWindowError):
                dk.sample_coincidences(model, 100, window, irf_100ps, dk.RngSeed(0))
        with pytest.raises(dk.GridCoverageError):
            dk.sample_coincidences(
                model, 100, 10.0, irf_100ps, dk.RngSeed(0), normalization_window=(0.5, 1.5)
            )

    def test_whole_float_is_an_event_count(self, resonant_pair, irf_100ps):
        grid = np.arange(-11, 11.001, 0.01)
        model = dk.G2Curve(grid, dk.g2_general(resonant_pair, grid))
        a = dk.sample_coincidences(model, 1e5, 10.0, irf_100ps, dk.RngSeed(3))
        b = dk.sample_coincidences(model, 100_000, 10.0, irf_100ps, dk.RngSeed(3))
        assert a.n_events == 100_000 and isinstance(a.n_events, int)
        assert np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"n_events": 1.5}, "n_events must be a whole number"),
            ({"n_events": "100"}, "n_events must be a whole number"),
            ({"n_events": math.nan}, "n_events must be a whole number"),
            ({"n_events": math.inf}, "n_events must be a whole number"),
            ({"n_events": 0}, "n_events >= 1"),
            ({"bin_width": -0.02}, "bin_width"),
            ({"bin_width": 0.0}, "bin_width"),
            ({"bin_width": math.nan}, "bin_width"),
            ({"bin_width": math.inf}, "bin_width"),
            ({"window": math.nan}, "window must be finite"),
            ({"window": math.inf}, "window must be finite"),
        ],
    )
    def test_arguments_checked_before_drawing(
        self, monkeypatch, resonant_pair, irf_100ps, change, message
    ):
        def fail(*args):
            raise AssertionError("the bin law was computed")

        monkeypatch.setattr(montecarlo, "_bin_law", fail)
        grid = np.arange(-11, 11.001, 0.01)
        model = dk.G2Curve(grid, dk.g2_general(resonant_pair, grid))
        args = {"n_events": 100, "window": 10.0, "bin_width": 0.02, **change}
        with pytest.raises(dk.ParameterError, match=message):
            dk.sample_coincidences(model, irf=irf_100ps, rng=dk.RngSeed(0), **args)

    @pytest.mark.parametrize("rng", [5, np.random.default_rng(5), None])
    def test_rng_must_be_a_seed(self, monkeypatch, irf_100ps, rng):
        # The same check as mc_g2's, made before the bin law is computed.
        def fail(*args):
            raise AssertionError("the bin law was computed")

        monkeypatch.setattr(montecarlo, "_bin_law", fail)
        grid = np.linspace(-12.0, 12.0, 401)
        flat = dk.G2Curve(grid, np.ones_like(grid))
        with pytest.raises(dk.ParameterError, match=f"RngSeed, got {type(rng).__name__}"):
            dk.sample_coincidences(flat, 100, 10.0, irf_100ps, rng)

    def test_event_count_preserved_with_redraws(self, irf_100ps):
        grid = np.arange(-3, 3.001, 0.01)
        flat = dk.G2Curve(grid, np.ones_like(grid))
        hist = dk.sample_coincidences(
            flat, 5_000, 2.0, irf_100ps, dk.RngSeed(9), normalization_window=(1.0, 2.0)
        )
        assert hist.counts.sum() == 5_000

    def test_cost_does_not_grow_with_events(self, resonant_pair, irf_100ps):
        # One multinomial draw: 1e12 events would need terabytes drawn one by one.
        grid = np.arange(-11, 11.001, 0.01)
        model = dk.G2Curve(grid, dk.g2_general(resonant_pair, grid))
        hist = dk.sample_coincidences(model, 10**12, 10.0, irf_100ps, dk.RngSeed(12))
        assert hist.counts.sum() == 10**12


def _resonant_model(n):
    """The model curves of the resonant 1-, 2- and 3-emitter tests above."""
    if n == 1:
        system = dk.identical_system(1, 1.9)
    else:
        system = dk.identical_system(n, {2: REF_GAMMA, 3: 1.4}[n], REF_GAMMA_PD, REF_SIGMA)
    grid = np.arange(-11, 11.001, 0.01)
    return dk.G2Curve(grid, dk.g2_general(system, grid))


def _law_misses(p, q):
    """Largest relative difference per bin between two bin laws."""
    return np.abs(p / q - 1.0).max()


class TestBinLaw:
    """``_bin_law`` against the law of the event-by-event sampler it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_closed_form(self, n, irf_100ps):
        model = _resonant_model(n)
        edges, p = _bin_law(model, 10.0, irf_100ps, 0.02)
        np.testing.assert_array_equal(edges, np.linspace(-10.0, 10.0, 1001))
        exact = mc_reference.closed_form_law(model, 10.0, irf_100ps.sigma, edges)
        assert _law_misses(p, exact) <= 1e-4

    @pytest.mark.parametrize("mutant", ["jitter_10pct_wide", "half_bin_shift", "no_jitter"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_tells_mutants_apart(self, n, mutant, irf_100ps):
        model = _resonant_model(n)
        edges, p = _bin_law(model, 10.0, irf_100ps, 0.02)
        sigma = {"jitter_10pct_wide": 1.1, "no_jitter": 1e-6}.get(mutant, 1.0) * irf_100ps.sigma
        if mutant == "half_bin_shift":
            model = dk.G2Curve(model.delays + 0.01, model.values)
        assert _law_misses(p, mc_reference.closed_form_law(model, 10.0, sigma, edges)) > 1e-4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_event_sampler_follows_law(self, n, irf_100ps):
        # Chi-square goodness of fit at a 1% false-alarm rate per model.
        model = _resonant_model(n)
        edges, p = _bin_law(model, 10.0, irf_100ps, 0.02)
        n_events = 2_000_000
        _, counts = mc_reference.event_histogram(model, n_events, 10.0, irf_100ps.sigma, 40 + n)
        expected = n_events * p
        statistic = ((counts - expected) ** 2 / expected).sum()
        assert statistic <= chi2.ppf(0.99, p.size - 1)


class TestNormalizeHistogram:
    def test_uniform_counts_normalize_to_one(self):
        edges = np.linspace(-10, 10, 1001)
        hist = dk.G2Histogram(edges, np.full(1000, 7), (5.0, 10.0))
        curve = dk.normalize_histogram(hist)
        np.testing.assert_allclose(curve.values, 1.0)
        np.testing.assert_allclose(curve.errors, math.sqrt(7) / 7)

    def test_plateau_level(self, resonant_pair, irf_100ps):
        grid = np.arange(-11, 11.001, 0.01)
        model = dk.G2Curve(grid, dk.g2_general(resonant_pair, grid))
        hist = dk.sample_coincidences(model, 100_000, 10.0, irf_100ps, dk.RngSeed(10))
        curve = dk.normalize_histogram(hist)
        plateau = (np.abs(curve.delays) >= 5) & (np.abs(curve.delays) <= 10)
        assert curve.values[plateau].mean() == pytest.approx(1.0, abs=0.02)

    def test_zero_count_bins_get_unit_count_error(self):
        edges = np.linspace(-10, 10, 101)
        counts = np.full(100, 50)
        counts[50] = 0
        hist = dk.G2Histogram(edges, counts, (5.0, 10.0))
        curve = dk.normalize_histogram(hist)
        assert curve.values[50] == 0.0
        assert curve.errors[50] == pytest.approx(1 / 50)

    def test_empty_plateau_rejected(self):
        edges = np.linspace(-10, 10, 101)
        counts = np.zeros(100, dtype=int)
        counts[45:55] = 100
        hist = dk.G2Histogram(edges, counts, (5.0, 10.0))
        with pytest.raises(dk.EmptyPlateauError):
            dk.normalize_histogram(hist)


class TestHistogramIo:
    def test_round_trip(self, tmp_path, resonant_pair, irf_100ps):
        grid = np.arange(-11, 11.001, 0.01)
        model = dk.G2Curve(grid, dk.g2_general(resonant_pair, grid))
        hist = dk.sample_coincidences(model, 10_000, 10.0, irf_100ps, dk.RngSeed(11))
        path = tmp_path / "hist.tsv"
        dk.write_histogram(path, hist)
        back = dk.read_histogram(path)
        assert np.array_equal(back.counts, hist.counts)
        np.testing.assert_allclose(back.bin_edges, hist.bin_edges, atol=1e-9)
        assert back.seed == hist.seed
        assert back.n_events == hist.n_events
        assert back.irf_fwhm == hist.irf_fwhm
        assert back.normalization_window == hist.normalization_window
