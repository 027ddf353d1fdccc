"""g2 fitting, joint fits, and spectral peak location."""


import math

import numpy as np
import pytest
import scipy.optimize
import scipy.signal
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dotkit as dk
from dotkit.fitting import (
    G2_PARAM_NAMES,
    _fifth_percentile,
    _fit_least_squares,
    _joint_problem,
    _peak_model,
    _peak_start,
    _tallest_line,
)

from conftest import REF_GAMMA, REF_GAMMA_PD, REF_SIGMA

IRF = dk.Irf(0.1)
MODEL_GRID = np.arange(-11.0, 11.001, 0.01)


def synthetic_curve(n, gamma, spacing=0.0, seed=0, n_events=100_000, intensities=None):
    system = dk.identical_system(
        n, gamma, REF_GAMMA_PD, REF_SIGMA, spacing_uev=spacing, intensities=intensities
    )
    model = dk.G2Curve(MODEL_GRID, dk.g2_general(system, MODEL_GRID))
    hist = dk.sample_coincidences(model, n_events, 10.0, IRF, dk.RngSeed(seed))
    return dk.normalize_histogram(hist)


class TestFitSpecValidation:
    def test_fixed_free_overlap(self):
        with pytest.raises(dk.ParameterError):
            dk.FitSpec(fixed={"n": 2, "gamma": 1.0}, free={"gamma": (1.0, 0.1, 5.0)})

    def test_unknown_parameter(self):
        with pytest.raises(dk.ParameterError):
            dk.FitSpec(fixed={"n": 2}, free={"lifetime": (1.0, 0.1, 5.0)})

    def test_ideal_needs_count(self):
        with pytest.raises(dk.ParameterError):
            dk.FitSpec(fixed={}, free={"gamma": (1.0, 0.1, 5.0)})

    def test_general_needs_system(self):
        with pytest.raises(dk.ParameterError):
            dk.FitSpec(model="general", free={"gamma": (1.0, 0.1, 5.0)})

    def test_guess_outside_bounds(self):
        with pytest.raises(dk.ParameterError):
            dk.FitSpec(fixed={"n": 2}, free={"gamma": (10.0, 0.1, 5.0)})

    def test_free_parameter_needs_room(self):
        with pytest.raises(dk.ParameterError):
            dk.FitSpec(fixed={"n": 2}, free={"gamma": (1.0, 1.0, 1.0)})


class TestFitG2:
    def test_zero_noise_self_fit(self, resonant_pair):
        tau = np.linspace(-5.0, 5.0, 401)
        data = dk.G2Curve(tau, dk.g2_general(resonant_pair, tau), np.ones(tau.size))
        spec = dk.FitSpec(
            fixed={"n": 2, "delta_ueV": 0.0},
            free={
                "gamma": (REF_GAMMA, 0.05, 10.0),
                "gamma_pd": (REF_GAMMA_PD, 0.0, 10.0),
                "sigma": (REF_SIGMA, 0.01, 5.0),
            },
        )
        result = dk.fit_g2(data, spec)
        assert result.converged
        assert result.residual_norm < 1e-6
        assert result.estimates["gamma"].value == pytest.approx(REF_GAMMA, rel=1e-4)
        assert result.estimates["gamma_pd"].value == pytest.approx(REF_GAMMA_PD, rel=1e-4)
        assert result.estimates["sigma"].value == pytest.approx(REF_SIGMA, rel=1e-4)

    def test_gamma_recovery_with_anchored_linewidths(self):
        # Shared linewidth values held at their spectroscopy-derived
        # numbers, radiative rate free: the protocol the source fits used.
        data = synthetic_curve(2, 2.0, seed=7000)
        spec = dk.FitSpec(
            fixed={"n": 2, "delta_ueV": 0.0, "gamma_pd": REF_GAMMA_PD, "sigma": REF_SIGMA},
            free={"gamma": (1.2, 0.05, 10.0), "scale": (1.0, 0.9, 1.1)},
            irf=IRF,
        )
        result = dk.fit_g2(data, spec, rng=dk.RngSeed(1))
        assert result.converged
        assert result.estimates["gamma"].value == pytest.approx(2.0, rel=0.15)

    def test_detuning_recovery(self):
        # 20 ueV detuning recovered to within 2 ueV from 1e6 events.
        data = synthetic_curve(2, REF_GAMMA, spacing=20.0, seed=8000, n_events=10**6)
        spec = dk.FitSpec(
            fixed={"n": 2, "gamma_pd": REF_GAMMA_PD, "sigma": REF_SIGMA},
            free={
                "gamma": (1.2, 0.05, 10.0),
                "delta_ueV": (10.0, 0.0, 60.0),
                "scale": (1.0, 0.9, 1.1),
            },
            irf=IRF,
        )
        result = dk.fit_g2(data, spec, rng=dk.RngSeed(2))
        assert abs(result.estimates["delta_ueV"].value - 20.0) <= 2.0

    def test_monotone_refinement(self):
        data = synthetic_curve(2, 2.0, seed=7001, n_events=20_000)
        spec = dk.FitSpec(
            fixed={"n": 2, "delta_ueV": 0.0, "gamma_pd": REF_GAMMA_PD, "sigma": REF_SIGMA},
            free={"gamma": (1.2, 0.05, 10.0), "scale": (1.0, 0.9, 1.1)},
            irf=IRF,
        )
        result = dk.fit_g2(data, spec, rng=dk.RngSeed(3))
        history = np.asarray(result.history)
        assert history.size > 0
        assert np.all(np.diff(history) <= 1e-9)

    def test_estimate_pinned_on_bound(self):
        # True scale is 1; bounds that exclude it pin the estimate on the
        # lower bound, where the errors must still be usable numbers.
        data = synthetic_curve(2, 2.0, seed=7002)
        spec = dk.FitSpec(
            fixed={"n": 2, "delta_ueV": 0.0, "gamma_pd": REF_GAMMA_PD, "sigma": REF_SIGMA},
            free={"gamma": (1.2, 0.05, 10.0), "scale": (1.07, 1.05, 1.1)},
            irf=IRF,
        )
        result = dk.fit_g2(data, spec, rng=dk.RngSeed(5))
        assert result.estimates["scale"].at_bound
        assert result.estimates["scale"].value == pytest.approx(1.05, abs=1e-6)
        for est in result.estimates.values():
            assert np.isfinite(est.stderr) and est.stderr >= 0.0

    def test_requires_errors_and_information(self, resonant_pair):
        tau = np.linspace(-5.0, 5.0, 401)
        values = dk.g2_general(resonant_pair, tau)
        spec = dk.FitSpec(fixed={"n": 2}, free={"gamma": (1.0, 0.05, 10.0)})
        with pytest.raises(dk.ParameterError):
            dk.fit_g2(dk.G2Curve(tau, values), spec)
        with pytest.raises(dk.DegenerateDataError):
            dk.fit_g2(dk.G2Curve(tau, np.ones(tau.size), np.ones(tau.size)), spec)
        with pytest.raises(dk.ParameterError):
            dk.fit_g2(dk.G2Curve(tau[:5], values[:5], np.ones(5)), spec)

    def test_fixing_true_parameter_never_hurts(self):
        # Statistical check: holding the dephasing rate at truth does not
        # worsen the radiative-rate recovery, averaged over seeds. Bins are
        # kept well populated so Poisson weights stay unbiased.
        free_errs, fixed_errs = [], []
        for seed in range(20):
            system = dk.identical_system(2, 2.0, REF_GAMMA_PD, REF_SIGMA)
            model = dk.G2Curve(MODEL_GRID, dk.g2_general(system, MODEL_GRID))
            hist = dk.sample_coincidences(
                model, 100_000, 10.0, IRF, dk.RngSeed(9100 + seed), bin_width=0.04
            )
            data = dk.normalize_histogram(hist)
            common = {"n": 2, "delta_ueV": 0.0, "sigma": REF_SIGMA}
            spec_free = dk.FitSpec(
                fixed=common,
                free={"gamma": (1.2, 0.05, 10.0), "gamma_pd": (2.0, 0.0, 10.0)},
                irf=IRF,
                n_restarts=1,
            )
            spec_fixed = dk.FitSpec(
                fixed={**common, "gamma_pd": REF_GAMMA_PD},
                free={"gamma": (1.2, 0.05, 10.0)},
                irf=IRF,
                n_restarts=1,
            )
            free_errs.append(abs(dk.fit_g2(data, spec_free).estimates["gamma"].value - 2.0))
            fixed_errs.append(abs(dk.fit_g2(data, spec_fixed).estimates["gamma"].value - 2.0))
        assert np.mean(fixed_errs) <= np.mean(free_errs) + 0.01


class TestJointFit:
    def test_shared_parameters_are_tied(self):
        datasets = [
            synthetic_curve(2, 2.0, seed=7100, n_events=50_000),
            synthetic_curve(3, 1.4, seed=7101, n_events=50_000),
        ]
        specs = [
            dk.FitSpec(
                fixed={"n": n, "delta_ueV": 0.0, "sigma": REF_SIGMA},
                free={"gamma": (1.2, 0.05, 10.0), "gamma_pd": (2.0, 0.0, 10.0)},
                irf=IRF,
                n_restarts=2,
            )
            for n in (2, 3)
        ]
        result = dk.fit_g2_joint(datasets, specs, shared=("gamma_pd",), rng=dk.RngSeed(4))
        names = set(result.estimates)
        assert names == {"gamma_pd", "curve0.gamma", "curve1.gamma"}
        per_curve = dk.joint_curve_params(result, specs)
        assert per_curve[0]["gamma_pd"] == per_curve[1]["gamma_pd"]
        assert per_curve[0]["gamma"] != per_curve[1]["gamma"]

    @staticmethod
    def benchmark_fit_inputs(seeds=(7200, 7201, 7202)):
        # The benchmark's fit: three 1e5-event curves, one shared sigma,
        # per-curve gamma and scale, one start.
        datasets, specs = [], []
        for seed, (n, gamma) in zip(seeds, ((1, 1.9), (2, 2.0), (3, 1.4))):
            system = dk.identical_system(n, gamma, REF_GAMMA_PD, REF_SIGMA)
            model = dk.G2Curve(MODEL_GRID, dk.g2_general(system, MODEL_GRID))
            hist = dk.sample_coincidences(
                model, 100_000, 10.0, IRF, dk.RngSeed(seed), bin_width=0.02
            )
            datasets.append(dk.normalize_histogram(hist))
            specs.append(
                dk.FitSpec(
                    fixed={"n": n, "delta_ueV": 0.0, "gamma_pd": REF_GAMMA_PD},
                    free={
                        "sigma": (1.0, 0.01, 5.0),
                        "gamma": (1.2, 0.05, 10.0),
                        "scale": (1.0, 0.9, 1.1),
                    },
                    irf=IRF,
                    n_restarts=1,
                )
            )
        return datasets, specs

    @staticmethod
    def count_calls(monkeypatch, *names):
        """Count calls of the named ``dotkit.fitting`` functions, together."""
        calls = []
        for name in names:

            def counting(*args, function=getattr(dk.fitting, name), **kwargs):
                calls.append(1)
                return function(*args, **kwargs)

            monkeypatch.setattr(dk.fitting, name, counting)
        return calls

    def test_objective_evaluation_budget(self, monkeypatch):
        # A least-squares fit of these seven parameters needs a few hundred
        # model evaluations at most, each one column pass per curve.
        datasets, specs = self.benchmark_fit_inputs()
        passes = self.count_calls(monkeypatch, "_g2_columns")
        result = dk.fit_g2_joint(datasets, specs, shared=("sigma",), rng=dk.RngSeed(6))
        assert result.converged
        assert len(passes) <= 400

    def test_jacobian_evaluates_only_moved_curves(self, monkeypatch):
        # Of the seven columns, sigma moves all three curves and each gamma
        # and scale one. One solver evaluation gives the residuals and every
        # column of a curve from one pass, so it costs three column passes
        # and no model evaluation, where differencing the whole residual
        # vector costs 7 x 3 = 21 model evaluations.
        datasets, specs = self.benchmark_fit_inputs()
        models = self.count_calls(monkeypatch, "evaluate_fit_model", "g2_general")
        passes = self.count_calls(monkeypatch, "_g2_columns")
        costs = []
        solve = dk.fitting._fit_least_squares

        def spying(evaluate, free, n_restarts, gen):
            def counted(theta):
                before = (len(models), len(passes))
                out = evaluate(theta)
                costs.append((len(models) - before[0], len(passes) - before[1]))
                return out

            return solve(counted, free, n_restarts, gen)

        monkeypatch.setattr(dk.fitting, "_fit_least_squares", spying)
        result = dk.fit_g2_joint(datasets, specs, shared=("sigma",), rng=dk.RngSeed(6))
        assert result.converged
        assert result.n_iterations == len(result.history) + 1
        assert len(costs) >= result.n_iterations
        assert all(cost == (0, 3) for cost in costs)

    def test_shared_name_must_be_free_everywhere(self):
        datasets = [synthetic_curve(2, 2.0, seed=7102, n_events=20_000)] * 2
        specs = [
            dk.FitSpec(
                fixed={"n": 2, "delta_ueV": 0.0, "sigma": REF_SIGMA},
                free={"gamma": (1.2, 0.05, 10.0), "gamma_pd": (2.0, 0.0, 10.0)},
                irf=IRF,
            ),
            dk.FitSpec(
                fixed={"n": 2, "delta_ueV": 0.0, "sigma": REF_SIGMA, "gamma_pd": 2.5},
                free={"gamma": (1.2, 0.05, 10.0)},
                irf=IRF,
            ),
        ]
        with pytest.raises(dk.ParameterError):
            dk.fit_g2_joint(datasets, specs, shared=("gamma_pd",))


JAC_BOUNDS = {
    "gamma": (0.05, 10.0),
    "gamma_pd": (0.0, 10.0),
    "sigma": (0.01, 5.0),
    "delta_ueV": (-30.0, 60.0),
    "scale": (0.9, 1.1),
}
JAC_TAU = np.linspace(-2.0, 2.0, 61)


def build_joint_problem(model, coherent, irf, shared, own, seed):
    """A joint fit of ``len(own)`` curves, curve k of k + 1 emitters, freeing
    the ``shared`` parameters and ``own[k]`` on curve k. A "general" curve's
    base emitters differ in energy, rates and intensity. Returns the data
    sets, the specs, and the free parameters and ``evaluate`` of the fit."""
    gen = np.random.default_rng(seed)
    datasets, specs = [], []
    for k, names in enumerate(own):
        free = {name: (JAC_BOUNDS[name][0], *JAC_BOUNDS[name]) for name in shared + names}
        if model == "ideal":
            fixed = {"n": k + 1}
            fixed.update({name: 1.0 for name in ("gamma", "sigma") if name not in free})
            spec = dk.FitSpec(fixed=fixed, free=free, irf=irf, coherent=coherent)
        else:
            base = dk.EmitterSystem(
                tuple(
                    dk.Emitter(
                        energy=gen.uniform(-20.0, 20.0),
                        gamma=gen.uniform(0.5, 3.0),
                        gamma_pd=gen.uniform(0.0, 3.0),
                        sigma=gen.uniform(0.0, 2.0),
                        intensity=gen.uniform(0.2, 2.0),
                    )
                    for _ in range(k + 1)
                )
            )
            spec = dk.FitSpec(
                model="general", free=free, irf=irf, coherent=coherent, base_system=base
            )
        truth = dk.identical_system(k + 1, 1.5, REF_GAMMA_PD, REF_SIGMA, spacing_uev=15.0)
        values = dk.g2_general(truth, JAC_TAU) + 0.02 * gen.standard_normal(JAC_TAU.size)
        errors = 0.02 + 0.01 * gen.uniform(size=JAC_TAU.size)
        datasets.append(dk.G2Curve(JAC_TAU, values, errors))
        specs.append(spec)
    return (datasets, specs, *_joint_problem(datasets, specs, shared))


@st.composite
def joint_problems(draw):
    """A 1-3 curve joint fit of either model, coherent or not, with or
    without the timing response, and a point in its bounds, kept clear of
    the gamma_pd = 0 edge that a difference step would cross."""
    n_curves = draw(st.integers(1, 3))
    shared = draw(st.lists(st.sampled_from(G2_PARAM_NAMES), unique=True, max_size=2))
    others = [n for n in G2_PARAM_NAMES if n not in shared]
    own = [
        draw(st.lists(st.sampled_from(others), unique=True, min_size=0 if shared else 1))
        for _ in range(n_curves)
    ]
    problem = build_joint_problem(
        draw(st.sampled_from(["ideal", "general"])),
        draw(st.booleans()),
        draw(st.sampled_from([None, IRF])),
        shared,
        own,
        draw(st.integers(0, 2**32 - 1)),
    )
    free = problem[2]
    theta = [lo + draw(st.floats(1e-3, 1.0)) * (hi - lo) for _, lo, hi in free.values()]
    return problem, np.array(theta)


def central_difference(residuals, theta, h=1e-3):
    """Five-point central difference of the residuals; its truncation error,
    of order h^4, and its rounding error, of order eps / h, both stay far
    below the property's tolerance."""
    columns = []
    for step in h * np.eye(theta.size):
        outer = residuals(theta - 2.0 * step) - residuals(theta + 2.0 * step)
        inner = residuals(theta + step) - residuals(theta - step)
        columns.append((outer + 8.0 * inner) / (12.0 * h))
    return np.array(columns).T


def jacobian_matches(evaluate, theta):
    """Whether ``evaluate``'s Jacobian equals a central difference of its
    residuals within 1e-6 of each column's largest entry; a column the
    residuals do not depend on must be exactly zero."""
    expected = central_difference(lambda x: evaluate(x)[0], theta)
    got = evaluate(theta)[1]
    assert got.shape == expected.shape
    return bool(np.all(np.abs(got - expected) <= 1e-6 * np.abs(expected).max(axis=0)))


def model_matches(datasets, specs, free, evaluate, theta):
    """Whether the model behind ``evaluate``'s residuals equals the public
    :func:`dotkit.evaluate_fit_model` within 1e-12."""
    estimates = {name: dk.ParamEstimate(value, 0.0) for name, value in zip(free, theta)}
    params = dk.joint_curve_params(dk.FitResult(estimates, 0.0, 1, True), specs)
    residuals = np.split(evaluate(theta)[0], np.cumsum([d.values.size for d in datasets])[:-1])
    return all(
        np.all(np.abs(d.values - r * d.errors - dk.evaluate_fit_model(s, p, d.delays)) <= 1e-12)
        for d, s, p, r in zip(datasets, specs, params, residuals)
    )


class TestJointJacobian:
    @settings(max_examples=100, deadline=None)
    @given(joint_problems())
    def test_matches_central_difference(self, case):
        (_, _, _, evaluate), theta = case
        assert jacobian_matches(evaluate, theta)

    @settings(max_examples=100, deadline=None)
    @given(joint_problems())
    def test_model_matches_evaluate_fit_model(self, case):
        # Only this ties the solver's model, the scale column of
        # fitting._g2_columns, to the g2_general kernel that the public
        # model evaluates.
        problem, theta = case
        assert model_matches(*problem, theta)

    @pytest.mark.parametrize(
        "name, factor", [(None, 1.0), ("gamma_pd", 0.5), ("delta_ueV", -1.0), ("sigma", 0.5)]
    )
    def test_wrong_columns_fail(self, monkeypatch, name, factor):
        # A column off by a factor (gamma_pd's -t for -2t, sigma's likewise,
        # delta's sign flipped) fails the comparison; the true columns pass.
        columns = dk.fitting._g2_columns

        def mutant(*args):
            out = columns(*args)
            if name is not None:
                out[name] = factor * out[name]
            return out

        monkeypatch.setattr(dk.fitting, "_g2_columns", mutant)
        _, _, free, evaluate = build_joint_problem(
            "general", True, IRF, ["gamma_pd", "sigma", "delta_ueV"], [["gamma"], ["scale"]], 3
        )
        theta = np.array([0.5 * (lo + hi) for _, lo, hi in free.values()])
        assert jacobian_matches(evaluate, theta) == (name is None)

    @pytest.mark.parametrize("flipped", [False, True])
    def test_wrong_model_fails(self, monkeypatch, flipped):
        # The model with its pair term's sign flipped, 1 - decay - pair,
        # fails the comparison with the public model; the true one passes.
        columns = dk.fitting._g2_columns

        def mutant(system, t, coherent):
            out = columns(system, t, coherent)
            if flipped:
                incoherent = columns(system, t, False)["scale"]
                out["scale"] = 2.0 * incoherent - out["scale"]
            return out

        monkeypatch.setattr(dk.fitting, "_g2_columns", mutant)
        datasets, specs, free, evaluate = build_joint_problem(
            "general", True, IRF, ["gamma_pd", "sigma", "delta_ueV"], [["gamma"], ["scale"]], 3
        )
        theta = np.array([0.5 * (lo + hi) for _, lo, hi in free.values()])
        assert model_matches(datasets, specs, free, evaluate, theta) == (not flipped)


class TestSpectrumPeaks:
    CENTER = 1_300_000.0

    def line(self, energy, **kwargs):
        return dk.Emitter(
            energy=energy, gamma=REF_GAMMA, gamma_pd=REF_GAMMA_PD, sigma=REF_SIGMA, **kwargs
        )

    def test_center_resolution_at_snr_50(self):
        # Line position determined to ~1 ueV despite the 2.4 ueV instrument.
        system = dk.EmitterSystem((self.line(self.CENTER),))
        grid = np.arange(self.CENTER - 200.0, self.CENTER + 200.0, 0.6)
        gen = dk.RngSeed(20).generator()
        errors = []
        for _ in range(100):
            spectrum = dk.synth_spectrum(system, dk.Instrument.fabry_perot(), grid, 50.0, gen)
            peak = dk.fit_spectrum_peaks(spectrum)
            errors.append(peak.center - self.CENTER)
        assert np.sqrt(np.mean(np.square(errors))) <= 1.0
        assert np.abs(errors).max() <= 1.0

    def test_symmetric_line_on_symmetric_grid(self):
        system = dk.EmitterSystem((self.line(self.CENTER),))
        grid = np.arange(self.CENTER - 200.0, self.CENTER + 200.5, 0.5)
        spectrum = dk.synth_spectrum(system, dk.Instrument.fabry_perot(), grid)
        peak = dk.fit_spectrum_peaks(spectrum)
        assert peak.center == pytest.approx(self.CENTER, abs=1e-4)

    def test_background_invariance(self):
        system = dk.EmitterSystem((self.line(self.CENTER),))
        grid = np.arange(self.CENTER - 200.0, self.CENTER + 200.0, 0.6)
        spectrum = dk.synth_spectrum(system, dk.Instrument.fabry_perot(), grid)
        lifted = dk.Spectrum(
            grid, spectrum.intensities + 0.25 * spectrum.intensities.max(), spectrum.instrument
        )
        center_a = dk.fit_spectrum_peaks(spectrum).center
        center_b = dk.fit_spectrum_peaks(lifted).center
        assert abs(center_a - center_b) <= 0.1

    def test_grid_must_resolve_instrument(self):
        system = dk.EmitterSystem((self.line(self.CENTER),))
        grid = np.arange(self.CENTER - 2000.0, self.CENTER + 2000.0, 10.0)
        spectrum = dk.synth_spectrum(system, dk.Instrument.grating(), grid)
        with pytest.raises(dk.ParameterError):
            dk.fit_spectrum_peaks(spectrum, instrument_fwhm=2.4)

    @pytest.mark.parametrize("n_samples", [0, 1, 5])
    def test_too_few_samples(self, n_samples):
        """Five free parameters need six samples, so the residual variance
        behind ``center_err`` keeps a degree of freedom."""
        grid = self.CENTER + 0.6 * np.arange(n_samples)
        spectrum = dk.Spectrum(grid, np.hanning(n_samples), dk.Instrument.fabry_perot())
        with pytest.raises(dk.ParameterError, match="needs >= 6 spectrum samples"):
            dk.fit_spectrum_peaks(spectrum)


def reference_peak(x, background, eta, center, fwhm, height):
    """Background plus a pseudo-Voigt line, written out independently of dotkit."""
    z = (x - center) / fwhm
    return background + height * (
        eta / (1.0 + 4.0 * z**2) + (1.0 - eta) * np.exp(-4.0 * math.log(2.0) * z**2)
    )


class TestPeakFitEstimator:
    GRID = np.linspace(-100.0, 100.0, 401)

    @settings(max_examples=60, deadline=None)
    @given(
        background=st.floats(0.0, 1.0),
        eta=st.floats(0.0, 1.0),
        center=st.floats(-80.0, 80.0),
        fwhm=st.floats(0.5, 40.0),
        height=st.floats(0.01, 10.0),
    )
    def test_jacobian_matches_complex_step(self, background, eta, center, fwhm, height):
        # Complex-step derivatives (Squire & Trapp, SIAM Rev. 40, 1998):
        # d model / d theta_i = Im model(theta + i h e_i) / h has no
        # subtraction error, so the tolerance needs no floor for rounding.
        theta = np.array([background, eta, center, fwhm, height])
        model, jac = _peak_model(theta, self.GRID)
        np.testing.assert_allclose(model, reference_peak(self.GRID, *theta), rtol=1e-12)
        h = 1e-30
        for i in range(theta.size):
            step = theta.astype(complex)
            step[i] += 1j * h
            numeric = reference_peak(self.GRID, *step).imag / h
            stepped, _ = _peak_model(step, self.GRID)
            scale = np.abs(numeric).max()
            np.testing.assert_allclose(jac[:, i], numeric, rtol=0, atol=1e-9 * scale)
            np.testing.assert_allclose(stepped.imag / h, numeric, rtol=0, atol=1e-9 * scale)

    def meter_spectra(self):
        """Meter-style scans of one line: +-150 ueV, SNR 200."""
        line = dict(gamma=1.4, gamma_pd=REF_GAMMA_PD, sigma=REF_SIGMA)
        center = 1_300_000.0
        gen = dk.RngSeed(30).generator()
        for _ in range(4):
            system = dk.EmitterSystem((dk.Emitter(center + gen.uniform(-25.0, 25.0), **line),))
            grid = np.arange(center - 150.0, center + 150.3, 0.6)
            yield dk.synth_spectrum(system, dk.Instrument.fabry_perot(), grid, 200.0, gen)

    def test_agrees_with_curve_fit(self):
        # The oracle is scipy's curve_fit from the same start and bounds, on
        # the same axis: offsets from the grid midpoint, which the library
        # fits on (on raw ~1.3e6 ueV energies curve_fit's finite-difference
        # steps alone move its optimum by ~1e-5 ueV).
        for spectrum in self.meter_spectra():
            energies, y = spectrum.energies, spectrum.intensities
            origin = 0.5 * (energies[0] + energies[-1])
            x = energies - origin
            start = _peak_start(x, y, spectrum.instrument.resolution_fwhm)
            p0, lower, upper = (np.array(column) for column in zip(*start.values()))
            popt, pcov = scipy.optimize.curve_fit(
                reference_peak, x, y, p0=p0, bounds=(lower, upper), maxfev=20000
            )
            peak = dk.fit_spectrum_peaks(spectrum)
            assert peak.center == pytest.approx(origin + popt[2], abs=1e-6)
            assert peak.center_err == pytest.approx(math.sqrt(pcov[2, 2]), rel=1e-5)


@st.composite
def bounded_linear_problems(draw):
    """min |A x - b|^2 over a box, with a known solution x_star.

    Each coordinate of x_star sits on its lower or upper bound, with the
    gradient pushing out of the box, or inside it, with zero gradient; b
    is built to make that so. Column scales span two decades. A solver led
    by the chi-square cannot place x_i closer than sqrt(eps chi2) / |A_i|,
    which for |A_i| ~ 1e-2 exceeds the 1e-6 asked of it: with four decades
    scipy's trf misses 1e-6 on 134 of 5,000 draws.
    """
    n = draw(st.integers(1, 6))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = n + draw(st.integers(1, 20))
    a = gen.standard_normal((m, n)) * 10.0 ** gen.uniform(-1.0, 1.0, n)
    lower, upper = -gen.uniform(0.5, 2.0, n), gen.uniform(0.5, 2.0, n)
    where = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)))
    x_star = np.where(where < 0, lower, upper)
    inside = where == 0
    x_star[inside] = (lower + gen.uniform(0.1, 0.9, n) * (upper - lower))[inside]
    norms = np.linalg.norm(a, axis=0)
    gradient = -where * norms * gen.uniform(0.1, 1.0, n)  # A^T (A x_star - b)
    noise = gen.standard_normal(m)
    noise -= a @ np.linalg.lstsq(a, noise, rcond=None)[0]
    noise *= gen.uniform(0.5, 3.0) / np.linalg.norm(noise)
    residual = a @ np.linalg.solve(a.T @ a, -gradient) + noise
    return a, a @ x_star + residual, lower, upper, x_star


class TestSolverOracle:
    """The in-house solver against scipy's bounded least squares."""

    @settings(max_examples=200, deadline=None)
    @given(bounded_linear_problems())
    def test_bounded_linear_matches_lsq_linear(self, problem):
        # x is held to 1e-6 where A, columns scaled to unit norm, has no
        # singular value below 0.25: along a direction of singular value s
        # the chi-square stopping rule places x only to about
        # 1e-4 sqrt(chi2) damping / s^3. In 60,000 draws the two farthest
        # from the reference (8.0e-7 and 7.5e-7 off) had s of 0.16 and
        # 0.08; none with s >= 0.25 came beyond 3.8e-7.
        a, b, lower, upper, x_star = problem
        conditioned = np.linalg.svd(a / np.linalg.norm(a, axis=0), compute_uv=False)[-1] >= 0.25
        reference = scipy.optimize.lsq_linear(a, b, bounds=(lower, upper), method="bvls")
        np.testing.assert_allclose(reference.x, x_star, rtol=0, atol=1e-9)
        gen = np.random.default_rng(0)
        free = {
            f"x{i}": (lo + gen.uniform() * (hi - lo), lo, hi)
            for i, (lo, hi) in enumerate(zip(lower, upper))
        }
        result = _fit_least_squares(lambda x: (a @ x - b, a), free, 1, None)
        x = np.array([est.value for est in result.estimates.values()])
        chi2 = float(np.sum((a @ reference.x - b) ** 2))
        assert result.converged
        assert result.residual_norm == pytest.approx(chi2, rel=1e-8)
        if conditioned:
            assert np.all(np.abs(x - reference.x) <= 1e-6 * np.maximum(1.0, np.abs(reference.x)))
        at_bound = [est.at_bound for est in result.estimates.values()]
        assert at_bound == list(reference.active_mask != 0)

    @staticmethod
    def scipy_trf(evaluate, free):
        start, lower, upper = (np.array(column) for column in zip(*free.values()))
        return scipy.optimize.least_squares(
            lambda x: evaluate(x)[0],
            start,
            jac=lambda x: evaluate(x)[1],
            bounds=(lower, upper),
            method="trf",
            x_scale="jac",
        )

    def test_fit_workload_against_trf(self):
        # The eight fits of the benchmark's fit workload on seed 1: each
        # draws its three curves from the next four seeds (the fourth is the
        # job's config seed), as bench/workloads.py does.
        seeds = np.random.default_rng(1).integers(0, 2**31, size=8 * 4).tolist()
        for k in range(8):
            datasets, specs = TestJointFit.benchmark_fit_inputs(seeds[4 * k : 4 * k + 3])
            free, evaluate = _joint_problem(datasets, specs, ("sigma",))
            result = _fit_least_squares(evaluate, free, 1, None)
            reference = self.scipy_trf(evaluate, free)
            assert result.converged and reference.success
            assert result.residual_norm <= 2.0 * reference.cost * (1.0 + 1e-8)
            for est, value in zip(result.estimates.values(), reference.x):
                assert abs(est.value - value) <= 0.05 * est.stderr

    def test_meter_scans_against_trf(self):
        meter = dk.EnergyMeter()
        line = dk.Emitter(1_300_000.0, REF_GAMMA, REF_GAMMA_PD, REF_SIGMA)
        half = meter.window(line)
        gen = dk.RngSeed(32).generator()
        for _ in range(200):
            center = line.energy + gen.uniform(-5.0, 5.0)
            grid = np.arange(center - half, center + half + 0.5 * meter.step, meter.step)
            spectrum = dk.synth_spectrum(
                dk.EmitterSystem((line,)), meter.instrument, grid, meter.snr, gen
            )
            x = spectrum.energies - 0.5 * (spectrum.energies[0] + spectrum.energies[-1])
            y = spectrum.intensities
            free = _peak_start(x, y, meter.instrument.resolution_fwhm)

            def evaluate(theta):
                model, jacobian = _peak_model(theta, x)
                return model - y, jacobian

            result = _fit_least_squares(evaluate, free, 1, None)
            reference = self.scipy_trf(evaluate, free)
            assert result.converged and reference.success
            assert result.residual_norm <= 2.0 * reference.cost * (1.0 + 1e-8)
            assert result.estimates["center"].value == pytest.approx(reference.x[2], abs=1e-5)


def scipy_maxima(y, floor, distance):
    """The seeder's oracle: the tallest of ``find_peaks``' maxima and its
    ``peak_widths``."""
    idx, _ = scipy.signal.find_peaks(y, prominence=floor, distance=distance)
    tallest = idx[np.argmax(y[idx])]
    return tallest, scipy.signal.peak_widths(y, [tallest], rel_height=0.5)[0][0]


def bits(value):
    return np.float64(value).tobytes()


class TestPeakSeeder:
    """The numpy seeder picks the sample and width scipy.signal does, bit for bit."""

    def meter_scans(self):
        meter = dk.EnergyMeter()
        line = dk.Emitter(1_300_000.0, REF_GAMMA, REF_GAMMA_PD, REF_SIGMA)
        half = meter.window(line)
        gen = dk.RngSeed(31).generator()
        for _ in range(40):
            center = line.energy + gen.uniform(-5.0, 5.0)
            grid = np.arange(center - half, center + half + 0.5 * meter.step, meter.step)
            system = dk.EmitterSystem((line,))
            yield dk.synth_spectrum(system, meter.instrument, grid, meter.snr, gen)

    def test_meter_scans(self):
        scans = list(self.meter_scans())
        assert 480 <= scans[0].energies.size <= 520
        for spectrum in scans:
            y = spectrum.intensities
            assert _tallest_line(y) == scipy_maxima(y, 0.05 * np.ptp(y), 4)
            assert bits(_fifth_percentile(y)) == bits(np.percentile(y, 5))

    @settings(max_examples=300, deadline=None)
    @given(
        y=hnp.arrays(
            float,
            st.integers(2, 7000),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @example(y=np.array([-1e308] * 2 + [1e308] * 19))  # inf * 0 at an exact index
    def test_background_is_numpys_fifth_percentile(self, y):
        # The background start is np.percentile(y, 5) to the bit, signed
        # zeros and overflowing differences included.
        with np.errstate(over="ignore", invalid="ignore"):
            assert bits(_fifth_percentile(y)) == bits(np.percentile(y, 5))

    @settings(max_examples=300, deadline=None)
    @given(y=st.lists(st.integers(-3, 3), min_size=3, max_size=40))
    def test_plateaus_and_ties(self, y):
        # Small integers make flat stretches and equal base candidates
        # common; below a maximum on one interior sample they must not move
        # the bases or the width.
        y = np.array(y, dtype=float)
        p = int(np.argmax(y))
        assume(0 < p < y.size - 1 and np.count_nonzero(y == y[p]) == 1)
        assert _tallest_line(y) == scipy_maxima(y, None, None)

    def test_maximum_on_the_first_sample(self):
        # The tallest sample is the first one, which scipy.signal would pass
        # over for the lower interior bump. The line starts on it, and with no
        # base beyond it its width starts at 1.2 instrument resolutions.
        x = np.arange(0.0, 60.0, 0.6)
        y = 1.0 / (1.0 + 4.0 * (x / 5.0) ** 2) + 0.3 * np.exp(-(((x - 40.0) / 3.0) ** 2))
        assert _tallest_line(y) == (0, 0.0)
        start = _peak_start(x, y, 2.4)
        assert start["center"] == (x[0], x[0], x[-1])
        assert start["fwhm"][0] == 1.2 * 2.4
