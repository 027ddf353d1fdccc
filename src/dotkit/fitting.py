"""Parameter estimation: g2 curve fits and the location of one spectral line.

Both run on one estimator, a bounded Levenberg-Marquardt least squares
written here (``_fit_least_squares``), with standard errors from the
Jacobian at the optimum. g2 fits, single or joint, minimize the
error-weighted sum of squares between data and the forward model
(convolved with the timing response) from the guess plus randomized
restarts. Their Jacobian is exact: a fit parameter acts on all emitters
alike, so each column is a piece of the model times a power of the delay,
blurred and read at the data delays as the model is. Model and columns
(``_g2_columns``) read one pass of the coherence kernel that g2_general
reads, so each solver point costs one kernel pass per curve.
A spectrum holding one line is fit as a pseudo-Voigt profile over a
constant background, from one start on its tallest sample, with an
analytic Jacobian; having no per-point errors, its covariance is scaled
by the residual variance. Nothing here imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .emitters import (
    HBAR_UEV_NS,
    EmitterSystem,
    G2Curve,
    Irf,
    _blur,
    _format_table,
    _system_coherence,
    g2_general,
    gaussian_kernel,
    identical_system,
)
from .errors import DegenerateDataError, FitFailureError, ParameterError
from .montecarlo import as_generator
from .spectra import Spectrum

# Model parameters understood by the g2 fitter. "delta_ueV" is the energy
# spacing between consecutive emitters; "scale" a free overall
# normalization of the curve.
G2_PARAM_NAMES = ("gamma", "gamma_pd", "sigma", "delta_ueV", "scale")


@dataclass(frozen=True)
class FitSpec:
    """What to fit: the model family, fixed values, and free parameters.

    ``free`` maps a parameter name to (guess, lower, upper). The "ideal"
    model needs ``n`` in ``fixed`` (emitter count); "general" needs
    ``base_system`` supplying per-emitter intensities and positions, with
    named parameters overriding the shared rates on every emitter.
    """

    model: str = "ideal"
    coherent: bool = True
    fixed: Mapping[str, float] = field(default_factory=dict)
    free: Mapping[str, tuple[float, float, float]] = field(default_factory=dict)
    irf: Irf | None = None
    base_system: EmitterSystem | None = None
    n_restarts: int = 3

    def __post_init__(self):
        if self.model not in ("ideal", "general"):
            raise ParameterError(f"model must be 'ideal' or 'general', got {self.model!r}")
        allowed = set(G2_PARAM_NAMES) | ({"n"} if self.model == "ideal" else set())
        overlap = set(self.fixed) & set(self.free)
        if overlap:
            raise ParameterError(f"parameters both fixed and free: {sorted(overlap)}")
        unknown = (set(self.fixed) | set(self.free)) - allowed
        if unknown:
            raise ParameterError(f"unknown fit parameters: {sorted(unknown)}")
        if self.model == "ideal" and "n" not in self.fixed:
            raise ParameterError("ideal model requires fixed emitter count 'n'")
        if self.model == "general" and self.base_system is None:
            raise ParameterError("general model requires a base_system")
        if self.n_restarts < 1:
            raise ParameterError("need at least one start")
        for name, (guess, lo, hi) in self.free.items():
            if not lo < hi:
                raise ParameterError(
                    f"bounds [{lo:g}, {hi:g}] of {name!r} leave no room; hold it in 'fixed'"
                )
            if not lo <= guess <= hi:
                raise ParameterError(
                    f"guess {guess:g} for {name!r} outside bounds [{lo:g}, {hi:g}]"
                )


@dataclass(frozen=True)
class ParamEstimate:
    value: float
    stderr: float
    at_bound: bool = False


@dataclass(frozen=True)
class FitResult:
    """Best-fit parameters with standard errors from the fit's Jacobian.

    ``residual_norm`` is the chi-square at the optimum, ``n_iterations``
    the number of points the winning start accepted, its start included
    (``len(history) + 1``), and ``history`` its chi-square after every step
    it took, which never rises.
    """

    estimates: dict[str, ParamEstimate]
    residual_norm: float
    n_iterations: int
    converged: bool
    history: tuple[float, ...] = ()

    def values(self) -> dict[str, float]:
        return {name: est.value for name, est in self.estimates.items()}


def _base_system(spec: FitSpec) -> EmitterSystem:
    """The emitters the fit parameters act on: for the ideal model ``n`` of
    unit rate at one energy, for the general model ``spec.base_system``."""
    if spec.model == "ideal":
        return identical_system(int(spec.fixed["n"]), 1.0)
    return spec.base_system


def _build_system(base: EmitterSystem, params: Mapping[str, float]) -> EmitterSystem:
    """``base`` at ``params``, one new Emitter per emitter: the rates
    ``params`` names, and emitter k at k delta above the reference."""
    delta = params.get("delta_ueV")
    updates = {name: params[name] for name in ("gamma", "gamma_pd", "sigma") if name in params}
    emitters = []
    for k, e in enumerate(base.emitters):
        if delta is not None:
            updates["energy"] = e.energy + (base.reference_energy + k * delta - e.energy)
        emitters.append(replace(e, **updates) if updates else e)
    return EmitterSystem(tuple(emitters), base.reference_energy)


def _model_grid(spec: FitSpec, delays: np.ndarray):
    """Delays at which the model is evaluated, and the timing response's
    kernel on their step (None without a response)."""
    if spec.irf is None:
        return delays, None
    data_step = np.diff(delays).min() if delays.size >= 2 else spec.irf.fwhm / 8.0
    step = min(float(data_step), spec.irf.fwhm / 8.0)
    pad = 4.0 * spec.irf.fwhm
    grid = np.arange(delays[0] - pad, delays[-1] + pad + 0.5 * step, step)
    return grid, gaussian_kernel(step, spec.irf.fwhm)


def _observe(values, grid, kernel, delays) -> np.ndarray:
    """``values`` on the model grid as the data sees them: blurred, at ``delays``."""
    if kernel is None:
        return values
    return np.interp(delays, grid, _blur(values, kernel))


def evaluate_fit_model(spec: FitSpec, params: Mapping[str, float], delays) -> np.ndarray:
    """Forward model at the given delays, IRF included when the spec has one."""
    delays = np.asarray(delays, dtype=float)
    grid, kernel = _model_grid(spec, delays)
    shape = g2_general(_build_system(_base_system(spec), params), grid, spec.coherent)
    return params.get("scale", 1.0) * _observe(shape, grid, kernel, delays)


def _g2_columns(system: EmitterSystem, t: np.ndarray, coherent: bool) -> dict[str, np.ndarray]:
    """The g2 model's derivative by each fit parameter at delays ``t >= 0``,
    keyed by name; ``scale`` maps to the unscaled model itself.

    All of them read one pass of the coherence kernel
    (:func:`dotkit.emitters._coherence`), which gives the model
    1 - decay + pair, the field F and the ladder sum G = sum k w_k a_k in
    real and imaginary parts. A fit parameter moves every emitter alike, so
    each derivative is a piece of the model times a factor of t:
    d/dgamma_pd = -2 t pair, d/dsigma = -8 pi^2 sigma t^2 pair,
    d/dgamma = t (decay - pair) and, emitter k sitting k delta above
    emitter 0, d/ddelta = -(2 t / hbar) (Re F Im G - Im F Re G).
    """
    decay, pair, f_re, f_im, g_re, g_im = _system_coherence(system, t, coherent, ladder=True)
    return {
        "gamma": t * (decay - pair),
        "gamma_pd": -2.0 * t * pair,
        # A free sigma is every emitter's sigma.
        "sigma": -8.0 * math.pi**2 * system.emitters[0].sigma * t**2 * pair,
        "delta_ueV": -2.0 * t / HBAR_UEV_NS * (f_re * g_im - f_im * g_re),
        "scale": 1.0 - decay + pair,
    }


def _check_fit_data(data: G2Curve, n_free: int) -> None:
    if data.errors is None or not np.all(np.isfinite(data.errors) & (data.errors > 0)):
        raise ParameterError("fit data needs finite, positive per-point errors")
    if np.ptp(data.values) == 0:
        raise DegenerateDataError("all data values are equal; nothing to fit")
    need = 10 * max(n_free, 1)
    if data.values.size < need:
        raise ParameterError(
            f"need >= {need} points for {n_free} free parameters, got {data.values.size}"
        )


# Stopping rules of scipy's least_squares: relative chi-square decrease,
# relative step length and gradient, and model evaluations per parameter.
_FTOL = _XTOL = _GTOL = 1e-8
_MAX_NFEV_PER_PARAM = 100
# Damping of the first step, relative to the scaled Gauss-Newton matrix.
_DAMPING_START = 1e-3


def _levenberg_marquardt(evaluate, x, lower, upper):
    """One bounded Levenberg-Marquardt run from ``x``, ``evaluate`` returning
    the residuals and their Jacobian at a point.

    Each step solves (J^T J + damping D^2) p = -J^T f over the free
    parameters, with D the largest column norms of J met so far (Moré,
    LNM 630, 1978), so parameters of any unit are damped alike. A
    parameter on a bound whose gradient points out of the box is held for
    the step, and the step is clipped into the box. A step that lowers the
    chi-square is taken and the damping scaled by its gain ratio as Nielsen
    (IMM-REP-1999-05) does, though falling up to 10x a step as in
    Marquardt's rule; a step that does not is retried with more damping.
    It stops as scipy's least_squares does: a taken step that lowers the
    chi-square by under ``_FTOL`` of it, a step under ``_XTOL`` of |x|, a
    free gradient under ``_GTOL`` in cosine (Moré's form), or the
    evaluation budget spent.

    Every evaluation yields the Jacobian too, as nearly every point
    evaluated is a step taken; a rejected trial step discards its Jacobian.
    Returns x, the Jacobian there, the chi-square, the chi-square after
    each taken step, and whether a stopping rule was met.
    """
    f, jacobian = evaluate(x)
    chi2 = float(f @ f)
    n_fev, max_fev = 1, _MAX_NFEV_PER_PARAM * x.size
    history: list[float] = []
    scale = None
    damping, growth = _DAMPING_START, 2.0
    converged = False
    while True:
        gradient = jacobian.T @ f
        normal = jacobian.T @ jacobian
        norms = np.sqrt(np.diag(normal))
        scale = np.where(norms > 0, norms, 1.0) if scale is None else np.maximum(scale, norms)
        held = ((x <= lower) & (gradient > 0)) | ((x >= upper) & (gradient < 0))
        free = np.flatnonzero(~held)
        cosines = np.abs(gradient[free]) / np.where(norms[free] > 0, norms[free], np.inf)
        if cosines.max(initial=0.0) <= _GTOL * math.sqrt(chi2):
            converged = True
            break
        inner = normal[np.ix_(free, free)]
        taken = False
        while n_fev < max_fev and not (taken or converged):
            step = np.zeros_like(x)
            step[free] = np.linalg.solve(
                inner + damping * np.diag(scale[free] ** 2), -gradient[free]
            )
            trial = np.clip(x + step, lower, upper)
            step = trial - x
            f_trial, jacobian_trial = evaluate(trial)
            n_fev += 1
            chi2_trial = float(f_trial @ f_trial)
            decrease = chi2 - chi2_trial
            predicted = -(2.0 * gradient @ step + step @ normal @ step)
            ratio = decrease / predicted if predicted > 0 else 0.0
            converged = bool(
                (decrease < _FTOL * chi2 and ratio > 0.25)
                or np.linalg.norm(step) < _XTOL * (_XTOL + np.linalg.norm(x))
            )
            if decrease > 0:
                x, f, chi2, jacobian = trial, f_trial, chi2_trial, jacobian_trial
                history.append(chi2)
                damping *= max(0.1, 1.0 - (2.0 * ratio - 1.0) ** 3)
                growth = 2.0
                taken = True
            else:
                damping *= growth
                growth *= 2.0
        if converged or not taken:  # not taken: the evaluation budget is spent
            break
    return x, jacobian, chi2, history, converged


def _fit_least_squares(evaluate, free, n_restarts, gen) -> FitResult:
    """Minimize the error-weighted residuals from the guess plus random starts.

    Each start runs :func:`_levenberg_marquardt` on ``evaluate``, which
    returns the residuals and their Jacobian at a point; the start with the
    lowest chi-square wins. Its final Jacobian J gives the covariance
    (J^T J)^-1, the Gauss-Newton inverse of half the chi-square Hessian.
    ``gen`` draws the random starts and may be None when ``n_restarts`` is 1.
    """
    names = list(free)
    guesses = np.array([free[name][0] for name in names], dtype=float)
    lower = np.array([free[name][1] for name in names], dtype=float)
    upper = np.array([free[name][2] for name in names], dtype=float)
    starts = [guesses]
    for _ in range(n_restarts - 1):
        starts.append(lower + gen.uniform(size=len(names)) * (upper - lower))
    runs = [_levenberg_marquardt(evaluate, start, lower, upper) for start in starts]
    x, jacobian, chi2, history, converged = min(runs, key=lambda run: run[2])
    stderr = np.sqrt(np.maximum(np.diag(np.linalg.pinv(jacobian.T @ jacobian)), 0.0))
    edge = 1e-9 + 1e-6 * (upper - lower)
    estimates = {
        name: ParamEstimate(
            value=float(x[i]),
            stderr=float(stderr[i]),
            at_bound=bool(x[i] <= lower[i] + edge[i] or x[i] >= upper[i] - edge[i]),
        )
        for i, name in enumerate(names)
    }
    return FitResult(
        estimates=estimates,
        residual_norm=chi2,
        n_iterations=len(history) + 1,
        converged=converged,
        history=tuple(history),
    )


def fit_g2(data: G2Curve, spec: FitSpec, rng=None) -> FitResult:
    """Fit one g2 curve. Non-convergence returns converged=False with the
    best point found rather than raising."""
    return fit_g2_joint([data], [spec], shared=tuple(spec.free), rng=rng)


class _CurveTerm:
    """One curve's rows of a joint fit: its residuals and their Jacobian.

    ``columns`` maps each of the curve's free parameters to its column in
    the joint parameter vector of ``width`` entries. The model grid and
    timing kernel are made once, as the curve's delays never change, and so
    are the emitters the parameters act on.
    """

    def __init__(self, data: G2Curve, spec: FitSpec, columns: Mapping[str, int], width: int):
        self.data, self.spec, self.columns, self.width = data, spec, columns, width
        self.grid, self.kernel = _model_grid(spec, data.delays)
        self.base = _base_system(spec)

    def evaluate(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Residuals and Jacobian rows at ``theta`` from one column pass,
        whose ``scale`` column is the unscaled model."""
        params = dict(self.spec.fixed)
        params.update((name, theta[j]) for name, j in self.columns.items())
        system = _build_system(self.base, params)
        columns = _g2_columns(system, np.abs(self.grid), self.spec.coherent)
        data, scale = self.data, params.get("scale", 1.0)
        observed = {
            name: _observe(columns[name], self.grid, self.kernel, data.delays)
            for name in {"scale", *self.columns}
        }
        rows = np.zeros((data.values.size, self.width))
        for name, j in self.columns.items():
            rows[:, j] = (-1.0 if name == "scale" else -scale) * observed[name] / data.errors
        return (data.values - scale * observed["scale"]) / data.errors, rows


def _joint_problem(datasets, specs, shared):
    """Free parameters of a joint fit, and ``evaluate(theta)``, its residuals
    and Jacobian: each curve's rows (:meth:`_CurveTerm.evaluate`) stacked,
    zero in the columns of the parameters that do not move the curve.
    """
    if len(datasets) != len(specs) or not datasets:
        raise ParameterError("need one spec per data set")
    shared = list(shared)
    for name in shared:
        if any(name not in spec.free for spec in specs):
            raise ParameterError(f"shared parameter {name!r} not free in every spec")
        if any(spec.free[name][1:] != specs[0].free[name][1:] for spec in specs):
            raise ParameterError(f"shared parameter {name!r} has mismatched bounds")
    free: dict[str, tuple[float, float, float]] = {}
    for name in shared:
        free[name] = specs[0].free[name]
    slots: list[dict[str, str]] = []
    for k, spec in enumerate(specs):
        mapping: dict[str, str] = {}
        for name in spec.free:
            mapping[name] = name if name in shared else f"curve{k}.{name}"
            if name not in shared:
                free[mapping[name]] = spec.free[name]
        slots.append(mapping)
    for data, spec in zip(datasets, specs):
        _check_fit_data(data, len(spec.free))
    if not free:
        raise ParameterError("no free parameters to fit")

    names = list(free)
    terms = [
        _CurveTerm(data, spec, {local: names.index(q) for local, q in mapping.items()}, len(names))
        for data, spec, mapping in zip(datasets, specs, slots)
    ]

    def evaluate(theta):
        residuals, rows = zip(*(term.evaluate(theta) for term in terms))
        return np.concatenate(residuals), np.concatenate(rows)

    return free, evaluate


def fit_g2_joint(
    datasets: Sequence[G2Curve],
    specs: Sequence[FitSpec],
    shared: Sequence[str] = ("sigma", "gamma_pd"),
    rng=None,
) -> FitResult:
    """Fit several curves at once with tied parameters.

    Parameters named in ``shared`` must be free in every spec with the same
    bounds and are estimated once for the whole data set; the remaining
    free parameters are per curve and reported as ``curve<k>.<name>``.
    Non-convergence returns converged=False with the best point found.
    """
    free, evaluate = _joint_problem(datasets, specs, shared)
    gen = as_generator(rng if rng is not None else 0)
    n_restarts = max(spec.n_restarts for spec in specs)
    return _fit_least_squares(evaluate, free, n_restarts, gen)


def joint_curve_params(result: FitResult, specs: Sequence[FitSpec]) -> list[dict[str, float]]:
    """Split a joint-fit result back into per-curve parameter dicts."""
    values = result.values()
    out = []
    for k, spec in enumerate(specs):
        params = dict(spec.fixed)
        for name in spec.free:
            qualified = name if name in values else f"curve{k}.{name}"
            params[name] = values[qualified]
        out.append(params)
    return out


def _line_shapes(z):
    """Unit-height Lorentzian and Gaussian at z = (x - center) / fwhm."""
    return 1.0 / (1.0 + 4.0 * z**2), np.exp(-4.0 * math.log(2.0) * z**2)


@dataclass(frozen=True)
class PeakFit:
    """One fitted emission line."""

    center: float
    center_err: float
    fwhm: float
    amplitude: float


# background, eta, center, fwhm, height: the free parameters of a line fit.
_PEAK_PARAMETERS = 5


def _peak_model(theta, x):
    """Background plus one pseudo-Voigt line, and the model's Jacobian.

    ``theta`` is (background, eta, center, fwhm, height), ``eta`` being the
    Lorentzian fraction. Both arrays take ``theta``'s dtype, so a complex
    ``theta`` gives complex-step derivatives.
    """
    background, eta, center, width, height = theta
    z = (x - center) / width
    lorentz, gauss = _line_shapes(z)
    shape = eta * lorentz + (1.0 - eta) * gauss
    # d(shape)/dz, using dL/dz = -8 z L^2 and dG/dz = -8 ln2 z G
    slope = -8.0 * z * (eta * lorentz**2 + (1.0 - eta) * math.log(2.0) * gauss)
    model = np.full(x.shape, background, dtype=theta.dtype)
    model += height * shape
    jac = np.empty((x.size, theta.size), dtype=theta.dtype)
    jac[:, 0] = 1.0
    jac[:, 1] = height * (lorentz - gauss)
    jac[:, 2] = -height * slope / width
    jac[:, 3] = -height * slope * z / width
    jac[:, 4] = shape
    return model, jac


def _tallest_line(y):
    """Index of the tallest sample (the first on ties) and the line's width.

    The line's bases are the lowest sample on each side of it, the nearest
    on ties, and its width in samples is taken at half its prominence
    (height over the higher base), interpolated between samples. For a
    maximum on one interior sample this is the tallest maximum of
    ``scipy.signal.find_peaks`` and its ``peak_widths``. A maximum on the
    first or last sample has no base beyond it, hence zero prominence and
    zero width.
    """
    p = int(np.argmax(y))
    left = p - int(np.argmin(y[p::-1]))
    right = p + int(np.argmin(y[p:]))
    prominence = y[p] - max(y[left], y[right])
    height = y[p] - prominence * 0.5
    below = np.flatnonzero(y[left + 1 : p + 1] <= height)
    i = left + 1 + below[-1] if below.size else left
    start = i + ((height - y[i]) / (y[i + 1] - y[i]) if y[i] < height else 0.0)
    below = np.flatnonzero(y[p:right] <= height)
    i = p + below[0] if below.size else right
    stop = i - ((height - y[i]) / (y[i - 1] - y[i]) if y[i] < height else 0.0)
    return p, stop - start


def _fifth_percentile(y) -> float:
    """``np.percentile(y, 5)`` of a finite array of two or more samples,
    from one partition.

    It follows numpy's linear rule to the bit: the virtual index
    (n - 1) * 0.05, then numpy's interpolation, which counts back from the
    upper neighbour when the fraction is at least one half.
    """
    index = (y.size - 1) * 0.05
    below = math.floor(index)
    a, b = np.partition(y, (below, below + 1))[below : below + 2].tolist()
    t = index - below
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def _peak_start(x, y, instrument_fwhm: float):
    """Starting point and bounds of a line fit, keyed by parameter name.

    The line starts on the tallest sample, an edge sample included, with
    its measured half-maximum width but no narrower than 1.2 instrument
    resolutions.
    """
    p, width = _tallest_line(y)
    width = max(width * (x[1] - x[0]), 1.2 * instrument_fwhm)
    background = _fifth_percentile(y)
    span = float(x[-1] - x[0])
    return {
        "background": (background, 0.0, max(float(y.max()), 1e-30)),
        "eta": (0.3, 0.0, 1.0),
        "center": (float(x[p]), float(x[0]), float(x[-1])),
        "fwhm": (min(float(width), span), 0.3 * instrument_fwhm, span),
        "height": (
            max(float(y[p]) - background, 1e-3 * np.ptp(y)),
            0.0,
            2.0 * float(np.ptp(y)) + 1e-30,
        ),
    }


def fit_spectrum_peaks(spectrum: Spectrum, instrument_fwhm: float | None = None) -> PeakFit:
    """Locate one emission line as a pseudo-Voigt peak over a flat background.

    The fit starts on the spectrum's tallest sample (see :func:`_peak_start`);
    a line whose maximum falls on the first or last sample is fit from
    there, and a caller that wants it inside the window rescans around the
    fitted center, as :class:`dotkit.tuning.EnergyMeter` does.
    ``center_err`` comes from the fit's covariance scaled by the residual
    variance (the spectrum carries no per-point errors).
    """
    if spectrum.energies.size <= _PEAK_PARAMETERS:
        raise ParameterError(
            f"a line fit needs >= {_PEAK_PARAMETERS + 1} spectrum samples, "
            f"got {spectrum.energies.size}"
        )
    if instrument_fwhm is None:
        instrument_fwhm = spectrum.instrument.resolution_fwhm
    if spectrum.step > instrument_fwhm / 3.0 + 1e-12:
        raise ParameterError("spectrum grid must be finer than instrument_fwhm/3")

    # Fit in offsets from the grid midpoint: the optimizer's relative step
    # tolerance then acts on ueV-scale centers, not on ~1e6 ueV energies.
    origin = 0.5 * (spectrum.energies[0] + spectrum.energies[-1])
    x, y = spectrum.energies - origin, spectrum.intensities
    free = _peak_start(x, y, instrument_fwhm)

    def evaluate(theta):
        model, jacobian = _peak_model(theta, x)
        return model - y, jacobian

    result = _fit_least_squares(evaluate, free, n_restarts=1, gen=None)
    if not result.converged:
        raise FitFailureError("peak fit did not converge")
    variance_scale = math.sqrt(result.residual_norm / (x.size - len(free)))
    est = result.estimates
    return PeakFit(
        center=origin + est["center"].value,
        center_err=est["center"].stderr * variance_scale,
        fwhm=est["fwhm"].value,
        amplitude=est["height"].value,
    )


def format_fit_report(result: FitResult, title: str = "g2 fit") -> str:
    """Human-readable fit summary."""
    lines = [
        title,
        "-" * len(title),
        f"converged      : {'yes' if result.converged else 'NO'}",
        f"iterations     : {result.n_iterations}",
        f"residual_norm  : {result.residual_norm:.6g}",
        "",
        f"{'parameter':<18} {'estimate':>14} {'stderr':>12}  bound",
    ]
    for name, est in result.estimates.items():
        flag = "AT BOUND" if est.at_bound else "interior"
        lines.append(f"{name:<18} {est.value:>14.6g} {est.stderr:>12.3g}  {flag}")
    return "\n".join(lines) + "\n"


def fit_params_table(result: FitResult) -> str:
    """Machine-readable key-value block of the fit result."""
    rows = [(name, est.value, est.stderr, est.at_bound) for name, est in result.estimates.items()]
    rows.append(("residual_norm", result.residual_norm, 0, 0))
    rows.append(("converged", int(result.converged), 0, 0))
    header = ["# name\testimate\tstderr\tat_bound"]
    return _format_table(header, "%s\t%.10g\t%.10g\t%d", zip(*rows))
