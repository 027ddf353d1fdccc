"""Stochastic-trajectory oracle for g2 and a synthetic coincidence generator.

The pair-coherence factor of the analytic model is re-derived here by
sampling first-order coherence trajectories: a quasi-static frequency
offset per realization (spectral diffusion) and a Wiener phase (pure
dephasing) per emitter. The same-emitter incoherent term is taken
analytically; only the interference factor needs Monte Carlo validation.

Trajectories are carried as real phases, not complex exponentials: the
interference depends only on phase differences, so each emitter's phase is
taken relative to a reference emitter's and enters through one cos/sin.
Each distinct |tau| of the delay grid is sampled once; a grid that is
exactly symmetric about zero therefore costs half its points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .emitters import (
    HBAR_UEV_NS,
    Emitter,
    EmitterSystem,
    G2Curve,
    Irf,
)
from .errors import (
    EmptyPlateauError,
    EmptyWindowError,
    GridCoverageError,
    ParameterError,
)

# Realizations are simulated in fixed-size blocks, each on its own RNG
# substream, so a parallel split over blocks reproduces the sequential
# result bit for bit.
BLOCK_SIZE = 20_000


@dataclass(frozen=True)
class RngSeed:
    """Root seed plus a substream index for deterministic parallelism."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        )

    def block_generator(self, block: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, block))
        )


def as_generator(rng) -> np.random.Generator:
    """Accept an RngSeed, a Generator, or an int seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngSeed):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return RngSeed(int(rng)).generator()
    raise ParameterError(f"cannot interpret {rng!r} as a random generator")


@dataclass(frozen=True)
class G2Histogram:
    """Binned coincidence counts with normalization metadata."""

    bin_edges: np.ndarray
    counts: np.ndarray
    normalization_window: tuple[float, float]
    seed: RngSeed | None = None
    n_events: int | None = None
    irf_fwhm: float | None = None

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)
        if edges.ndim != 1 or edges.size != counts.size + 1:
            raise ParameterError("need len(bin_edges) == len(counts) + 1")
        widths = np.diff(edges)
        if not np.allclose(widths, widths[0], rtol=1e-6, atol=1e-12):
            raise ParameterError("bin width must be uniform")
        if np.any(counts < 0):
            raise ParameterError("counts must be >= 0")
        lo, hi = self.normalization_window
        if not 0 <= lo < hi:
            raise ParameterError("normalization window must satisfy 0 <= lo < hi")

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def _phase_trajectories(
    e: Emitter,
    omega: float,
    u: np.ndarray,
    n: int,
    gen: np.random.Generator,
) -> np.ndarray:
    """Phase samples phi(u) in rad of one emitter, shape (n, len(u)).

    The emitter's first-order coherence is g1(u) = exp(-gamma u / 2)
    exp(i phi(u)). ``u`` is a sorted grid of nonnegative delays; the Wiener
    dephasing phase accumulates over its segments. ``omega`` is the
    deterministic angular frequency in rad/ns (already referenced to keep
    phases small). Draws one frequency offset per realization, then one
    normal per realization and delay; the array is built in place.
    """
    offsets = gen.normal(0.0, 2.0 * math.pi * e.sigma, size=(n, 1))
    segments = np.diff(u, prepend=0.0)
    phase = gen.normal(size=(n, u.size))
    phase *= np.sqrt(2.0 * e.gamma_pd * segments)
    np.cumsum(phase, axis=1, out=phase)
    phase += (omega + offsets) * u
    return phase


def _block_sizes(n_real: int) -> list[int]:
    sizes = [BLOCK_SIZE] * (n_real // BLOCK_SIZE)
    if n_real % BLOCK_SIZE:
        sizes.append(n_real % BLOCK_SIZE)
    return sizes


def mc_coherence_pair(
    e_i: Emitter,
    e_j: Emitter,
    tau,
    n_real: int,
    rng: RngSeed,
):
    """Monte Carlo estimate of the pair-coherence factor
    exp(-Gamma_ij tau - 2 pi^2 sigma_ij^2 tau^2) cos(d_ij tau).

    Each realization contributes Re[g1_i conj(g1_j)], taken as one cosine
    of the phase difference times both decays. Each distinct |tau| is
    sampled once. Returns (mean, standard_error); arrays when ``tau`` is an
    array.
    """
    if n_real < 100:
        raise ParameterError(f"need n_real >= 100, got {n_real}")
    t = np.atleast_1d(np.abs(np.asarray(tau, dtype=float)))
    u, inverse = np.unique(t, return_inverse=True)
    mid = 0.5 * (e_i.energy + e_j.energy)
    om_i = (e_i.energy - mid) / HBAR_UEV_NS
    om_j = (e_j.energy - mid) / HBAR_UEV_NS
    decay = np.exp(-0.5 * e_i.gamma * u) * np.exp(-0.5 * e_j.gamma * u)
    total = np.zeros(u.size)
    total_sq = np.zeros(u.size)
    for block, size in enumerate(_block_sizes(n_real)):
        gen = rng.block_generator(block)
        product = _phase_trajectories(e_i, om_i, u, size, gen)
        product -= _phase_trajectories(e_j, om_j, u, size, gen)
        np.cos(product, out=product)
        product *= decay
        total += product.sum(axis=0)
        product *= product
        total_sq += product.sum(axis=0)
    mean = total / n_real
    var = np.maximum(total_sq / n_real - mean**2, 0.0) * n_real / (n_real - 1)
    stderr = np.sqrt(var / n_real)
    mean, stderr = mean[inverse], stderr[inverse]
    if np.ndim(tau) == 0:
        return float(mean[0]), float(stderr[0])
    return mean, stderr


def mc_g2(
    system: EmitterSystem,
    tau_grid,
    n_real: int,
    rng: RngSeed,
) -> G2Curve:
    """Trajectory-sampled g2 on a delay grid, with per-point standard errors.

    The coherent interference of all pairs is sampled jointly per
    realization as |sum_i a_i exp(i phi_i)|^2 - sum_i a_i^2 with
    a_i = I_i exp(-gamma_i |tau| / 2), so the quoted errors include
    cross-pair correlations. The modulus does not change under a common
    phase, so the sum runs over real phases relative to the first
    emitter's: re = a_0 + sum a_i cos(psi_i), im = sum a_i sin(psi_i).
    Each distinct |tau| is sampled once, so the two sides of a grid that
    is exactly symmetric about zero share their draws.
    """
    if n_real < 100:
        raise ParameterError(f"need n_real >= 100, got {n_real}")
    tau = np.asarray(tau_grid, dtype=float)
    t = np.abs(tau)
    u, inverse = np.unique(t, return_inverse=True)
    weights = system.intensities
    total_intensity = weights.sum()
    energies = system.energies
    omegas = (energies - energies.mean()) / HBAR_UEV_NS
    decay = np.array([np.exp(-e.gamma * u) for e in system.emitters])
    amplitudes = [w * np.exp(-0.5 * e.gamma * u) for e, w in zip(system.emitters, weights)]
    self_terms = (weights[:, None] ** 2 * decay).sum(axis=0)

    coh_sum = np.zeros(u.size)
    coh_sum_sq = np.zeros(u.size)
    if len(system) > 1:
        (e0, om0, a0), *others = zip(system.emitters, omegas, amplitudes)
        for block, size in enumerate(_block_sizes(n_real)):
            gen = rng.block_generator(block)
            reference = _phase_trajectories(e0, om0, u, size, gen)
            re = np.broadcast_to(a0, (size, u.size)).copy()
            im = np.zeros((size, u.size))
            term = np.empty((size, u.size))
            for e, om, a in others:
                psi = _phase_trajectories(e, om, u, size, gen)
                psi -= reference
                np.cos(psi, out=term)
                term *= a
                re += term
                np.sin(psi, out=psi)
                psi *= a
                im += psi
            # In place: re becomes the sample re^2 + im^2 - sum_i a_i^2,
            # then its square.
            re *= re
            im *= im
            re += im
            re -= self_terms
            coh_sum += re.sum(axis=0)
            re *= re
            coh_sum_sq += re.sum(axis=0)
    mean = coh_sum / n_real
    var = np.maximum(coh_sum_sq / n_real - mean**2, 0.0) * n_real / (n_real - 1)
    stderr = np.sqrt(var / n_real)

    incoherent = (weights[:, None] ** 2 * (1.0 - decay)).sum(axis=0)
    cross = total_intensity**2 - (weights**2).sum()
    values = (incoherent + cross + mean) / total_intensity**2
    errors = stderr / total_intensity**2
    return G2Curve(tau, values[inverse], errors[inverse])


def sample_coincidences(
    model: G2Curve,
    n_events: int,
    window: float,
    irf: Irf,
    rng: RngSeed,
    bin_width: float = 0.02,
    normalization_window: tuple[float, float] = (5.0, 10.0),
) -> G2Histogram:
    """Draw coincidence delays from a model curve and bin them.

    Delays are drawn on [-window, +window] by inverse transform on the
    discretized curve, then blurred with Gaussian timing jitter of the
    IRF's width; events jittered outside the window are redrawn so the
    histogram holds exactly ``n_events`` counts.
    """
    if window <= 0:
        raise EmptyWindowError(f"window must be > 0, got {window}")
    if n_events < 1:
        raise ParameterError(f"need n_events >= 1, got {n_events}")
    if model.delays[0] > -window or model.delays[-1] < window:
        raise GridCoverageError(
            f"model grid [{model.delays[0]:g}, {model.delays[-1]:g}] ns "
            f"does not cover the +-{window:g} ns window"
        )
    lo, hi = normalization_window
    if hi > window:
        raise ParameterError("normalization window must lie inside the sample window")

    # True delays are drawn from a window padded by the jitter reach so
    # events can also smear INTO the histogram range; beyond the model grid
    # the plateau is extended with the edge values.
    pad = 5.0 * irf.sigma
    reach = window + pad
    inside = (model.delays >= -reach) & (model.delays <= reach)
    x = model.delays[inside]
    y = np.maximum(model.values[inside], 0.0)
    if x.size == 0 or x[0] > -reach:
        left = model.values[0] if model.delays[0] > -reach else np.interp(
            -reach, model.delays, model.values
        )
        x = np.concatenate([[-reach], x])
        y = np.concatenate([[max(left, 0.0)], y])
    if x[-1] < reach:
        right = model.values[-1] if model.delays[-1] < reach else np.interp(
            reach, model.delays, model.values
        )
        x = np.concatenate([x, [reach]])
        y = np.concatenate([y, [max(right, 0.0)]])
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])
    if cdf[-1] <= 0:
        raise EmptyWindowError("model vanishes on the whole window")
    cdf /= cdf[-1]
    # Strictly increasing CDF so the piecewise-linear inverse is well defined.
    cdf = np.maximum.accumulate(cdf + np.linspace(0.0, 1e-12, cdf.size))
    cdf /= cdf[-1]

    gen = rng.generator()
    delays = np.empty(n_events)
    pending = np.arange(n_events)
    while pending.size:
        draw = np.interp(gen.uniform(size=pending.size), cdf, x)
        draw += gen.normal(0.0, irf.sigma, size=pending.size)
        delays[pending] = draw
        pending = pending[np.abs(draw) > window]

    n_bins = max(int(round(2.0 * window / bin_width)), 1)
    edges = np.linspace(-window, window, n_bins + 1)
    counts, _ = np.histogram(delays, bins=edges)
    return G2Histogram(
        bin_edges=edges,
        counts=counts,
        normalization_window=(float(lo), float(hi)),
        seed=rng,
        n_events=n_events,
        irf_fwhm=irf.fwhm,
    )


def normalize_histogram(histogram: G2Histogram) -> G2Curve:
    """Scale counts by the mean over the plateau window.

    Per-bin standard errors are Poisson, sqrt(count)/mean; empty bins get
    the error of a single count so they keep finite weight in fits.
    """
    centers = histogram.bin_centers
    lo, hi = histogram.normalization_window
    plateau = (np.abs(centers) >= lo) & (np.abs(centers) <= hi)
    if np.count_nonzero(histogram.counts[plateau] > 0) < 10:
        raise EmptyPlateauError(
            f"normalization window |tau| in [{lo:g}, {hi:g}] ns has fewer than "
            f"10 populated bins"
        )
    scale = histogram.counts[plateau].mean()
    values = histogram.counts / scale
    errors = np.sqrt(np.maximum(histogram.counts, 1)) / scale
    return G2Curve(centers, values, errors)


def write_histogram(path, histogram: G2Histogram) -> None:
    """Serialize a histogram as delimited text with metadata header lines."""
    lines = []
    if histogram.seed is not None:
        lines.append(f"# seed = {histogram.seed.seed}")
        lines.append(f"# stream_id = {histogram.seed.stream_id}")
    if histogram.n_events is not None:
        lines.append(f"# n_events = {histogram.n_events}")
    if histogram.irf_fwhm is not None:
        lines.append(f"# irf_fwhm_ns = {histogram.irf_fwhm:.10g}")
    lo, hi = histogram.normalization_window
    lines.append(f"# normalization_window_ns = {lo:.10g} {hi:.10g}")
    lines.append("# bin_center_ns\tcounts")
    for center, count in zip(histogram.bin_centers.tolist(), histogram.counts.tolist()):
        lines.append(f"{center:.10g}\t{int(count)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_histogram(path) -> G2Histogram:
    """Read a histogram written by :func:`write_histogram`."""
    meta: dict[str, str] = {}
    centers: list[float] = []
    counts: list[int] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        fields = line.split()
        centers.append(float(fields[0]))
        counts.append(int(fields[1]))
    if len(centers) < 2:
        raise ParameterError(f"histogram file {path} needs >= 2 bins")
    center_arr = np.asarray(centers)
    width = center_arr[1] - center_arr[0]
    edges = np.concatenate([center_arr - 0.5 * width, [center_arr[-1] + 0.5 * width]])
    window = tuple(float(v) for v in meta.get("normalization_window_ns", "5 10").split())
    seed = None
    if "seed" in meta:
        seed = RngSeed(int(meta["seed"]), int(meta.get("stream_id", 0)))
    return G2Histogram(
        bin_edges=edges,
        counts=np.asarray(counts),
        normalization_window=window,  # type: ignore[arg-type]
        seed=seed,
        n_events=int(meta["n_events"]) if "n_events" in meta else None,
        irf_fwhm=float(meta["irf_fwhm_ns"]) if "irf_fwhm_ns" in meta else None,
    )
