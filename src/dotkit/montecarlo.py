"""Stochastic-trajectory oracle for g2 and a synthetic coincidence generator.

The pair-coherence factor of the analytic model is re-derived here by
sampling first-order coherence trajectories: a quasi-static frequency
offset per realization (spectral diffusion) and a Wiener phase (pure
dephasing) per emitter. The same-emitter incoherent term is taken
analytically; only the interference factor needs Monte Carlo validation.

Trajectories are carried as real phases, not complex exponentials: the
interference depends only on phase differences, so each partner emitter's
phase is taken relative to a reference emitter's, as one cumsum of its phase
increments less the reference's. With one partner emitter the sample
|a0 + a1 exp(i psi1)|^2 - a0^2 - a1^2 is 2 a0 a1 cos(psi1), one cosine with
no sine and no squares; with two it is a pair sum of three cosines; from
three on, each partner enters a running field through one cos/sin.
Each distinct |tau| of the delay grid is sampled once; a grid that is
exactly symmetric about zero therefore costs half its points.

Realizations come in blocks, each drawn from its own substream, and the
blocks run on a thread pool with one worker per core the process may use
(numpy's random fills, cumsum and trig ufuncs release the GIL). Each worker
reuses one workspace that the calling thread allocates: the reference
emitter's increments for a block, which the block's per-realization samples
then overwrite; for two or more partners, the first partner's phase
differences, which the second partner's pass reads; and for three or
more, the running field sums, real in the array of those phase differences
and imaginary in one more. That is one, two or three block arrays for
N = 2, 3 and >= 4.
The other emitters are drawn and combined in row chunks; chunked normal
fills continue the stream exactly as one whole-block draw would. Every
block is summed over the same array as in a sequential run and the block
sums are added in block order, so the results do not depend on the number
of cores. A coincidence histogram is one multinomial draw from its exact
bin law, so it costs the same for any number of events.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .emitters import (
    HBAR_UEV_NS,
    EmitterSystem,
    G2Curve,
    Irf,
    _format_table,
    _read_table,
    _whole_number,
    convolve_irf,
    gaussian_kernel,
)
from .errors import (
    EmptyPlateauError,
    EmptyWindowError,
    GridCoverageError,
    ParameterError,
)

# Realizations are simulated in fixed-size blocks, each on its own RNG
# substream (RngSeed.block_generator). The blocks are split over one worker
# thread per usable core, worker w taking blocks w, w + W, ...; each block
# is summed over its whole array and the block sums are added in block
# order, so the result is the sequential one bit for bit for any W.
BLOCK_SIZE = 20_000
# Emitters other than a block's reference emitter are drawn and combined in
# chunks of this many realizations, which bounds their buffers per worker.
CHUNK_ROWS = 1_000


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


def _require_seed(rng) -> None:
    if not isinstance(rng, RngSeed):
        raise ParameterError(f"rng must be an RngSeed, got {type(rng).__name__}")


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
        if not (widths[0] > 0 and np.allclose(widths, widths[0], rtol=1e-6, atol=1e-12)):
            raise ParameterError("bin width must be uniform and positive")
        if np.any(counts < 0):
            raise ParameterError("counts must be >= 0")
        lo, hi = self.normalization_window
        if not (0 <= lo < hi and math.isfinite(hi)):
            raise ParameterError("normalization window must be finite with 0 <= lo < hi")

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


class _Workspace:
    """Buffers one worker reuses for every block it simulates.

    ``samples`` holds the reference emitter's phase increments of a block,
    which the block's per-realization samples then overwrite. ``field``
    holds what the passes over the partner emitters carry from one pass to
    the next: with two or more partners, the first partner's phase
    differences, which the second partner's pass reads; with three or more,
    the running field sums after that pass, real in the same array and
    imaginary in a second one. So a worker holds min(N - 1, 3) block arrays
    for N emitters. ``phase`` and ``term`` are the partners' row-chunk
    buffers.
    """

    def __init__(self, rows: int, n_delays: int, partners: int):
        chunk = min(CHUNK_ROWS, rows)
        self.samples = np.empty((rows, n_delays))
        self.field = [np.empty((rows, n_delays)) for _ in range(min(partners, 3) - 1)]
        self.phase = np.empty((chunk, n_delays))
        self.term = np.empty((chunk, n_delays))


def _phase_chunks(emitters, omegas, du, gen, reference, chunk, drift):
    """Yield (k, rows, psi) for row chunks of psi_k = phi_k - phi_0 in rad,
    partner by partner, k = 1, 2, ...

    Emitter k's first-order coherence is g1(u) = exp(-gamma u / 2)
    exp(i phi_k(u)) on a sorted grid u >= 0 with segments ``du``; phi_k sums
    the increments z sqrt(2 gamma_pd du) + (omega_k + f) du: Wiener
    dephasing steps, and the drift at the angular frequency omega_k in
    rad/ns (referenced to keep phases small) plus an offset f drawn per
    realization. Per emitter, one offset is drawn per realization, then one
    normal per realization and delay, chunk by chunk in row order: the same
    numbers as one (n, len(du)) draw. The reference emitter's increments
    fill ``reference`` (n rows) and stay there. A partner's chunk is built
    in the head of ``chunk``: its increments less the reference's, summed
    by one cumsum. ``drift`` is a work buffer of a chunk's rows. One
    emitter's offsets are alive at a time.
    """
    n = len(reference)
    for k, (e, omega) in enumerate(zip(emitters, omegas)):
        rates = gen.normal(0.0, 2.0 * math.pi * e.sigma, size=(n, 1))
        rates += omega
        steps = np.sqrt(2.0 * e.gamma_pd * du)
        for start in range(0, n, CHUNK_ROWS):
            rows = slice(start, min(start + CHUNK_ROWS, n))
            size = rows.stop - start
            inc = chunk[:size] if k else reference[rows]
            gen.standard_normal(out=inc)
            inc *= steps
            np.multiply(rates[rows], du, out=drift[:size])
            inc += drift[:size]
            if k:
                inc -= reference[rows]
                np.cumsum(inc, axis=1, out=inc)
                yield k, rows, inc
        del rates


def _block_sizes(n_real: int) -> list[int]:
    sizes = [BLOCK_SIZE] * (n_real // BLOCK_SIZE)
    if n_real % BLOCK_SIZE:
        sizes.append(n_real % BLOCK_SIZE)
    return sizes


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sample_mean(rng: RngSeed, n_real: int, n_delays: int, fill, partners: int):
    """Mean and standard error per delay of n_real per-realization samples.

    ``fill(gen, workspace, size)`` writes one block's samples to
    ``workspace.samples[:size]``, drawing from ``gen``, with a workspace
    sized for ``partners`` emitters beside the reference. The blocks run on
    one worker per usable core, the calling thread included: worker w takes
    blocks w, w + W, ... with the workspace the calling thread made for it.
    Each block is summed over its whole array, as in a sequential run, and
    the block sums are added in block order, so the result is the
    sequential one bit for bit whatever W is. Workers call private helpers
    only, so a wrapper around a public function sees one call on one thread.
    """
    sizes = _block_sizes(n_real)
    workers = min(_usable_cores(), len(sizes))
    workspaces = [_Workspace(sizes[0], n_delays, partners) for _ in range(workers)]
    sums = [None] * len(sizes)

    def work(w: int) -> None:
        for block in range(w, len(sizes), workers):
            samples = workspaces[w].samples[: sizes[block]]
            fill(rng.block_generator(block), workspaces[w], sizes[block])
            block_sum = samples.sum(axis=0)
            samples *= samples
            sums[block] = block_sum, samples.sum(axis=0)

    if workers == 1:
        work(0)
    else:
        with ThreadPoolExecutor(workers - 1) as pool:
            helpers = [pool.submit(work, w) for w in range(1, workers)]
            work(0)
            for helper in helpers:
                helper.result()
    total = np.zeros(n_delays)
    total_sq = np.zeros(n_delays)
    for block_sum, block_sum_sq in sums:
        total += block_sum
        total_sq += block_sum_sq
    mean = total / n_real
    var = np.maximum(total_sq / n_real - mean**2, 0.0) * n_real / (n_real - 1)
    return mean, np.sqrt(var / n_real)


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
    phase, so the sum runs over phase differences psi_i = phi_i - phi_0:
    re = a_0 + sum a_i cos(psi_i), im = sum a_i sin(psi_i). With one partner
    the sample is 2 a_0 a_1 cos(psi_1), one cosine; with two it is the pair
    sum c_01 cos(psi_1) + c_02 cos(psi_2) + c_12 cos(psi_2 - psi_1) with
    c_ij = 2 a_i a_j, three cosines. Each distinct |tau| is sampled once,
    so the two sides of a grid that is exactly symmetric about zero share
    their draws. ``rng`` must be an :class:`RngSeed`.
    """
    _require_seed(rng)
    n_real = _whole_number(n_real, "n_real")
    if n_real < 100:
        raise ParameterError(f"need n_real >= 100, got {n_real}")
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or not np.all(np.isfinite(tau)):
        raise ParameterError("delay grid must be a 1-d array of finite delays")
    if np.any(np.diff(tau) <= 0):
        raise ParameterError("delay grid must be strictly increasing")
    t = np.abs(tau)
    u, inverse = np.unique(t, return_inverse=True)
    du = np.diff(u, prepend=0.0)
    weights = system.intensities
    total_intensity = weights.sum()
    energies = system.energies
    omegas = (energies - energies.mean()) / HBAR_UEV_NS
    decay = np.array([np.exp(-e.gamma * u) for e in system.emitters])
    amplitudes = [w * np.exp(-0.5 * e.gamma * u) for e, w in zip(system.emitters, weights)]
    self_terms = (weights[:, None] ** 2 * decay).sum(axis=0)
    partners = len(amplitudes) - 1
    if partners <= 2:  # the pair sum's coefficients c_ij = 2 a_i a_j
        pairs = [(i, j) for j in range(partners + 1) for i in range(j)]
        c = {(i, j): 2.0 * amplitudes[i] * amplitudes[j] for i, j in pairs}

    def fill(gen, ws, size):
        reference = ws.samples[:size]
        chunks = _phase_chunks(system.emitters, omegas, du, gen, reference, ws.phase, ws.term)
        for k, rows, psi in chunks:
            if partners == 1:
                # One partner: the sample 2 a0 a1 cos(psi1) goes over
                # reference rows that are no longer needed.
                np.cos(psi, out=psi)
                np.multiply(psi, c[0, 1], out=reference[rows])
                continue
            if k == 1:
                # The first of several partners keeps psi1 for the next pass.
                ws.field[0][rows] = psi
                continue
            term = ws.term[: len(psi)]
            if partners == 2:
                # Two partners: the pair sum goes over the reference rows.
                psi1 = ws.field[0][rows]
                np.subtract(psi, psi1, out=term)
                np.cos(term, out=term)
                term *= c[1, 2]
                np.cos(psi, out=psi)
                psi *= c[0, 2]
                np.cos(psi1, out=psi1)
                psi1 *= c[0, 1]
                psi1 += psi
                np.add(psi1, term, out=reference[rows])
                continue
            if k == 2:
                # The first partner's sums, formed as its own pass would
                # have formed them, in the imaginary sums' rows.
                re_sum, im_sum = ws.field[1][rows], ws.field[0][rows]
                np.cos(im_sum, out=re_sum)
                re_sum *= amplitudes[1]
                re_sum += amplitudes[0]
                np.sin(im_sum, out=im_sum)
                im_sum *= amplitudes[1]
            else:
                re_sum, im_sum = ws.field[0][rows], ws.field[1][rows]
            np.cos(psi, out=term)
            term *= amplitudes[k]
            np.sin(psi, out=psi)
            psi *= amplitudes[k]
            # term and psi become the running field sums re and im.
            term += re_sum
            psi += im_sum
            if k < partners:
                ws.field[0][rows] = term
                ws.field[1][rows] = psi
                continue
            # Last emitter: the sample re^2 + im^2 - sum_i a_i^2 goes over
            # reference rows that are no longer needed.
            term *= term
            psi *= psi
            term += psi
            np.subtract(term, self_terms, out=reference[rows])

    if partners:
        mean, stderr = _sample_mean(rng, n_real, u.size, fill, partners)
    else:
        mean = stderr = np.zeros(u.size)

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
    """Draw a histogram of ``n_events`` coincidence delays from a model curve.

    The delays follow the curve (linear between its points, flat beyond
    them) blurred with the IRF's Gaussian jitter and conditioned on
    [-window, +window]: the counts are one multinomial draw from the bin
    probabilities of that law, so the cost does not grow with ``n_events``.
    A whole float such as ``1e5`` counts as an event count; ``rng`` must be an :class:`RngSeed`.
    """
    _require_seed(rng)
    if window <= 0:
        raise EmptyWindowError(f"window must be > 0, got {window}")
    if not math.isfinite(window):
        raise ParameterError(f"window must be finite, got {window}")
    if not (bin_width > 0 and math.isfinite(bin_width)):
        raise ParameterError(f"bin_width must be finite and > 0, got {bin_width}")
    n_events = _whole_number(n_events, "n_events")
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
    edges, p = _bin_law(model, window, irf, bin_width)
    return G2Histogram(
        bin_edges=edges,
        counts=rng.generator().multinomial(n_events, p),
        normalization_window=(float(lo), float(hi)),
        seed=rng,
        n_events=n_events,
        irf_fwhm=irf.fwhm,
    )


def _bin_law(model: G2Curve, window: float, irf: Irf, bin_width: float):
    """Bin edges on [-window, +window] and each bin's probability: the curve,
    clipped at 0, on a grid of a whole number of steps <= fwhm/8 per bin that
    reaches one step past the IRF kernel beyond the window, blurred, summed
    per bin by the trapezoid rule and normalized, which conditions on the
    window."""
    n_bins = max(int(round(2.0 * window / bin_width)), 1)
    edges = np.linspace(-window, window, n_bins + 1)
    per_bin = math.ceil((edges[1] - edges[0]) / (irf.fwhm / 8.0))
    step = (edges[1] - edges[0]) / per_bin
    margin = gaussian_kernel(step, irf.fwhm).size // 2 + 1
    grid = np.arange(-margin, n_bins * per_bin + margin + 1) * step - window
    density = np.interp(grid, model.delays, np.maximum(model.values, 0.0))
    blurred = convolve_irf(G2Curve(grid, density), irf).values[margin:-margin]
    mass = (blurred[:-1] + blurred[1:]).reshape(n_bins, per_bin).sum(axis=1)
    total = mass.sum()
    if not total > 0:
        raise EmptyWindowError("model vanishes on the whole window")
    return edges, mass / total


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
    columns = (histogram.bin_centers, histogram.counts)
    Path(path).write_text(_format_table(lines, "%.10g\t%d", columns))


def read_histogram(path) -> G2Histogram:
    """Read a histogram written by :func:`write_histogram`."""
    meta, data = _read_table(path, "histogram")
    centers, counts = data[:, 0], data[:, 1]
    if len(centers) < 2:
        raise ParameterError(f"histogram file {path} needs >= 2 bins")
    if not np.all(np.isfinite(centers)):
        raise ParameterError(f"histogram file {path}: bin centers must be finite")
    if not np.all(np.isfinite(counts) & (np.round(counts) == counts)):
        raise ParameterError(f"histogram file {path}: counts must be whole numbers")
    # Edges from the end centers and the bin count, met by every center
    # within the rounding of the 10-digit format.
    half = 0.5 * (centers[-1] - centers[0]) / (len(centers) - 1)
    edges = np.linspace(centers[0] - half, centers[-1] + half, len(centers) + 1)
    if np.abs(centers - (edges[:-1] + half)).max() > 2e-9 * np.abs(centers).max():
        raise ParameterError(f"histogram file {path}: bin width must be uniform")
    try:  # the header values, and the histogram they describe
        window = tuple(float(v) for v in meta.get("normalization_window_ns", "5 10").split())
        seed = None
        if "seed" in meta:
            seed = RngSeed(int(meta["seed"]), int(meta.get("stream_id", 0)))
        return G2Histogram(
            bin_edges=edges,
            counts=counts.astype(np.int64),
            normalization_window=window,  # type: ignore[arg-type]
            seed=seed,
            n_events=int(meta["n_events"]) if "n_events" in meta else None,
            irf_fwhm=float(meta["irf_fwhm_ns"]) if "irf_fwhm_ns" in meta else None,
        )
    except ValueError as err:
        raise ParameterError(f"histogram file {path}: {err}") from err
