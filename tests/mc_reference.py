"""References for the Monte Carlo code: the oracle's complex sum, which pins its
random stream, and the coincidence sampler's event-by-event draw with the
closed form of its law.

Written in the oracle's original formulation, not from dotkit's code: each
emitter's first-order coherence is a complex trajectory
g1(u) = exp(-gamma u / 2) exp(i phi(u)), and the interference of a system is
|sum_i I_i g1_i|^2 - sum_i I_i^2 |g1_i|^2 per realization. The random-stream
contract it spells out:

- realizations come in blocks of 20,000; block b draws from
  ``SeedSequence(seed, spawn_key=(stream_id, b))``;
- within a block, emitter by emitter in system order: one frequency offset
  per realization (normal, scale 2 pi sigma), then one standard normal per
  realization and distinct |tau|, in row-major order;
- the distinct delays are ``np.unique(|tau|)``.

``sequential_g2`` is the oracle's own sequential block loop, frozen, for
bit-for-bit checks of its threaded form.

``event_histogram`` is the coincidence sampler as it drew every event, by
inverse transform on the piecewise-linear curve plus Gaussian jitter, with
events jittered out of the window redrawn; ``closed_form_law`` is that
sampler's bin law in closed form.
"""

import math

import numpy as np
from scipy.special import ndtr

HBAR_UEV_NS = 0.6582119569
BLOCK_SIZE = 20_000


def _blocks(n_real, seed, stream_id):
    for block, start in enumerate(range(0, n_real, BLOCK_SIZE)):
        sequence = np.random.SeedSequence(seed, spawn_key=(stream_id, block))
        yield min(BLOCK_SIZE, n_real - start), np.random.default_rng(sequence)


def _g1(e, omega, u, n, gen):
    offsets = gen.normal(0.0, 2.0 * math.pi * e.sigma, size=(n, 1))
    segments = np.diff(u, prepend=0.0)
    steps = gen.normal(size=(n, u.size)) * np.sqrt(2.0 * e.gamma_pd * segments)
    phase = (omega + offsets) * u + np.cumsum(steps, axis=1)
    return np.exp(-0.5 * e.gamma * u) * np.exp(1j * phase)


def _mean_and_stderr(total, total_sq, n_real):
    mean = total / n_real
    var = np.maximum(total_sq / n_real - mean**2, 0.0) * n_real / (n_real - 1)
    return mean, np.sqrt(var / n_real)


def g2(emitters, tau, n_real, seed, stream_id=0):
    """(values, stderr) of the trajectory-sampled g2 at each delay of ``tau``."""
    u, inverse = np.unique(np.abs(np.asarray(tau, dtype=float)), return_inverse=True)
    weights = np.array([e.intensity for e in emitters])
    energies = np.array([e.energy for e in emitters])
    omegas = (energies - energies.mean()) / HBAR_UEV_NS
    decay = np.array([np.exp(-e.gamma * u) for e in emitters])
    self_terms = (weights[:, None] ** 2 * decay).sum(axis=0)
    total, total_sq = np.zeros(u.size), np.zeros(u.size)
    for size, gen in _blocks(n_real, seed, stream_id):
        weighted = np.zeros((size, u.size), dtype=complex)
        for e, omega, w in zip(emitters, omegas, weights):
            weighted += w * _g1(e, omega, u, size, gen)
        samples = np.abs(weighted) ** 2 - self_terms
        total += samples.sum(axis=0)
        total_sq += (samples**2).sum(axis=0)
    mean, stderr = _mean_and_stderr(total, total_sq, n_real)
    norm = weights.sum() ** 2
    values = (
        (weights[:, None] ** 2 * (1.0 - decay)).sum(axis=0)
        + norm
        - (weights**2).sum()
        + mean
    ) / norm
    return values[inverse], (stderr / norm)[inverse]


# The oracle's sequential block loop on real phase differences, frozen as it
# stood before its blocks were spread over threads, with three later changes
# that the oracle made and this loop follows:
# - each emitter's phase is drawn as increments over the delay segments,
#   z sqrt(2 gamma_pd du) + (omega + offset) du, and a partner's phase
#   difference psi_k is one cumsum of its increments less the reference's;
# - a single partner's sample |a0 + a1 exp(i psi1)|^2 - a0^2 - a1^2 is taken
#   as 2 a0 a1 cos(psi1), one cosine;
# - two partners' sample is the pair sum c01 cos(psi1) + c02 cos(psi2)
#   + c12 cos(psi2 - psi1) with c_ij = 2 a_i a_j, three cosines.
# The threaded oracle must match it bit for bit, so the arithmetic here is
# kept operation for operation: the same in-place steps in the same order on
# whole blocks.


def _sequential_increments(e, omega, du, n, gen):
    offsets = gen.normal(0.0, 2.0 * math.pi * e.sigma, size=(n, 1))
    increments = gen.normal(size=(n, du.size))
    increments *= np.sqrt(2.0 * e.gamma_pd * du)
    increments += (omega + offsets) * du
    return increments


def sequential_g2(emitters, tau, n_real, seed, stream_id=0):
    """(values, stderr) as the sequential real-phase loop computes them."""
    u, inverse = np.unique(np.abs(np.asarray(tau, dtype=float)), return_inverse=True)
    du = np.diff(u, prepend=0.0)
    weights = np.array([e.intensity for e in emitters])
    energies = np.array([e.energy for e in emitters])
    omegas = (energies - energies.mean()) / HBAR_UEV_NS
    decay = np.array([np.exp(-e.gamma * u) for e in emitters])
    amplitudes = [w * np.exp(-0.5 * e.gamma * u) for e, w in zip(emitters, weights)]
    self_terms = (weights[:, None] ** 2 * decay).sum(axis=0)
    total, total_sq = np.zeros(u.size), np.zeros(u.size)
    (e0, om0, a0), *others = zip(emitters, omegas, amplitudes)
    for size, gen in _blocks(n_real, seed, stream_id):
        reference = _sequential_increments(e0, om0, du, size, gen)
        psis = []
        for e, om, _ in others:
            psi = _sequential_increments(e, om, du, size, gen)
            psi -= reference
            np.cumsum(psi, axis=1, out=psi)
            psis.append(psi)
        if len(others) == 1:
            (re,) = psis
            np.cos(re, out=re)
            re *= 2.0 * a0 * amplitudes[1]
        elif len(others) == 2:
            psi1, psi2 = psis
            term = psi2 - psi1
            np.cos(term, out=term)
            term *= 2.0 * amplitudes[1] * amplitudes[2]
            np.cos(psi2, out=psi2)
            psi2 *= 2.0 * a0 * amplitudes[2]
            re = np.cos(psi1)
            re *= 2.0 * a0 * amplitudes[1]
            re += psi2
            re += term
        else:
            re = np.broadcast_to(a0, (size, u.size)).copy()
            im = np.zeros((size, u.size))
            term = np.empty((size, u.size))
            for psi, a in zip(psis, amplitudes[1:]):
                np.cos(psi, out=term)
                term *= a
                re += term
                np.sin(psi, out=psi)
                psi *= a
                im += psi
            re *= re
            im *= im
            re += im
            re -= self_terms
        total += re.sum(axis=0)
        re *= re
        total_sq += re.sum(axis=0)
    mean, stderr = _mean_and_stderr(total, total_sq, n_real)
    norm = weights.sum() ** 2
    incoherent = (weights[:, None] ** 2 * (1.0 - decay)).sum(axis=0)
    cross = norm - (weights**2).sum()
    return ((incoherent + cross + mean) / norm)[inverse], (stderr / norm)[inverse]


def _knots(model, window, sigma):
    """The event sampler's density: knots (x, y) of the curve clipped at 0 on
    [-reach, reach], reach = window + 5 sigma, extended flat past the grid."""
    reach = window + 5.0 * sigma
    inside = (model.delays > -reach) & (model.delays < reach)
    x = np.concatenate([[-reach], model.delays[inside], [reach]])
    return x, np.interp(x, model.delays, np.maximum(model.values, 0.0))


def event_histogram(model, n_events, window, sigma, seed, bin_width=0.02):
    """(edges, counts) of ``n_events`` delays drawn one by one."""
    x, y = _knots(model, window, sigma)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])
    cdf /= cdf[-1]
    # Strictly increasing CDF so the piecewise-linear inverse is well defined.
    cdf = np.maximum.accumulate(cdf + np.linspace(0.0, 1e-12, cdf.size))
    cdf /= cdf[-1]
    gen = np.random.default_rng(seed)
    delays = np.empty(n_events)
    pending = np.arange(n_events)
    while pending.size:
        draw = np.interp(gen.uniform(size=pending.size), cdf, x)
        draw += gen.normal(0.0, sigma, size=pending.size)
        delays[pending] = draw
        pending = pending[np.abs(draw) > window]
    n_bins = max(int(round(2.0 * window / bin_width)), 1)
    edges = np.linspace(-window, window, n_bins + 1)
    return edges, np.histogram(delays, bins=edges)[0]


def closed_form_law(model, window, sigma, edges):
    """Each bin's probability under ``event_histogram``'s law.

    The density f is piecewise linear on knots x_0..x_n with values y_j and
    slopes s_j, zero outside. Its convolution with N(0, sigma^2) has the
    cumulative C(b) = sigma [y_0 Psi1(z_0) - y_n Psi1(z_n)]
    + sigma^2 sum_j ds_j Psi2(z_j), z_j = (b - x_j) / sigma, where ds_j is
    the slope change at knot j (s_-1 = s_n = 0), Psi1 = z Phi + phi and
    Psi2 = ((z^2 + 1) Phi + z phi) / 2; bin masses are differences of C,
    normalized over the window.
    """
    x, y = _knots(model, window, sigma)
    slopes = np.concatenate([[0.0], np.diff(y) / np.diff(x), [0.0]])
    z = (np.asarray(edges)[:, None] - x) / sigma
    cdf, pdf = ndtr(z), np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)
    psi1 = z * cdf + pdf
    psi2 = 0.5 * ((z**2 + 1.0) * cdf + z * pdf)
    c = sigma * (y[0] * psi1[:, 0] - y[-1] * psi1[:, -1]) + sigma**2 * psi2 @ np.diff(slopes)
    mass = np.diff(c)
    return mass / mass.sum()
