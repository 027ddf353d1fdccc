"""Complex-sum reference for the Monte Carlo oracle, used to pin its random stream.

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
"""

import math

import numpy as np

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


def coherence_pair(e_i, e_j, tau, n_real, seed, stream_id=0):
    """(mean, stderr) of Re[g1_i conj(g1_j)] at each delay of ``tau``."""
    t = np.abs(np.atleast_1d(np.asarray(tau, dtype=float)))
    u, inverse = np.unique(t, return_inverse=True)
    mid = 0.5 * (e_i.energy + e_j.energy)
    total, total_sq = np.zeros(u.size), np.zeros(u.size)
    for size, gen in _blocks(n_real, seed, stream_id):
        g1_i = _g1(e_i, (e_i.energy - mid) / HBAR_UEV_NS, u, size, gen)
        g1_j = _g1(e_j, (e_j.energy - mid) / HBAR_UEV_NS, u, size, gen)
        product = (g1_i * np.conj(g1_j)).real
        total += product.sum(axis=0)
        total_sq += (product**2).sum(axis=0)
    mean, stderr = _mean_and_stderr(total, total_sq, n_real)
    return mean[inverse], stderr[inverse]


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
