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

``sequential_g2`` at the end is the oracle's own sequential block loop,
frozen, for bit-for-bit checks of its threaded form.
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
# stood before its blocks were spread over threads. The threaded oracle must
# match it bit for bit, so the arithmetic here is kept operation for
# operation: the same in-place steps in the same order on whole blocks.


def _sequential_phases(e, omega, u, n, gen):
    offsets = gen.normal(0.0, 2.0 * math.pi * e.sigma, size=(n, 1))
    segments = np.diff(u, prepend=0.0)
    phase = gen.normal(size=(n, u.size))
    phase *= np.sqrt(2.0 * e.gamma_pd * segments)
    np.cumsum(phase, axis=1, out=phase)
    phase += (omega + offsets) * u
    return phase


def sequential_g2(emitters, tau, n_real, seed, stream_id=0):
    """(values, stderr) as the sequential real-phase loop computed them."""
    u, inverse = np.unique(np.abs(np.asarray(tau, dtype=float)), return_inverse=True)
    weights = np.array([e.intensity for e in emitters])
    energies = np.array([e.energy for e in emitters])
    omegas = (energies - energies.mean()) / HBAR_UEV_NS
    decay = np.array([np.exp(-e.gamma * u) for e in emitters])
    amplitudes = [w * np.exp(-0.5 * e.gamma * u) for e, w in zip(emitters, weights)]
    self_terms = (weights[:, None] ** 2 * decay).sum(axis=0)
    total, total_sq = np.zeros(u.size), np.zeros(u.size)
    (e0, om0, a0), *others = zip(emitters, omegas, amplitudes)
    for size, gen in _blocks(n_real, seed, stream_id):
        reference = _sequential_phases(e0, om0, u, size, gen)
        re = np.broadcast_to(a0, (size, u.size)).copy()
        im = np.zeros((size, u.size))
        term = np.empty((size, u.size))
        for e, om, a in others:
            psi = _sequential_phases(e, om, u, size, gen)
            psi -= reference
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
