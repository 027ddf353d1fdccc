"""Shared fixtures: reference parameter sets used across the suite, and the
pair-coherence factor of two emitters in closed form and as ``mc_g2`` samples it."""

import math

import numpy as np
import pytest

import dotkit as dk

# Fitted rates of the two-emitter resonant data set (1/ns).
REF_GAMMA = 0.7
REF_GAMMA_PD = 2.5
REF_SIGMA = 1.0


@pytest.fixture
def resonant_pair():
    """Two identical resonant emitters with the reference rates."""
    return dk.identical_system(2, REF_GAMMA, REF_GAMMA_PD, REF_SIGMA)


@pytest.fixture
def resonant_trio():
    """Three identical resonant emitters with the faster radiative rate."""
    return dk.identical_system(3, 1.4, REF_GAMMA_PD, REF_SIGMA)


@pytest.fixture
def irf_100ps():
    return dk.Irf(0.1)


@pytest.fixture
def fine_grid():
    """Delay grid fine enough for 100 ps IRF convolutions."""
    return np.arange(-5.0, 5.0 + 1e-9, 0.002)


def pair_factor(e_i, e_j, tau):
    """Closed-form pair-coherence factor
    exp(-Gamma_ij |tau| - 2 pi^2 sigma_ij^2 tau^2) cos(delta_ij tau), with
    Gamma_ij = (gamma_i + gamma_j)/2 + gamma_pd_i + gamma_pd_j in 1/ns,
    sigma_ij^2 = sigma_i^2 + sigma_j^2 and delta_ij = (E_i - E_j)/hbar in rad/ns.
    """
    tau = np.asarray(tau, dtype=float)
    rate = 0.5 * (e_i.gamma + e_j.gamma) + e_i.gamma_pd + e_j.gamma_pd
    sigma_sq = e_i.sigma**2 + e_j.sigma**2
    detuning = (e_i.energy - e_j.energy) / dk.HBAR_UEV_NS
    envelope = np.exp(-rate * np.abs(tau) - 2 * math.pi**2 * sigma_sq * tau**2)
    return envelope * np.cos(detuning * tau)


def mc_pair_factor(e_i, e_j, tau, n_real, rng):
    """(mean, stderr) of the pair factor as ``mc_g2`` samples it on the pair.

    The pair's g2 is its incoherent part plus 2 I_i I_j / (I_i + I_j)^2 times
    the pair factor; the incoherent part comes from ``g2_general``. Scalars
    for a scalar ``tau``, else arrays; ``tau`` must increase.
    """
    pair = dk.EmitterSystem((e_i, e_j))
    curve = dk.mc_g2(pair, np.atleast_1d(tau), n_real, rng)
    scale = (e_i.intensity + e_j.intensity) ** 2 / (2 * e_i.intensity * e_j.intensity)
    mean = (curve.values - dk.g2_general(pair, curve.delays, coherent=False)) * scale
    stderr = curve.errors * scale
    if np.ndim(tau) == 0:
        return float(mean[0]), float(stderr[0])
    return mean, stderr
