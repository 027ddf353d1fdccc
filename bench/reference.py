"""Independent reference for the analytic g2 model, used to check outputs.

Written from the model's formula, not from dotkit's code, so that a new
kernel in dotkit is checked against code it does not share:

    g2(t) = 1 - sum_i I_i^2 exp(-gamma_i |t|) / W^2
              + 2 sum_{i<j} I_i I_j exp(-G_ij |t| - 2 pi^2 s_ij^2 t^2) cos(w_ij t) / W^2

with W = sum_i I_i, G_ij = (gamma_i + gamma_j)/2 + gamma_pd_i + gamma_pd_j,
s_ij^2 = sigma_i^2 + sigma_j^2 and w_ij = (E_i - E_j) / hbar.
"""

import math

import numpy as np

HBAR_UEV_NS = 0.6582119569


def pairwise_g2(emitters, tau):
    """g2 at delays ``tau`` (ns) for emitters given as config dicts."""
    t = np.abs(np.asarray(tau, dtype=float))
    w = [float(e.get("intensity", 1.0)) for e in emitters]
    total = sum(w)
    incoherent = np.zeros_like(t)
    for e, wi in zip(emitters, w):
        incoherent += wi * wi * np.exp(-float(e["gamma"]) * t)
    coherent = np.zeros_like(t)
    for i, a in enumerate(emitters):
        for j in range(i + 1, len(emitters)):
            b = emitters[j]
            rate = 0.5 * (a["gamma"] + b["gamma"]) + a.get("gamma_pd", 0.0) + b.get("gamma_pd", 0.0)
            s2 = a.get("sigma", 0.0) ** 2 + b.get("sigma", 0.0) ** 2
            omega = (a["energy"] - b["energy"]) / HBAR_UEV_NS
            coherent += (
                2.0 * w[i] * w[j]
                * np.exp(-rate * t - 2.0 * math.pi**2 * s2 * t * t)
                * np.cos(omega * t)
            )
    return 1.0 + (coherent - incoherent) / total**2


def gaussian_blur(values, step, fwhm):
    """Blur a uniform-grid curve with a Gaussian of the given FWHM.

    Edges are extended with the end values. The kernel reaches 8 sigma and
    is applied by direct summation, so it agrees with any correct IRF
    convolution only to the accuracy of the grid, not digit for digit.
    """
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    half = int(math.ceil(8.0 * sigma / step))
    offsets = np.arange(-half, half + 1)
    kernel = np.exp(-0.5 * (offsets * step / sigma) ** 2)
    kernel /= kernel.sum()
    padded = np.concatenate([np.full(half, values[0]), values, np.full(half, values[-1])])
    out = np.zeros_like(values)
    for k, weight in zip(offsets, kernel):
        out += weight * padded[half + k : half + k + values.size]
    return out
