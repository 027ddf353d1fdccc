"""The Monte Carlo oracle against its complex-sum reference on the same random stream.

``mc_g2`` works on real phase differences; the reference in
``mc_reference.py`` keeps the complex trajectories. Both must draw the same
normals in the same order, so they agree to rounding on any system of two to
five emitters, grid, seed and realization count, including counts that end
in a partial block.

The errors are compared as sample variances, n_real * stderr^2. A standard
error is the square root of a variance taken as E[x^2] - E[x]^2, so where
the trajectories are (nearly) deterministic it is the root of rounding
noise: ~1e-16 in the variance becomes ~1e-11 in the error, in either
formulation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dotkit as dk

import mc_reference

TOLERANCE = 1e-12

n_reals = st.integers(100, 3_000) | st.sampled_from([20_000, 20_150])
seeds = st.builds(dk.RngSeed, st.integers(0, 2**32 - 1), st.integers(0, 7))
emitters = st.builds(
    dk.Emitter,
    energy=st.floats(-60.0, 60.0),
    gamma=st.floats(0.1, 4.0),
    gamma_pd=st.floats(0.0, 5.0),
    sigma=st.floats(0.0, 2.0),
    intensity=st.floats(0.2, 3.0),
)


@st.composite
def grids(draw):
    """A linspace grid, as configs give, or any increasing delays."""
    if draw(st.booleans()):
        tau_max = draw(st.floats(0.05, 5.0))
        return np.linspace(-tau_max, tau_max, draw(st.integers(2, 41)))
    delays = st.floats(-5.0, 5.0) | st.sampled_from([0.0, 0.5, -0.5])
    return np.sort(draw(st.lists(delays, min_size=1, max_size=25, unique=True)))


@st.composite
def systems(draw):
    n = draw(st.sampled_from([2, 3, 4, 5]))
    if draw(st.booleans()):
        return tuple(draw(st.lists(emitters, min_size=n, max_size=n)))
    rates = [draw(st.floats(0.1, 4.0)), draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 2.0))]
    spacing = draw(st.floats(0.0, 60.0))
    intensities = draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))
    return dk.identical_system(n, *rates, spacing, intensities).emitters


class TestSameRandomStream:
    @settings(max_examples=40, deadline=None)
    @given(emitter_list=systems(), tau=grids(), n_real=n_reals, rng=seeds)
    def test_mc_g2_matches_complex_sum(self, emitter_list, tau, n_real, rng):
        curve = dk.mc_g2(dk.EmitterSystem(emitter_list), tau, n_real, rng)
        values, errors = mc_reference.g2(emitter_list, tau, n_real, rng.seed, rng.stream_id)
        np.testing.assert_allclose(curve.values, values, rtol=0, atol=TOLERANCE)
        np.testing.assert_allclose(
            n_real * curve.errors**2, n_real * errors**2, rtol=0, atol=TOLERANCE
        )
