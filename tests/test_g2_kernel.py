"""The one coherence kernel, ``emitters._coherence``, and its four readers.

The kernel sums the interference of all ordered emitter pairs through
|sum_i w_i a_i|^2 - sum_i w_i^2 |a_i|^2, one pass over the emitters, in real
arithmetic. ``g2_general``, ``g2_ideal``, the fit's Jacobian columns
(``fitting._g2_columns``) and the CLI's coherent peak all read it. These
properties hold it to ``bench/reference.py``, an independent pairwise
evaluation written from the formula, at absolute energies near 1.3 eV where
the phases are taken relative to a reference energy, and for up to 64
emitters, and hold the fit's model to ``g2_general`` bit for bit. The CLI's
peak is checked against its closed form in ``test_cli.py``.
"""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dotkit as dk

_spec = importlib.util.spec_from_file_location(
    "g2_reference", Path(__file__).resolve().parent.parent / "bench" / "reference.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

E0 = 1_300_000.0  # ueV, an absolute transition energy
TOLERANCE = 1e-12

# gamma >= 1/ns: at 50 ns every term has decayed below 1e-10.
emitter_params = st.fixed_dictionaries(
    {
        "energy": st.floats(-60.0, 60.0).map(lambda de: E0 + de),
        "gamma": st.floats(1.0, 4.0),
        "gamma_pd": st.floats(0.0, 5.0),
        "sigma": st.floats(0.0, 2.0),
        "intensity": st.floats(0.2, 3.0),
    }
)
emitter_counts = st.integers(1, 64) | st.sampled_from([2, 64])


@st.composite
def systems(draw):
    """Emitter parameters as config dicts, and the system they make."""
    count = draw(emitter_counts)
    params = draw(st.lists(emitter_params, min_size=count, max_size=count))
    return params, dk.EmitterSystem(tuple(dk.Emitter(**p) for p in params))


delays = st.floats(0.1, 10.0).map(lambda tau_max: np.linspace(-tau_max, tau_max, 201))


@settings(max_examples=40, deadline=None)
@given(system=systems(), tau=delays)
def test_matches_pairwise_reference(system, tau):
    params, system = system
    np.testing.assert_allclose(
        dk.g2_general(system, tau), reference.pairwise_g2(params, tau), rtol=0, atol=TOLERANCE
    )


@settings(max_examples=30, deadline=None)
@given(system=systems(), tau=delays)
def test_even_in_tau_and_flat_at_long_delay(system, tau):
    _, system = system
    for coherent in (True, False):
        np.testing.assert_array_equal(
            dk.g2_general(system, tau, coherent), dk.g2_general(system, -tau, coherent)
        )
        assert dk.g2_general(system, 50.0, coherent) == pytest.approx(1.0, abs=1e-9)
        assert dk.g2_general(system, -50.0, coherent) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(system=systems(), tau=delays)
def test_fit_model_is_g2_general_to_the_bit(system, tau):
    # The fit's model, the scale column of fitting._g2_columns, and
    # g2_general read the same kernel pass, so they agree exactly.
    _, system = system
    for coherent in (True, False):
        columns = dk.fitting._g2_columns(system, np.abs(tau), coherent)
        np.testing.assert_array_equal(columns["scale"], dk.g2_general(system, tau, coherent))


@settings(max_examples=30, deadline=None)
@given(
    n=emitter_counts,
    gamma=st.floats(1.0, 4.0),
    gamma_pd=st.floats(0.0, 5.0),
    sigma=st.floats(0.0, 2.0),
)
def test_resonant_peak_is_superradiant(n, gamma, gamma_pd, sigma):
    # g2(0) = 2(1 - 1/N) for N resonant emitters of equal intensity.
    system = dk.identical_system(n, gamma, gamma_pd, sigma, reference_energy=E0)
    peak = 2.0 * (1.0 - 1.0 / n)
    assert dk.g2_general(system, 0.0) == pytest.approx(peak, abs=TOLERANCE)
    ideal = dk.g2_ideal(0.0, n, gamma, 0.5 * gamma + gamma_pd, sigma)
    assert ideal == pytest.approx(peak, abs=TOLERANCE)


@settings(max_examples=30, deadline=None)
@given(
    offsets=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=64),
    gamma=st.floats(1.0, 4.0),
    total_dephasing=st.floats(0.5, 8.0),
    sigma=st.floats(0.0, 2.0),
    tau=delays,
)
def test_ideal_with_detunings_matches_reference(offsets, gamma, total_dephasing, sigma, tau):
    # The reference takes absolute energies; the detunings are their exact
    # differences, not the unrounded offsets (1.3e6 ueV carries 2e-10 ueV).
    n = len(offsets)
    energies = E0 + np.asarray(offsets)
    omegas = (energies - E0) / dk.HBAR_UEV_NS
    params = [
        {"energy": e, "gamma": gamma, "gamma_pd": total_dephasing - 0.5 * gamma, "sigma": sigma}
        for e in energies
    ]
    ideal = dk.g2_ideal(tau, n, gamma, total_dephasing, sigma, np.subtract.outer(omegas, omegas))
    np.testing.assert_allclose(ideal, reference.pairwise_g2(params, tau), rtol=0, atol=TOLERANCE)


@settings(max_examples=30, deadline=None)
@given(
    omegas=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=8),
    entry=st.tuples(st.integers(0, 7), st.integers(0, 7)),
    error=st.floats(1e-6, 10.0) | st.floats(-10.0, -1e-6) | st.just(np.nan),
)
def test_ideal_rejects_detunings_not_pairwise_differences(omegas, entry, error):
    n = len(omegas)
    d = np.subtract.outer(omegas, omegas)
    dk.g2_ideal(0.5, n, 1.0, 3.0, 1.0, d)  # of the form omega_i - omega_j: accepted
    d[entry[0] % n, entry[1] % n] += error
    with pytest.raises(dk.ParameterError):
        dk.g2_ideal(0.5, n, 1.0, 3.0, 1.0, d)


def test_ideal_rejects_wrong_detuning_shape():
    with pytest.raises(dk.ParameterError):
        dk.g2_ideal(0.5, 2, 1.0, 3.0, 1.0, np.zeros((3, 3)))
    with pytest.raises(dk.ParameterError):
        dk.g2_ideal(0.5, 2, 1.0, 3.0, 1.0, np.zeros(2))


def test_pair_term_bounds_sigma():
    # 2 pi^2 sigma^2 overflows a float above 3e153; the kernel takes sigma up
    # to 1e150 and rejects a wider one wherever it computes a pair term.
    tau = np.array([-1.0, 0.0, 1.0])
    assert np.all(np.isfinite(dk.g2_general(dk.identical_system(2, 1.0, 0.0, 1e150), tau)))
    wide = dk.identical_system(2, 1.0, 0.0, 1e200)
    with pytest.raises(dk.ParameterError, match="sigma must be <= 1e\\+150"):
        dk.g2_general(wide, tau)
    with pytest.raises(dk.ParameterError, match="sigma must be <= 1e\\+150"):
        dk.g2_ideal(tau, 2, 1.0, 0.5, 1e200)
    # No pair term, no bound: one emitter, or the incoherent baseline.
    narrow = dk.identical_system(2, 1.0)
    np.testing.assert_array_equal(dk.g2_general(wide, tau, False), dk.g2_general(narrow, tau, False))
    assert dk.g2_general(dk.identical_system(1, 1.0, 0.0, 1e200), 0.0) == 0.0


def test_memory_does_not_grow_with_emitter_count():
    # The kernel accumulates into O(len(tau)) buffers; an (N, len(tau))
    # array at N = 64 would take 64 x 6,001 x 16 B = 6.1 MB.
    tau = np.linspace(-3.0, 3.0, 6001)
    gen = np.random.default_rng(3)

    def peak_bytes(n):
        system = dk.EmitterSystem(
            tuple(
                dk.Emitter(E0 + gen.uniform(-10.0, 10.0), gen.uniform(0.5, 3.0), 2.5, 1.0,
                           gen.uniform(0.5, 2.0))
                for _ in range(n)
            )
        )
        tracemalloc.start()
        try:
            dk.g2_general(system, tau)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(64) <= 1.5 * peak_bytes(8)
