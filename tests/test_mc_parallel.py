"""The Monte Carlo oracle's blocks on a thread pool: same bits, bounded memory.

``mc_g2`` spreads its realization blocks over one worker per usable core.
The result must be the sequential block loop's bit for bit at any worker
count and for every form of the sample (N = 2 and 3 write cosine sums over
the reference increments; N = 5 has a pass after the rebuilt first
partner that both reads and writes the running sums), so
these tests compare with ``np.array_equal`` against the loop frozen in
``mc_reference.py``. The worker count is set by patching
``os.sched_getaffinity`` as the oracle sees it. A worker's memory is bounded
per emitter count by min(N - 1, 3) block arrays: at N = 3 and 2 workers
that is 20.7 MiB, against 30.1 MiB for three block arrays.
"""

import functools
import sys
import tracemalloc

import numpy as np
import pytest

import dotkit as dk
from dotkit import montecarlo

import mc_reference

SEED = dk.RngSeed(11, stream_id=3)
_GRID = np.linspace(-3.0, 3.0, 61)
TAU = 0.5 * (_GRID - _GRID[::-1])  # exactly antisymmetric: 31 distinct |tau|


def detuned_system(n):
    """n emitters 46 ueV apart with unequal rates, widths and intensities."""
    return dk.EmitterSystem(
        tuple(
            dk.Emitter(
                energy=46.0 * k - 20.0,
                gamma=1.9 - 0.3 * k,
                gamma_pd=2.5 + 0.5 * k,
                sigma=1.0 + 0.2 * k,
                intensity=1.0 + 0.5 * k,
            )
            for k in range(n)
        )
    )


@functools.lru_cache(maxsize=None)
def sequential(n, n_real):
    emitters = detuned_system(n).emitters
    return mc_reference.sequential_g2(emitters, TAU, n_real, SEED.seed, SEED.stream_id)


def use_workers(monkeypatch, workers):
    monkeypatch.setattr(
        montecarlo.os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False
    )


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("n_real", [150, 45_123, 100_000])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bit_identical_to_sequential_loop(monkeypatch, n, n_real, workers):
    use_workers(monkeypatch, workers)
    system = detuned_system(n)
    values, errors = sequential(n, n_real)
    curve = dk.mc_g2(system, TAU, n_real, SEED)
    assert np.array_equal(curve.values, values)
    assert np.array_equal(curve.errors, errors)


def test_more_workers_than_cores_with_fast_thread_switches(monkeypatch):
    """Eight workers over nine blocks, switching threads every microsecond."""
    use_workers(monkeypatch, 8)
    n_real = 8 * montecarlo.BLOCK_SIZE + 1_234
    values, errors = sequential(3, n_real)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        curve = dk.mc_g2(detuned_system(3), TAU, n_real, SEED)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(curve.values, values)
    assert np.array_equal(curve.errors, errors)


def test_cpu_count_fallback(monkeypatch):
    """Without sched_getaffinity the worker count comes from os.cpu_count."""
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
    assert montecarlo._usable_cores() == 3
    curve = dk.mc_g2(detuned_system(3), TAU, 45_123, SEED)
    values, errors = sequential(3, 45_123)
    assert np.array_equal(curve.values, values)
    assert np.array_equal(curve.errors, errors)


# tracemalloc peak of one mc_g2 call at N = 3, 1e5 realizations x 31 delays,
# with the whole-block loop that built every emitter's (BLOCK_SIZE, |u|)
# phase array plus re, im and a term array per block (33.6 MiB).
WHOLE_BLOCK_PEAK_BYTES = 35_180_379


def workspace_bound(n, workers, n_delays):
    """Bytes the oracle's workspaces may take at N = n emitters.

    Per worker, with B = BLOCK_SIZE, C = CHUNK_ROWS and 8-byte doubles:
    - the block arrays, min(N - 1, 3) x B x |u| x 8 B: the reference
      increments (later the samples), from N = 3 on the first partner's
      phase differences (at N >= 4 later the running re sums), and from
      N = 4 on the running im sums;
    - the two chunk buffers of the other emitters, 2 x C x |u| x 8 B;
    - one emitter's column of B frequency offsets, B x 8 B;
    - 256 KiB for numpy's iterator buffers (8,192 elements per operand of a
      broadcasting ufunc such as (omega + offsets) * u) and the small
      per-chunk and per-block temporaries.
    At 31 delays and 2 workers that is 11.2, 20.7 and 30.1 MiB for
    N = 2, 3 and >= 4.
    """
    block, chunk = montecarlo.BLOCK_SIZE, montecarlo.CHUNK_ROWS
    arrays = min(n - 1, 3)
    return workers * ((arrays * block + 2 * chunk) * n_delays * 8 + block * 8 + 256 * 1024)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_peak_memory_within_workspace_bound(monkeypatch, n, workers):
    """The workspaces bound the oracle's memory, whatever the number of
    emitters; no emitter count takes more than three block arrays."""
    use_workers(monkeypatch, workers)
    system = detuned_system(n)
    n_delays = np.unique(np.abs(TAU)).size
    assert n_delays == 31
    dk.mc_g2(system, TAU, 1_000, SEED)  # first-call allocations out of the way
    bound = workspace_bound(n, workers, n_delays)
    assert bound <= workspace_bound(4, workers, n_delays) <= WHOLE_BLOCK_PEAK_BYTES
    tracemalloc.start()
    try:
        dk.mc_g2(system, TAU, 100_000, SEED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound
