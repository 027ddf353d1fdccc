"""The one table writer: byte-identical to per-row f-strings, and every
text file it writes reads back at 10 significant digits."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dotkit as dk
from dotkit.emitters import _format_table

EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 1e300, -1e-300]
any_floats = st.floats() | st.sampled_from(EDGE_FLOATS)
# Within 10 significant digits of the largest float, a value reads back as inf.
moderate_floats = st.floats(-1e300, 1e300)
text = st.text(alphabet=st.characters(codec="utf-8"))
header_text = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126))

# One kind of cell: its ``%`` format, the f-string the writers used before,
# and the values it takes.
KINDS = {
    "float": ("%.10g", lambda x: f"{x:.10g}", any_floats),
    "int": ("%d", lambda x: f"{x}", st.integers()),
    "str": ("%s", lambda x: f"{x}", text),
}


@st.composite
def tables(draw):
    """Header lines, row format, columns, and the old per-row formatting."""
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=5))
    sep = draw(st.sampled_from(["\t", " ", ";"]))
    n_rows = draw(st.integers(0, 12))
    columns = [draw(st.lists(KINDS[k][2], min_size=n_rows, max_size=n_rows)) for k in kinds]
    header = draw(st.lists(text, min_size=1, max_size=3))
    rows = [
        sep.join(KINDS[k][1](column[i]) for k, column in zip(kinds, columns))
        for i in range(n_rows)
    ]
    expected = "\n".join([*header, *rows]) + "\n"
    as_array = draw(st.booleans())
    columns = [
        np.array(c, dtype=float) if as_array and k == "float" else c
        for k, c in zip(kinds, columns)
    ]
    return header, sep.join(KINDS[k][0] for k in kinds), columns, expected


@given(tables())
@settings(max_examples=300, deadline=None)
def test_format_table_equals_per_row_fstrings(table):
    header, row_format, columns, expected = table
    assert _format_table(header, row_format, columns) == expected


def at_10_digits(values):
    """What a file written at ``%.10g`` reads back as."""
    return np.array([float(f"{v:.10g}") for v in np.asarray(values).tolist()])


def uniform_grids(lo, hi, min_step, max_step, max_size=40):
    return st.builds(
        lambda start, step, n: start + step * np.arange(n),
        st.floats(lo, hi),
        st.floats(min_step, max_step),
        st.integers(2, max_size),
    )


@st.composite
def curves(draw):
    delays = draw(uniform_grids(-100.0, 100.0, 1e-3, 1.0))
    n = delays.size
    values = draw(st.lists(moderate_floats, min_size=n, max_size=n))
    errors = draw(st.none() | st.lists(any_floats, min_size=n, max_size=n))
    return dk.G2Curve(delays, values, errors)


@given(curve=curves(), header=st.lists(header_text, max_size=2))
@settings(max_examples=100, deadline=None)
def test_curve_round_trip(tmp_path_factory, curve, header):
    path = tmp_path_factory.mktemp("curve") / "curve.tsv"
    dk.write_curve(path, curve, header=header)
    back = dk.read_curve(path)
    np.testing.assert_array_equal(back.delays, at_10_digits(curve.delays))
    np.testing.assert_array_equal(back.values, at_10_digits(curve.values))
    if curve.errors is None:
        assert back.errors is None
    else:
        np.testing.assert_array_equal(back.errors, at_10_digits(curve.errors))


LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_curve_header_cannot_break_a_line(tmp_path, brk):
    # read_curve splits lines with str.splitlines, so the writer must refuse
    # every break it knows.
    curve = dk.G2Curve([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(dk.ParameterError):
        dk.write_curve(tmp_path / "curve.tsv", curve, header=[f"n_real = 5{brk}note"])


@st.composite
def histograms(draw):
    width = draw(st.floats(1e-3, 1.0))
    n = draw(st.integers(2, 40))
    edges = width * (draw(st.floats(-1e5, 1e5)) + np.arange(n + 1))
    lo = draw(st.floats(0.0, 10.0))
    return dk.G2Histogram(
        bin_edges=edges,
        # counts are read as float64, exact up to 2**53
        counts=draw(st.lists(st.integers(0, 2**53), min_size=n, max_size=n)),
        normalization_window=(lo, lo + draw(st.floats(1e-3, 10.0))),
        seed=draw(st.none() | st.builds(dk.RngSeed, st.integers(0, 2**32), st.integers(0, 99))),
        n_events=draw(st.none() | st.integers(0, 2**62)),
        irf_fwhm=draw(st.none() | st.floats(1e-3, 1.0)),
    )


@given(histogram=histograms())
@example(histogram=dk.G2Histogram(10 + 0.00390625 * np.arange(5), [1, 2, 3, 4], (0.0, 1.0)))
@settings(max_examples=100, deadline=None)
def test_histogram_round_trip(tmp_path_factory, histogram):
    path = tmp_path_factory.mktemp("histogram") / "histogram.tsv"
    dk.write_histogram(path, histogram)
    back = dk.read_histogram(path)
    np.testing.assert_array_equal(back.counts, histogram.counts)
    scale = np.abs(histogram.bin_edges).max()
    np.testing.assert_allclose(back.bin_centers, histogram.bin_centers, rtol=0, atol=2e-9 * scale)
    assert back.normalization_window == tuple(at_10_digits(histogram.normalization_window))
    assert back.seed == histogram.seed
    assert back.n_events == histogram.n_events
    if histogram.irf_fwhm is None:
        assert back.irf_fwhm is None
    else:
        assert back.irf_fwhm == at_10_digits([histogram.irf_fwhm])[0]


@st.composite
def spectra(draw):
    step = draw(st.floats(1e-2, 10.0))
    energies = draw(uniform_grids(-2e6, 2e6, step, step))
    n = energies.size
    intensities = draw(st.lists(st.floats(0.0, 1e300), min_size=n, max_size=n))
    instrument = dk.Instrument(draw(st.sampled_from(["grating", "fabry_perot"])), 4.0 * step)
    return dk.Spectrum(energies, intensities, instrument)


@given(spectrum=spectra())
@settings(max_examples=100, deadline=None)
def test_spectrum_round_trip(tmp_path_factory, spectrum):
    path = tmp_path_factory.mktemp("spectrum") / "spectrum.tsv"
    dk.write_spectrum(path, spectrum)
    back = dk.read_spectrum(path)
    np.testing.assert_array_equal(back.energies, at_10_digits(spectrum.energies))
    np.testing.assert_array_equal(back.intensities, at_10_digits(spectrum.intensities))
    assert back.instrument.kind == spectrum.instrument.kind
    resolution = at_10_digits([spectrum.instrument.resolution_fwhm])[0]
    assert back.instrument.resolution_fwhm == resolution


positive = st.floats(1e-300, 1e300)
records = st.builds(
    dk.ExposureRecord,
    pulse=st.builds(dk.ExposurePulse, moderate_floats, positive, positive),
    energies=st.dictionaries(st.integers(0, 99), moderate_floats, max_size=4),
    spectra=st.lists(st.from_regex(r"[A-Za-z0-9_.]{1,12}", fullmatch=True), max_size=4).map(tuple),
    rescans=st.integers(0, 50),
)


@given(log=st.lists(records, max_size=8).map(lambda rs: dk.ExposureLog(list(rs))))
@settings(max_examples=100, deadline=None)
def test_journal_round_trip(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("journal") / "journal.txt"
    dk.write_journal(path, log)
    back = dk.read_journal(path)
    assert len(back) == len(log)
    for parsed, original in zip(back, log):
        pulse = original.pulse
        assert [parsed.pulse.site, parsed.pulse.power, parsed.pulse.duration] == list(
            at_10_digits([pulse.site, pulse.power, pulse.duration])
        )
        assert parsed.energies == {
            k: float(f"{v:.10g}") for k, v in original.energies.items()
        }
        assert parsed.spectra == original.spectra
        assert parsed.rescans == original.rescans
