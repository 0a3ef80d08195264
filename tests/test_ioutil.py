"""The bulk CSV formatter prints exactly what ``format(x, ".9g")`` does."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyheat import ioutil
from fuzzyheat.ioutil import write_csv


def reference(table, prefix=""):
    return "".join(prefix + ",".join(format(x, ".9g") for x in row) + "\n" for row in table)


def written(table, prefix=""):
    stream = io.StringIO()
    write_csv(stream, None, table, prefix)
    return stream.getvalue()


def assert_exact(values):
    table = np.asarray(values, dtype=float).reshape(-1, 1)
    assert written(table).splitlines() == [format(x, ".9g") for x in table[:, 0].tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.floats(), min_size=3, max_size=3), min_size=1, max_size=40),
       st.sampled_from(["", "q-only,"]))
def test_any_float_table_prints_as_format(rows, prefix):
    assert written(rows, prefix) == reference(rows, prefix)


def test_ten_digit_ties_round_half_even():
    # Exact binary ties (x.5 at nine digits) and decimal ties that are not
    # exact in binary, at many scales.
    ties = [123456788.5, 123456789.5, 100000000.5, 999999998.5, 1234567885.0, 0.5, 2.5]
    decimal = [float(f"{m}5e{k}") for m in (123456788, 100000000, 999999999, 314159265)
               for k in range(-30, 31)]
    assert_exact([s * 2.0**k for s in ties for k in range(-40, 41)] + decimal)
    assert_exact([-x for x in decimal])


def test_neighbours_of_every_power_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    assert_exact(np.concatenate([powers, below, above, np.nextafter(below, 0.0),
                                 np.nextafter(above, np.inf), -powers]))


def test_values_that_round_up_across_a_decade():
    up = [float(f"9.9999999{d}e{k}") for d in (95, 96, 99) for k in range(-300, 301)]
    stay = [float(f"9.9999999{d}e{k}") for d in (49, 94) for k in range(-300, 301)]
    assert_exact(up + stay + [9.9999999996e-5, 999999999.5, 999999999.4999999, 0.99999999995])


def test_integers_below_ten_to_the_ninth():
    rng = np.random.default_rng(0)
    edges = [0, 1, 9, 10, 99, 100, 99999999, 100000000, 123456789, 999999999]
    assert_exact(edges + rng.integers(0, 10**9, 20000).tolist())


def test_special_values_and_range_ends():
    tiny = np.nextafter(0.0, 1.0)
    assert_exact([0.0, -0.0, np.nan, np.inf, -np.inf, tiny, -tiny, 2.2250738585072014e-308,
                  1.7976931348623157e308, 1e-280, 1e280, np.nextafter(1e-280, 0.0),
                  np.nextafter(1e280, np.inf), 1e-4, 1e-5, 123456789e-13, 0.0001234567891])


@pytest.mark.parametrize("cols", [1, 3, 202, ioutil.CHUNK // 2 + 5, ioutil.CHUNK + 5,
                                  2 * ioutil.CHUNK + 5])
def test_rows_across_chunks_with_a_prefix(cols):
    rng = np.random.default_rng(cols)
    table = rng.standard_normal((2 * ioutil.CHUNK // cols + 3, cols)) * 10.0 ** rng.integers(
        -12, 12, (1, cols))
    table[1, 0] = 0.0
    for prefix in ("", "h-only,average_width,"):
        assert written(table, prefix) == reference(table.tolist(), prefix)


class Discard:
    def write(self, text):
        pass


def write_peak(table):
    """The peak ``tracemalloc`` sees while ``table`` is written to a
    stream that keeps nothing."""
    tracemalloc.start()
    try:
        write_csv(Discard(), None, table)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cols", [1, 8, 202])
def test_write_peak_does_not_grow_with_the_chunks(cols):
    """The formatter's work arrays are allocated once per call, and a chunk
    frees what it allocates: 50 chunks peak as high as one, give or take a
    few Python objects."""
    rng = np.random.default_rng(cols)
    rows = ioutil.CHUNK // cols
    one, many = rng.standard_normal((rows, cols)), rng.standard_normal((50 * rows, cols))
    write_peak(one)  # numpy's first-call caches
    assert write_peak(many) <= write_peak(one) + 1024


def test_header_is_written_first():
    stream = io.StringIO()
    write_csv(stream, "a,b\n", [[1.0, 0.25]])
    assert stream.getvalue() == "a,b\n1,0.25\n"


def test_fallback_is_rare_on_random_normals(monkeypatch):
    """The per-value fallback formats fewer than 1e-4 of a million normal
    values; the rest are certified in bulk."""
    calls = []

    def counting(value, spec):
        calls.append(value)
        return format(value, spec)

    monkeypatch.setattr(ioutil, "format", counting, raising=False)
    values = np.random.default_rng(1).standard_normal((10**6 // 8, 8))
    text = written(values)
    assert len(calls) < 100
    sample = values[::997]
    assert text.splitlines()[::997] == reference(sample.tolist()).splitlines()
