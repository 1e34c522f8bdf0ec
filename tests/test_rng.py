"""Counter-addressed Philox uniforms against numpy's sequential generator."""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsmc import rng as frng

MASK64 = (1 << 64) - 1
COUNTS = (1, 3, 4, 5, 8, 9, 13, 22)     # crossing 0, 1 or several 4-word blocks


def _sequential(seed, substream, offset, count):
    gen = frng.stream(seed, substream)
    gen.random(offset)
    return gen.random(count)


@pytest.mark.parametrize("seed", [0, MASK64, -1])
@pytest.mark.parametrize("substream", [frng.CODEBOOK_STREAM, frng.AUX_STREAM, 0, 7])
def test_uniforms_match_stream_at_every_offset(seed, substream):
    ids = np.array([substream], dtype=np.uint64)
    for offset in range(10):
        for count in COUNTS:
            got = frng.uniforms(seed, ids, offset, count)
            assert got.shape == (1, count)
            assert np.array_equal(got[0], _sequential(seed, substream, offset, count)), \
                (offset, count)


def test_negative_seed_is_masked():
    ids = np.arange(3)
    assert np.array_equal(frng.uniforms(-1, ids, 5, 9), frng.uniforms(MASK64, ids, 5, 9))


def test_empty_ids_and_zero_count():
    assert frng.uniforms(0, np.array([], dtype=np.int64), 3, 5).shape == (0, 5)
    assert frng.uniforms(0, np.arange(4), 3, 0).shape == (4, 0)


def test_rows_straddling_the_chunk_size(monkeypatch):
    """Splitting the substreams into passes changes no row."""
    ids = np.array([11, 0, 5, 3, 2, 40, 9], dtype=np.int64)
    whole = frng.uniforms(3, ids, 6, 11)
    monkeypatch.setattr(frng, "_CHUNK_BLOCKS", 12)      # 4 blocks a row: 3 rows a pass
    assert np.array_equal(frng.uniforms(3, ids, 6, 11), whole)
    for row, k in zip(whole, ids):
        assert np.array_equal(row, _sequential(3, int(k), 6, 11))


# -- per-row offsets --------------------------------------------------------

ROW_IDS = np.array([11, 0, 5, 3, 2, 40, 9, 1, 7], dtype=np.int64)
ROW_OFFSETS = (
    np.arange(9) + 10,                   # every residue mod 4, side by side
    2 + np.arange(9) * 7,                # epoch windows 2 + e n at odd n
    2 + np.arange(9) % 3 * 20,           # epoch windows at n = 20: one residue
    np.array([0, 0, 22, 2, 0, 42, 62, 0, 2]),   # first windows beside later ones
)


@pytest.mark.parametrize("offsets", ROW_OFFSETS)
@pytest.mark.parametrize("count", range(1, 10))
def test_per_row_offsets_match_stream(offsets, count):
    got = frng.uniforms(5, ROW_IDS, offsets, count)
    assert got.shape == (ROW_IDS.size, count)
    for row, k, off in zip(got, ROW_IDS.tolist(), offsets.tolist()):
        assert np.array_equal(row, _sequential(5, k, off, count)), (k, off, count)


@pytest.mark.parametrize("offsets", ROW_OFFSETS)
def test_per_row_offsets_straddling_the_chunk_size(monkeypatch, offsets):
    """Passes of rows with different skips change no row."""
    whole = frng.uniforms(3, ROW_IDS, offsets, 7)
    monkeypatch.setattr(frng, "_CHUNK_BLOCKS", 7)       # 3 blocks a row: 2 rows a pass
    assert np.array_equal(frng.uniforms(3, ROW_IDS, offsets, 7), whole)
    for row, k, off in zip(whole, ROW_IDS.tolist(), offsets.tolist()):
        assert np.array_equal(row, _sequential(3, k, off, 7))


@pytest.mark.parametrize("offset", range(6))
def test_scalar_offset_is_one_offset_per_row(offset):
    scalar = frng.uniforms(1, ROW_IDS, offset, 9)
    assert np.array_equal(scalar, frng.uniforms(1, ROW_IDS, np.full(ROW_IDS.size, offset), 9))
    for row, k in zip(scalar, ROW_IDS.tolist()):
        assert np.array_equal(row, _sequential(1, k, offset, 9))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=-(1 << 63), max_value=MASK64),
       ids=st.lists(st.integers(min_value=0, max_value=MASK64), max_size=5),
       offset=st.integers(min_value=0, max_value=200),
       count=st.integers(min_value=0, max_value=30))
def test_uniforms_differential(seed, ids, offset, count):
    got = frng.uniforms(seed, np.array(ids, dtype=np.uint64), offset, count)
    assert got.shape == (len(ids), count)
    for row, k in zip(got, ids):
        assert np.array_equal(row, _sequential(seed, k, offset, count))


# -- inverse-CDF sampling ---------------------------------------------------

ROWS = (
    [0.0, 0.0, 0.3, 0.7, 0.0, 0.0],     # leading and trailing zero mass
    [0.1] * 10,                          # running sum ends at 1 - 2^-53
    [0.0, 0.0, 1.0, 0.0],                # point mass
    [0.25, 0.0, 0.5, 0.0, 0.25],
    [1.0],
)
TOP = 1.0 - 2.0 ** -53                   # largest uniform random() returns


def _reference_cell(weights, u):
    """min(bisect_right(cdf, u), last positive cell), in Python floats."""
    last = max((i for i, w in enumerate(weights) if w > 0.0), default=0)
    return min(bisect_right(list(accumulate(weights)), u), last)


def _probes(weights):
    gen = np.random.default_rng(len(weights))
    return [0.0, TOP, *accumulate(weights), *gen.random(20).tolist()]


@pytest.mark.parametrize("weights", ROWS)
def test_draw_matches_bisect_reference(weights):
    cdf, last = frng.inverse_cdf(weights)
    assert cdf.tolist() == list(accumulate(weights))
    u = np.array(_probes(weights))
    got = frng.draw(cdf, last, u)
    assert got.tolist() == [_reference_cell(weights, v) for v in u.tolist()]
    assert got.tolist() == [int(frng.draw(cdf, last, v)) for v in u]      # scalar u


def test_draw_broadcasts_like_the_codebook():
    """u (b, n_hat, S) against cdf (S, X): one call draws every state."""
    # the middle row's running sum ends at 1 - 2^-53, before its zero cell
    policy = np.array([[0.0, 0.6, 0.4, 0.0], [0.7, 0.2, 0.1, 0.0], [0.0, 0.0, 0.0, 1.0]])
    cdf, last = frng.inverse_cdf(policy)
    assert cdf.shape == (3, 4) and last.tolist() == [2, 2, 3]
    u = np.random.default_rng(3).random((6, 5, 3))
    u[0, 0] = 0.0
    u[0, 1] = TOP
    u[0, 2] = cdf[np.arange(3), [1, 0, 2]]                   # exactly on a cdf entry
    got = frng.draw(cdf, last, u)
    assert got.shape == u.shape
    for idx in np.ndindex(u.shape):
        assert got[idx] == _reference_cell(policy[idx[-1]].tolist(), float(u[idx]))


def test_short_running_sum_clips_to_last_cell():
    cdf, last = frng.inverse_cdf([0.1] * 10)
    assert cdf[-1] == TOP                 # so #{cdf <= TOP} counts all ten cells
    assert frng.draw(cdf, last, TOP) == 9


def test_draw_on_gathered_rows():
    """Rows picked per trial (B, K) against one uniform per trial (B,)."""
    table = np.array([[0.0, 0.0, 0.3, 0.7, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                      [0.25, 0.0, 0.5, 0.0, 0.25, 0.0],
                      [0.7, 0.2, 0.1, 0.0, 0.0, 0.0]])
    cdf, last = frng.inverse_cdf(table)
    rows = np.array([0, 3, 2, 1, 3, 0, 2])
    u = np.array([0.0, TOP, 0.3, 0.999, 0.75, 0.3, 0.5])
    got = frng.draw(cdf[rows], last[rows], u)
    assert got.tolist() == [_reference_cell(table[r].tolist(), v)
                            for r, v in zip(rows.tolist(), u.tolist())]
