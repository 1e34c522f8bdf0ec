"""Counter-addressed Philox uniforms against numpy's sequential generator."""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsmc
from fsmc import rng as frng

from conftest import make_bsc

MASK64 = (1 << 64) - 1
# crossing 0, 1 or several 4-word blocks, by the kernel and, from _ROW_WORDS, row by row
COUNTS = (1, 3, 4, 5, 8, 9, 13, 22, frng._ROW_WORDS - 1, frng._ROW_WORDS, 1001)


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


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_callers_arrays_are_left_alone(dtype):
    """The kernel runs its rounds in place on its own buffers: neither path of
    uniforms, nor _philox_words, writes to the substreams or offsets given."""
    ids = np.array([11, 0, 5, 3, 2, 40, 9], dtype=dtype)
    offsets = np.array([0, 3, 22, 6, 1, 42, 7], dtype=dtype)
    kept = ids.copy(), offsets.copy()
    for count in (7, frng._ROW_WORDS):               # by the kernel, then row by row
        first = frng.uniforms(3, ids, offsets, count)
        assert np.array_equal(frng.uniforms(3, ids, offsets, count), first)
        assert np.array_equal(ids, kept[0]) and np.array_equal(offsets, kept[1])
    keys, blocks = ids.astype(np.uint64), offsets.astype(np.uint64)
    words = frng._philox_words(3, keys, blocks, 4)
    assert np.array_equal(frng._philox_words(3, keys, blocks, 4), words)
    assert np.array_equal(keys, kept[0].astype(np.uint64))
    assert np.array_equal(blocks, kept[1].astype(np.uint64))


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
@pytest.mark.parametrize("count", [*range(1, 10), frng._ROW_WORDS, 101])
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
    cols, last = frng.inverse_cdf(weights)
    assert cols.shape == (len(weights), 1) and last.shape == (1,)
    assert cols[:, 0].tolist() == list(accumulate(weights))
    u = np.array(_probes(weights))
    got = frng.draw(cols, last, 0, u)
    assert got.tolist() == [_reference_cell(weights, v) for v in u.tolist()]
    assert got.tolist() == [int(frng.draw(cols, last, 0, v)) for v in u]   # scalar u


def test_draw_broadcasts_like_the_codebook():
    """u (b, n_hat, S) against rows arange(S) of an (S, X) policy: one call
    draws every state."""
    # the middle row's running sum ends at 1 - 2^-53, before its zero cell
    policy = np.array([[0.0, 0.6, 0.4, 0.0], [0.7, 0.2, 0.1, 0.0], [0.0, 0.0, 0.0, 1.0]])
    cols, last = frng.inverse_cdf(policy)
    assert cols.shape == (4, 3) and cols.flags.c_contiguous and last.tolist() == [2, 2, 3]
    u = np.random.default_rng(3).random((6, 5, 3))
    u[0, 0] = 0.0
    u[0, 1] = TOP
    u[0, 2] = cols[[1, 0, 2], np.arange(3)]                  # exactly on a cdf entry
    got = frng.draw(cols, last, np.arange(3), u)
    assert got.shape == u.shape
    for idx in np.ndindex(u.shape):
        assert got[idx] == _reference_cell(policy[idx[-1]].tolist(), float(u[idx]))


def test_short_running_sum_clips_to_last_cell():
    cols, last = frng.inverse_cdf([0.1] * 10)
    assert cols[-1, 0] == TOP             # so #{cdf <= TOP} counts all ten cells
    assert frng.draw(cols, last, 0, TOP) == 9


def test_draw_keeps_scalars_zero_dimensional():
    """A scalar row and uniform, as when one trial draws its initial state,
    give a 0-d cell; one-cell tables give cell 0 in every shape."""
    cols, last = frng.inverse_cdf([0.25, 0.0, 0.75])
    for u, want in ((0.0, 0), (0.25, 2), (TOP, 2)):
        got = frng.draw(cols, last, 0, u)
        assert got.shape == () and got.dtype == np.intp and int(got) == want
    cols, last = frng.inverse_cdf([1.0])
    assert frng.draw(cols, last, 0, TOP).shape == ()
    assert frng.draw(cols, last, 0, 0.5) == 0
    cols, last = frng.inverse_cdf(np.ones((3, 1)))
    got = frng.draw(cols, last, np.arange(3)[:, None], np.full((3, 4), TOP))
    assert got.shape == (3, 4) and not got.any()


def test_draw_on_gathered_rows():
    """Rows picked per trial (B,) against one uniform per trial (B,)."""
    table = np.array([[0.0, 0.0, 0.3, 0.7, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
                      [0.25, 0.0, 0.5, 0.0, 0.25, 0.0],
                      [0.7, 0.2, 0.1, 0.0, 0.0, 0.0]])
    cols, last = frng.inverse_cdf(table)
    rows = np.array([0, 3, 2, 1, 3, 0, 2])
    u = np.array([0.0, TOP, 0.3, 0.999, 0.75, 0.3, 0.5])
    got = frng.draw(cols, last, rows, u)
    assert got.tolist() == [_reference_cell(table[r].tolist(), v)
                            for r, v in zip(rows.tolist(), u.tolist())]


def _table(gen, n_rows, k):
    """n_rows random rows of k cells with zero cells, a point mass, a row
    whose running sum ends at 1 - 2^-53 and one with trailing zero mass."""
    w = gen.random((n_rows, k)) * (gen.random((n_rows, k)) < 0.6)
    w[:, 0] += 1e-3                                          # no row without mass
    w /= w.sum(axis=1, keepdims=True)
    w[0] = np.eye(k)[k // 2]
    if k >= 10:
        w[1] = 0.0
        w[1, :10] = 0.1
    w[-1, k // 2:] = 0.0
    w[-1, 0] += 1.0 - w[-1].sum()
    return w


def _edge_uniforms(gen, shape, cols, rows):
    """Uniforms of the given shape, a third set to 0, 1 - 2^-53 or a running
    sum of the row they meet."""
    u = gen.random(shape)
    rows = np.broadcast_to(rows, shape)
    pick = gen.integers(0, 3, size=shape)
    u[pick == 0] = 0.0
    u[pick == 1] = TOP
    on = gen.integers(0, cols.shape[0], size=shape)
    u[pick == 2] = cols[on, rows][pick == 2]
    return u, rows


@pytest.mark.parametrize("k", [1, 28])                     # K = 1 and K = S Y for S 7, Y 4
@pytest.mark.parametrize("shape", [(500,), (40, 6, 7)])    # (B,) and (m, n_hat, S)
def test_draw_differential_on_broadcast_rows(k, shape):
    gen = np.random.default_rng(k + len(shape))
    table = _table(gen, 7, k)
    cols, last = frng.inverse_cdf(table)
    assert cols.shape == (k, 7) and last.shape == (7,)
    assert np.array_equal(cols, np.cumsum(table, axis=1).T)
    rows = gen.integers(0, 7, size=shape) if len(shape) == 1 else np.arange(7)
    u, every_row = _edge_uniforms(gen, shape, cols, rows)
    got = frng.draw(cols, last, rows, u)
    assert got.shape == shape
    want = [_reference_cell(table[r].tolist(), v)
            for r, v in zip(every_row.ravel().tolist(), u.ravel().tolist())]
    assert got.ravel().tolist() == want


def test_inverse_cdf_rows_follow_the_leading_axes_in_c_order():
    table = _table(np.random.default_rng(9), 6, 5).reshape(2, 3, 5)
    cols, last = frng.inverse_cdf(table)
    assert cols.shape == (5, 6)
    for r, (i, j) in enumerate(np.ndindex(2, 3)):
        assert cols[:, r].tolist() == list(accumulate(table[i, j].tolist()))
        assert last[r] == max(c for c in range(5) if table[i, j, c] > 0.0)


# recorded from the codebook drawn before draw took flat row indices
BSC_CODEBOOK_SHA256 = "adee4da0543d84fed936cf0ee295db8ceb86b4a7e497997587178c8497c8d7fb"


def test_bsc_codebook_at_the_message_cap_is_pinned():
    """The 65536 x 48 codebook of BSC(0.1) at rate 0.18, n 80: the pinned
    bytes, and the bisect rule on the codebook stream's uniforms."""
    scheme = fsmc.build_scheme(make_bsc(0.1), fsmc.SchemeConfig(rate=0.18, gamma=0.6, n=80,
                                                                trials=1, seed=901))
    cb = scheme.codebook
    assert cb.shape == (65536, 48, 1) and cb.dtype == np.int8
    assert hashlib.sha256(cb.tobytes()).hexdigest() == BSC_CODEBOOK_SHA256
    cdf = np.cumsum(scheme.capacity_result.optimal_policy.matrix()[0])
    u = frng.stream(901, frng.CODEBOOK_STREAM).random(cb.shape)
    assert np.array_equal(cb, np.minimum(np.searchsorted(cdf, u, side="right"), 1))
