"""Counter-addressed Philox uniforms against numpy's sequential generator."""

from __future__ import annotations

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
