"""Seedable, splittable random streams.

Substream k of a seed is the Philox4x64-10 sequence keyed by (seed, k)
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011):
word j is word j mod 4 of the block at counter j//4 + 1, and its uniform is
(word >> 11) * 2^-53.  `stream` reads it in order as a numpy Generator;
`uniforms` reads any window of it for many substreams at once, by counter,
with no generator per substream.  The two agree bit for bit, so a trial's
randomness depends only on (seed, trial), never on batching or scheduling.

A uniform u picks a cell from weights by inverse CDF: the cell is
min(#{cdf <= u}, last), where cdf is the running sum of the weights and last
the index of the last positive weight, so zero-mass cells stay unreachable
even when the running sum ends below 1.  `inverse_cdf` builds the tables and
`draw` applies the rule to arrays of uniforms.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# reserved substream ids (trial substreams use 0, 1, 2, ...)
CODEBOOK_STREAM = _MASK64
AUX_STREAM = _MASK64 - 1

# Philox4x64 round multipliers and Weyl key increments
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_LO32, _SH32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_CHUNK_BLOCKS = 1 << 14            # blocks per kernel pass: caps its temporaries


def stream(seed: int, substream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, substream)."""
    key = np.array([seed & _MASK64, substream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def inverse_cdf(weights):
    """(cdf, last) along the last axis: running sums of the weights and the
    index of the last positive weight (0 for a row with none)."""
    w = np.asarray(weights, dtype=np.float64)
    pos = w > 0.0
    last = np.where(pos.any(axis=-1), w.shape[-1] - 1 - np.argmax(pos[..., ::-1], axis=-1), 0)
    return np.cumsum(w, axis=-1), last


def draw(cdf, last, u):
    """Cells min(#{cdf <= u}, last) for uniforms u; cdf rows (..., K) and last
    (...) broadcast against u."""
    return np.minimum((cdf <= np.asarray(u)[..., None]).sum(axis=-1), last)


def _mulhilo(m: int, x: np.ndarray):
    """(high, low) 64-bit words of the 128-bit product m * x, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _SH32
    lh = x_lo * m_hi
    cross = ((x_lo * m_lo) >> _SH32) + (lh & _LO32) + x_hi * m_lo   # < 2^64
    return x_hi * m_hi + (lh >> _SH32) + (cross >> _SH32), x * np.uint64(m)


def _philox_words(seed: int, keys: np.ndarray, first_block: int, n_blocks: int) -> np.ndarray:
    """(len(keys), 4 n_blocks) words of blocks first_block, ... keyed by (seed, keys[i])."""
    c0 = np.broadcast_to(np.arange(first_block + 1, first_block + 1 + n_blocks,
                                   dtype=np.uint64), (keys.size, n_blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    k0, k1 = seed, keys[:, None]
    for r in range(10):
        if r:
            k0, k1 = (k0 + _W0) & _MASK64, k1 + np.uint64(_W1)
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3), axis=2).reshape(keys.size, 4 * n_blocks)


def uniforms(seed: int, substreams, offset: int, count: int) -> np.ndarray:
    """(len(substreams), count) array whose row i is what
    stream(seed, substreams[i]).random(count) returns after `offset` earlier
    draws.  substreams is an integer array; negative ids wrap mod 2^64."""
    keys = np.asarray(substreams).astype(np.uint64).ravel()
    out = np.empty((keys.size, count))
    if keys.size == 0 or count == 0:
        return out
    first = offset // 4
    n_blocks = (offset + count - 1) // 4 - first + 1
    skip = offset - 4 * first
    rows = max(1, _CHUNK_BLOCKS // n_blocks)
    for lo in range(0, keys.size, rows):
        words = _philox_words(seed & _MASK64, keys[lo:lo + rows], first, n_blocks)
        out[lo:lo + rows] = (words[:, skip:skip + count] >> np.uint64(11)) * 2.0 ** -53
    return out
