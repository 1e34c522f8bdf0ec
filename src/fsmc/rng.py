"""Seedable, splittable random streams.

Substream k of a seed is the Philox4x64-10 sequence keyed by (seed, k)
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011):
word j is word j mod 4 of the block at counter j//4 + 1, and its uniform is
(word >> 11) * 2^-53.  `stream` reads it in order as a numpy Generator;
`uniforms` reads any window of it for many substreams at once, by counter,
with no generator per substream: short windows by a vectorized kernel whose
rounds run in place, long ones row by row through one re-keyed numpy Philox.
All agree bit for bit, so a trial's randomness depends only on (seed, trial),
never on batching or scheduling.

A uniform u picks a cell from weights by inverse CDF: the cell is
min(#{cdf <= u}, last), where cdf is the running sum of the weights and last
the index of the last positive weight, so zero-mass cells stay unreachable
even when the running sum ends below 1.  `inverse_cdf` builds tables of
such rows cell-major; `draw` applies the rule to arrays by flat row index,
and is the only place the rule is written: one-trial paths too draw every
cell they might need with it, then walk the chain over the drawn cells.
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
_CHUNK_BLOCKS = 1 << 14            # blocks per kernel pass: caps its eight buffers
# Windows of at least this many words are read row by row: re-keying one numpy
# Philox costs about 1.1 us a row, while the kernel's cost grows with the window.
# Medians on 2 cores, numpy 2.4, by row/by kernel (ms): 4096 rows of 22, 44 and 56
# words 6.7/4.3, 7.5/6.7, 7.9/8.1; 2000 rows of 48, 64 and 128 words 3.8/3.9,
# 3.8/5.1, 4.5/9.4; 1000 rows of 40 and 1001 words 1.8/1.7, 6.9/31.8.
_ROW_WORDS = 48


def stream(seed: int, substream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, substream)."""
    key = np.array([seed & _MASK64, substream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def inverse_cdf(weights):
    """Table (cols, last) of weights (..., K), one row r per leading index in C
    order: cols[j, r] is row r's running sum through cell j (cell-major, (K, R)),
    last[r] the index of its last positive weight (0 for a row with none)."""
    w = np.asarray(weights, dtype=np.float64).reshape(-1, np.shape(weights)[-1])
    pos = w > 0.0
    last = np.where(pos.any(axis=1), w.shape[1] - 1 - np.argmax(pos[:, ::-1], axis=1), 0)
    return np.ascontiguousarray(np.cumsum(w, axis=1).T), last


def draw(cols, last, rows, u):
    """Cells min(#{cols[:, rows] <= u}, last[rows]) for uniforms u; row indices
    rows broadcast against u."""
    lim = last.take(rows)
    cell = np.zeros(np.broadcast(lim, u).shape, dtype=np.intp)
    for col in cols[:-1]:         # the largest sum is <= u only if all are: count >= last
        cell += col.take(rows) <= u
    return np.minimum(cell, lim, out=cell)


def _mulhi(m: int, x, hi, t0, t1, t2):
    """hi, set in place to the high 64-bit word of the 128-bit product m * x,
    from 32-bit halves; t0, t1 and t2 are scratch of x's shape."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    np.bitwise_and(x, _LO32, out=t0)                # x_lo
    np.multiply(t0, m_hi, out=t1)                   # lh = x_lo m_hi
    np.right_shift(np.multiply(t0, m_lo, out=t0), _SH32, out=t0)
    np.right_shift(x, _SH32, out=t2)                # x_hi
    np.multiply(t2, m_hi, out=hi)
    t0 += np.multiply(t2, m_lo, out=t2)
    t0 += np.bitwise_and(t1, _LO32, out=t2)         # the cross term, < 2^64
    hi += np.right_shift(t1, _SH32, out=t1)
    hi += np.right_shift(t0, _SH32, out=t0)
    return hi


def _philox_words(seed: int, keys: np.ndarray, first: np.ndarray, n_blocks: int) -> np.ndarray:
    """(len(keys), 4 n_blocks) words of blocks first[i], first[i] + 1, ... keyed
    by (seed, keys[i]); the rounds run in place on eight preallocated buffers."""
    buf = np.empty((8, keys.size, n_blocks), dtype=np.uint64)
    buf[1:4] = 0
    c0, c1, c2, c3, hi, *scratch = buf
    np.add.outer(first.astype(np.uint64), np.arange(1, n_blocks + 1, dtype=np.uint64), out=c0)
    for r in range(10):                             # key: (seed, keys) plus r Weyl increments
        k0, k1 = np.uint64((seed + r * _W0) & _MASK64), keys[:, None] + np.uint64(r * _W1 & _MASK64)
        c3 ^= _mulhi(_M0, c0, hi, *scratch)
        c3 ^= k1
        c1 ^= _mulhi(_M1, c2, hi, *scratch)
        c1 ^= k0
        c0 *= np.uint64(_M0)
        c2 *= np.uint64(_M1)
        c0, c1, c2, c3 = c1, c2, c3, c0             # (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
    return np.stack((c0, c1, c2, c3), axis=2).reshape(keys.size, 4 * n_blocks)


def _read_rows(seed: int, keys: np.ndarray, first: np.ndarray, skip: np.ndarray, out):
    """Fill each row of out from one Philox bit generator whose state is set
    to (key (seed, keys[i]), counter first[i], empty buffer), so its next word
    is word skip[i] of block first[i] + 1 once skip[i] words are discarded.
    The state holds lists: the setter reads them 0.7 us a re-key faster than arrays."""
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    counter, key = [0, 0, 0, 0], [seed, 0]
    state = dict(bits.state, state={"counter": counter, "key": key}, buffer=[0] * 4, buffer_pos=4)
    for row, k, f, sk in zip(out, keys.tolist(), first.tolist(), skip.tolist()):
        counter[0], key[1] = f, k
        bits.state = state
        if sk:
            bits.random_raw(sk)
        gen.random(out=row)


def uniforms(seed: int, substreams, offset, count: int) -> np.ndarray:
    """(len(substreams), count) array whose row i is what
    stream(seed, substreams[i]).random(count) returns after offset[i] earlier
    draws.  substreams is an integer array; negative ids wrap mod 2^64.
    offset is one non-negative integer for all rows or an array of one per row.
    Windows of _ROW_WORDS or more are read row by row (_read_rows), shorter
    ones by the vectorized kernel (_philox_words)."""
    keys = np.asarray(substreams).astype(np.uint64).ravel()
    out = np.empty((keys.size, count))
    if keys.size == 0 or count == 0:
        return out
    first, skip = np.divmod(np.broadcast_to(np.asarray(offset, dtype=np.int64), keys.shape), 4)
    if count >= _ROW_WORDS:
        _read_rows(seed & _MASK64, keys, first, skip, out)
        return out
    n_blocks = (int(skip.max()) + count - 1) // 4 + 1
    rows = max(1, _CHUNK_BLOCKS // n_blocks)
    for i in range(0, keys.size, rows):
        part = slice(i, i + rows)
        words = _philox_words(seed & _MASK64, keys[part], first[part], n_blocks)
        # flat indices of the count words each row reads, skip words into its blocks
        at = (skip[part] + np.arange(0, words.size, words.shape[1]))[:, None] + np.arange(count)
        words = words.take(at)
        words >>= np.uint64(11)
        np.multiply(words, 2.0 ** -53, out=out[part])    # in place: spares two temporaries
    return out
