"""Shared builders for the test suite.

Everything here constructs channels directly from probability arrays so that
tests exercise the library against independently written inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

import fsmc
from fsmc import rng


def make_bsc(p: float, initial=(1.0,)) -> fsmc.ChannelSpec:
    """Single-state binary symmetric channel with crossover p."""
    return fsmc.channel_from_arrays(
        ("s",), ("0", "1"), ("0", "1"),
        [[[[1.0 - p, p]], [[p, 1.0 - p]]]],
        list(initial),
    )


def make_z() -> fsmc.ChannelSpec:
    """Single-state channel where input 0 produces output 0 with certainty.

    KL(P(.|1) || P(.|0)) is infinite, so the divergence coefficient is +inf.
    """
    return fsmc.channel_from_arrays(
        ("s",), ("0", "1"), ("0", "1"),
        [[[[1.0, 0.0]], [[0.3, 0.7]]]],
        [1.0],
    )


def make_iid_state(mu=(0.4, 0.6), ps=(0.05, 0.2)) -> fsmc.ChannelSpec:
    """Two-state channel whose state sequence is i.i.d. mu and whose output is
    a state-dependent binary symmetric channel; no ISI by construction."""
    mu = np.asarray(mu, dtype=np.float64)
    k = np.zeros((2, 2, 2, 2))
    for s in range(2):
        for x in range(2):
            for s2 in range(2):
                for y in range(2):
                    k[s, x, s2, y] = mu[s2] * ((1.0 - ps[s]) if y == x else ps[s])
    return fsmc.channel_from_arrays(("a", "b"), ("0", "1"), ("0", "1"), k, mu)


def make_random_channel(seed: int, n_states: int = 2, n_inputs: int = 2,
                        n_outputs: int = 2, floor: float = 0.05) -> fsmc.ChannelSpec:
    """Random fully supported channel; floor > 0 keeps every divergence finite
    and every deterministic-policy chain irreducible."""
    gen = np.random.default_rng(seed)
    k = gen.random((n_states, n_inputs, n_states, n_outputs)) + floor
    k /= k.sum(axis=(2, 3), keepdims=True)
    init = gen.random(n_states) + floor
    init /= init.sum()
    labels = lambda pre, m: tuple(f"{pre}{i}" for i in range(m))
    return fsmc.channel_from_arrays(labels("s", n_states), labels("x", n_inputs),
                                    labels("y", n_outputs), k, init)


def make_sparse_zero_error(seed: int = 0) -> fsmc.ChannelSpec:
    """Random 3-state channel whose zero (next state, output) cells depend on
    the input, so the next state depends on it too (ISI) and, at seed 0, the
    divergence coefficient is +inf; a cycle a -> b -> c -> a on output 0
    keeps every row and chain alive."""
    gen = np.random.default_rng(seed)
    k = gen.random((3, 2, 3, 2)) + 0.05
    k *= (gen.random((3, 2, 3, 2)) < 0.6)
    k[:, :, (np.arange(3) + 1) % 3, 0] += 0.2
    k /= k.sum(axis=(2, 3), keepdims=True)
    return fsmc.channel_from_arrays(("a", "b", "c"), ("0", "1"), ("0", "1"), k,
                                    [1 / 3, 1 / 3, 1 / 3])


def sparse_channel(seed):
    """Random channel with zero cells.  By mode: 0 free (often reducible);
    1 a deterministic cycle (periodic, every input identical); 2 the cycle
    plus sparse cells; 3 inputs copied onto others at some states (ties);
    4 free, and in some draws every input identical; 5 the cycle plus one
    (s_next, y) support per state shared by its inputs (finite KLs); 6 no
    ISI, a state law times a sparse output law, whose input rows of the
    state marginal agree only up to rounding."""
    gen = np.random.default_rng([seed, 5])
    X = int(gen.choice([2, 2, 3]))
    S = int(gen.integers(1, 9 if X == 2 else 5))
    Y = int(gen.integers(1, 4))
    mode = int(gen.integers(0, 7))
    support = gen.random((S, 1 if mode == 5 else X, S, Y)) < gen.uniform(0.2, 0.9)
    k = (gen.random((S, X, S, Y)) + 0.05) * support * (mode != 1)
    if mode in (1, 2, 5):
        k[np.arange(S), :, (np.arange(S) + 1) % S, gen.integers(0, Y, size=S)] += 0.3
    for s, x in zip(*np.nonzero(k.reshape(S, X, -1).sum(axis=2) == 0.0)):
        k[s, x, gen.integers(0, S), gen.integers(0, Y)] = 1.0
    if mode == 3:
        for s in range(S):
            if gen.random() < 0.6:
                k[s, gen.integers(0, X)] = k[s, gen.integers(0, X)]
    if mode == 4 and gen.random() < 0.3:
        k[:] = k[:, :1]
    if mode == 6:
        t = gen.random((S, S)) * (gen.random((S, S)) < 0.5)
        t[np.arange(S), (np.arange(S) + 1) % S] += 0.3
        w = (gen.random((S, X, Y)) + 0.05) * (gen.random((S, X, Y)) < 0.6)
        w[:, :, 0] += 0.01
        k = t[:, None, :, None] * (w / w.sum(axis=2, keepdims=True))[:, :, None, :]
    k /= k.sum(axis=(2, 3), keepdims=True)
    lab = lambda pre, m: tuple(f"{pre}{i}" for i in range(m))
    return fsmc.channel_from_arrays(lab("s", S), lab("x", X), lab("y", Y), k,
                                    np.full(S, 1.0 / S))


def trajectory_oracle(ch, policy, grid, n, seed, substream=0) -> np.ndarray:
    """(S, K) visit counts of one trajectory, walked step by step over lists:
    the reference the lockstep occupation engine is compared against.

    policy is a StationaryPolicy or a callable (states, outputs) -> InputDist;
    each control is looked up on the grid by its exact bytes.  Step t's input
    and (next state, output) cell are drawn up front for every grid point and
    every (state, input) pair, with uniforms 2t + 1 and 2t + 2 of substream
    (seed, substream); word 0 draws the initial state.
    """
    if isinstance(policy, fsmc.StationaryPolicy):
        rows = [fsmc.InputDist(w) for w in policy.matrix()]
        policy = lambda states, outputs: rows[states[-1]]
    S, X, Y, K = ch.n_states, ch.n_inputs, ch.n_outputs, len(grid)
    u = rng.stream(seed, substream).random(2 * n + 1)
    states, outputs = [int(rng.draw(*rng.inverse_cdf(ch.initial_dist), 0, u[0]))], []
    # inputs[k][t]: grid point k's input at step t; cells[s X + x][t]: the (s, x) cell
    inputs = rng.draw(*rng.inverse_cdf(grid.matrix()), np.arange(K)[:, None], u[1::2]).tolist()
    cells = rng.draw(*rng.inverse_cdf(ch.kernel.reshape(S * X, S * Y)),
                     np.arange(S * X)[:, None], u[2::2]).tolist()
    counts = [0] * (S * K)                   # visits to (s, k) at s * K + k
    for t in range(n):
        k = grid.index_of(policy(states, outputs))
        if k is None:
            raise fsmc.ChannelError(f"policy output at step {t} is not a grid point")
        s = states[-1]
        counts[s * K + k] += 1
        flat = cells[s * X + inputs[k][t]][t]
        states.append(flat // Y)
        outputs.append(flat % Y)
    return np.array(counts, dtype=np.int64).reshape(S, K)


@pytest.fixture()
def bsc() -> fsmc.ChannelSpec:
    return make_bsc(0.1)


@pytest.fixture()
def zchan() -> fsmc.ChannelSpec:
    return make_z()


@pytest.fixture()
def sym_example() -> fsmc.ChannelSpec:
    return fsmc.make_example(fsmc.symmetric_params())


def write_channel(tmp_path, ch, name="chan.json"):
    path = tmp_path / name
    fsmc.save_channel(ch, path)
    return path
