"""Irreducibility checks and stationary distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsmc
from fsmc import ChannelError
from conftest import make_random_channel


def test_is_irreducible_basics():
    assert fsmc.is_irreducible(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert not fsmc.is_irreducible(np.array([[1.0, 0.0], [0.5, 0.5]]))
    # periodic but irreducible
    assert fsmc.is_irreducible(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_check_assumption_holds_on_positive_kernels():
    ch = make_random_channel(3)
    ok, violators = fsmc.check_assumption1(ch)
    assert ok and not violators


def test_check_assumption_reports_violating_map():
    # under input 0 state 0 is absorbing; under input 1 the chain mixes
    k = np.zeros((2, 2, 2, 2))
    k[0, 0, 0, :] = 0.5          # stay in state 0
    k[0, 1, :, 0] = 0.5          # mix
    k[1, 0, :, 1] = 0.5
    k[1, 1, :, 0] = 0.5
    ch = fsmc.channel_from_arrays(("a", "b"), ("0", "1"), ("u", "v"), k,
                                  [0.5, 0.5])
    ok, violators = fsmc.check_assumption1(ch)
    assert not ok
    assert violators
    f = violators[0]
    assert f[0] == 0             # the absorbing choice at state 0
    # the reported map really induces a reducible chain
    q = fsmc.induced_matrix(ch, fsmc.StationaryPolicy.deterministic(f, 2))
    assert not fsmc.is_irreducible(q)


def test_stationary_measure_two_state_closed_form():
    # leave probabilities a and b give weights (b, a) / (a + b)
    a, b = 0.7, 0.3
    q = np.array([[1 - a, a], [b, 1 - b]])
    mu = fsmc.stationary_measure(q)
    assert np.max(np.abs(mu - np.array([b, a]) / (a + b))) < 1e-12


def test_stationary_measure_always_returns_stationary_vector():
    # irreducibility is the caller's precondition; even degenerate input must
    # yield some vector with mu Q = mu (residual asserted inside)
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    mu = fsmc.stationary_measure(q)
    assert np.max(np.abs(mu @ q - mu)) < 1e-10
    assert abs(mu.sum() - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=2, max_value=5))
def test_stationary_measure_properties(seed, n):
    gen = np.random.default_rng(seed)
    q = gen.random((n, n)) + 0.01
    q /= q.sum(axis=1, keepdims=True)
    mu = fsmc.stationary_measure(q)
    assert np.all(mu >= 0.0)
    assert abs(mu.sum() - 1.0) < 1e-12
    assert np.max(np.abs(mu @ q - mu)) < 1e-10


def test_stationary_measure_periodic_chain():
    # the alternating chain has stationary law (1/2, 1/2) (power iteration
    # on the raw matrix would not converge; the solver must still work)
    q = np.array([[0.0, 1.0], [1.0, 0.0]])
    mu = fsmc.stationary_measure(q)
    assert np.max(np.abs(mu - 0.5)) < 1e-12


def _sparse_chain(gen, n):
    q = gen.random((n, n)) * (gen.random((n, n)) < 0.4)
    q[np.arange(n), (np.arange(n) + 1) % n] += 0.05      # the full cycle: irreducible
    return q / q.sum(axis=1, keepdims=True)


def test_stacked_stationary_measure_matches_single_calls():
    gen = np.random.default_rng(2024)
    for n in (2, 3, 5, 8):
        stack = np.stack([_sparse_chain(gen, n) for _ in range(24)])
        singles = np.stack([fsmc.stationary_measure(q) for q in stack])
        got = fsmc.stationary_measure(stack)
        assert got.shape == (24, n) and got.tobytes() == singles.tobytes()
        nested = fsmc.stationary_measure(stack.reshape(4, 6, n, n))
        assert nested.shape == (4, 6, n) and nested.tobytes() == singles.tobytes()


def test_stacked_stationary_measure_periodic_and_singular():
    """A singular matrix in the stack falls back alone; the others keep the
    bits of their single calls."""
    gen = np.random.default_rng(7)
    cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
    stack = np.stack([_sparse_chain(gen, 2), cycle, np.eye(2), _sparse_chain(gen, 2)])
    got = fsmc.stationary_measure(stack)
    assert got[2].tolist() == [0.5, 0.5]
    for i in (0, 1, 3):
        assert got[i].tobytes() == fsmc.stationary_measure(stack[i]).tobytes()
    assert got[1].tolist() == [0.5, 0.5]
