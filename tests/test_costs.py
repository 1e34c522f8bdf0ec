"""Per-state cost functions: mutual information, divergence, extended reals."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsmc
from fsmc import ChannelError, ExtReal
from conftest import make_bsc, make_random_channel, make_z

# frozen (see test_oracles)
H_01 = 0.3250829733914482
BSC_C = 0.36806420716849714


# ---------------------------------------------------------------------------
# extended reals

def test_extreal_algebra():
    inf = ExtReal.infinity()
    two = ExtReal(2.0)
    assert (inf + two).is_inf
    assert (two + ExtReal(3.0)).finite_value() == 5.0
    assert two < inf and not inf < two
    assert inf.to_float() == math.inf
    assert two.scaled(0.5).finite_value() == 1.0
    assert not inf.scaled(2.0) < inf


def test_extreal_zero_times_infinity_rejected():
    with pytest.raises(ChannelError):
        ExtReal.infinity().scaled(0.0)


def test_extreal_finite_value_guards():
    with pytest.raises(ChannelError):
        ExtReal.infinity().finite_value()


def test_extreal_equality_and_hash():
    assert ExtReal(1.5) == ExtReal(1.5)
    assert ExtReal.infinity() == ExtReal.infinity()
    assert len({ExtReal(1.5), ExtReal(1.5), ExtReal.infinity()}) == 2


# ---------------------------------------------------------------------------
# entropies and divergences

def test_binary_entropy_values():
    assert abs(fsmc.binary_entropy(0.1) - H_01) < 1e-15
    assert fsmc.binary_entropy(0.0) == 0.0
    assert fsmc.binary_entropy(1.0) == 0.0
    assert abs(fsmc.binary_entropy(0.5) - math.log(2.0)) < 1e-15


def test_entropy_uniform():
    assert abs(fsmc.entropy(np.full(8, 0.125)) - math.log(8.0)) < 1e-12
    assert fsmc.entropy(np.array([1.0, 0.0])) == 0.0


def test_binary_kl():
    assert fsmc.binary_kl(0.3, 0.3) == 0.0
    assert math.isinf(fsmc.binary_kl(0.5, 0.0))
    assert abs(fsmc.binary_kl(0.9, 0.1) - 0.8 * math.log(9.0)) < 1e-15


def test_kl_divergence_support():
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([0.25, 0.25, 0.5])
    v = fsmc.kl_divergence(p, q)
    assert not v.is_inf and v.finite_value() > 0.0
    w = fsmc.kl_divergence(q, p)
    assert w.is_inf


def test_kl_divergence_never_negative():
    """Nearly equal laws: the raw float sum is -4e-18 one way round."""
    p = np.array([[0.25, 0.25], [0.25, 0.25]])
    q = np.array([[0.25 + 1e-9, 0.25 - 1e-9], [0.25, 0.25]])
    assert float(np.dot(p.ravel(), np.log(p.ravel() / q.ravel()))) < 0.0
    assert fsmc.kl_divergence(p, q).finite_value() == 0.0
    assert fsmc.kl_divergence(q, p).finite_value() > 0.0


# ---------------------------------------------------------------------------
# mutual-information cost

def test_mi_cost_bsc_uniform_is_capacity():
    c = fsmc.mi_cost(make_bsc(0.1), 0, fsmc.InputDist.uniform(2))
    assert abs(c - BSC_C) < 1e-12


def test_mi_cost_point_mass_is_zero(bsc):
    assert abs(fsmc.mi_cost(bsc, 0, fsmc.InputDist.point_mass(0, 2))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_mi_cost_bounds(seed):
    ch = make_random_channel(seed, n_states=2, n_inputs=3, n_outputs=2)
    gen = np.random.default_rng(seed + 77)
    w = gen.random(3) + 1e-3
    u = fsmc.InputDist(w / w.sum())
    for s in range(2):
        c = fsmc.mi_cost(ch, s, u)
        assert -1e-12 <= c <= math.log(3.0) + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_mi_cost_concave_in_input(seed):
    ch = make_random_channel(seed)
    gen = np.random.default_rng(seed + 13)
    w1 = gen.random(2) + 1e-3
    w2 = gen.random(2) + 1e-3
    u1 = fsmc.InputDist(w1 / w1.sum())
    u2 = fsmc.InputDist(w2 / w2.sum())
    mix = fsmc.InputDist(0.5 * u1.weights + 0.5 * u2.weights)
    for s in range(ch.n_states):
        lhs = fsmc.mi_cost(ch, s, mix)
        rhs = 0.5 * fsmc.mi_cost(ch, s, u1) + 0.5 * fsmc.mi_cost(ch, s, u2)
        assert lhs >= rhs - 1e-9


# ---------------------------------------------------------------------------
# divergence cost

def test_div_cost_bsc_corner():
    val, corner = fsmc.div_cost(make_bsc(0.1), 0, fsmc.InputDist.point_mass(0, 2))
    assert abs(val.to_float() - 0.8 * math.log(9.0)) < 1e-12
    assert corner == 1


def test_div_cost_infinite_on_z():
    val, corner = fsmc.div_cost(make_z(), 0, fsmc.InputDist.point_mass(1, 2))
    assert val.is_inf
    assert corner == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_div_cost_dominates_interior_alternatives(seed):
    """sup over u' is attained at a corner: every mixture alternative from a
    fine grid must give a KL at most the corner value (convexity oracle)."""
    ch = make_random_channel(seed, n_outputs=3)
    gen = np.random.default_rng(seed + 5)
    w = gen.random(2) + 1e-3
    u = fsmc.InputDist(w / w.sum())
    for s in range(ch.n_states):
        val, _ = fsmc.div_cost(ch, s, u)
        q_u = fsmc.q_kernel(ch, s, u).ravel()
        best_grid = 0.0
        for t in np.linspace(0.0, 1.0, 21):
            alt = fsmc.q_kernel(ch, s, fsmc.InputDist(np.array([t, 1.0 - t]))).ravel()
            kl = sum(q_u[i] * math.log(q_u[i] / alt[i])
                     for i in range(q_u.size) if q_u[i] > 0.0)
            best_grid = max(best_grid, kl)
        assert val.to_float() >= best_grid - 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_d_max_finite_iff_lambda_positive(seed):
    gen = np.random.default_rng(seed)
    k = gen.random((2, 2, 2, 2)) + 0.01
    # randomly zero out some cells, keeping every row positive somewhere
    mask = gen.random((2, 2, 2, 2)) < 0.3
    k[mask] = 0.0
    k += 1e-9 * (k.sum(axis=(2, 3), keepdims=True) == 0.0)
    k /= k.sum(axis=(2, 3), keepdims=True)
    ch = fsmc.channel_from_arrays(("a", "b"), ("0", "1"), ("u", "v"), k,
                                  [0.5, 0.5])
    lam, _ = fsmc.lambda_values(ch)
    dm = fsmc.d_max(ch)
    assert (lam > 0.0) == (not dm.is_inf)
