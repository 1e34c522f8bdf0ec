"""Capacity and divergence-coefficient solvers."""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsmc
from fsmc import cli as fcli
from fsmc import ChannelError
from conftest import make_bsc, make_random_channel, make_z

# frozen (see test_oracles)
BSC_C = 0.36806420716849714
BSC_D = 1.7577796618689758
SYM_C = 0.5266520663081051
SYM_D = 4.3253604654801165
G3_C = 0.5439675396948894
EB_BSC_018 = 0.8981461170305075

# frozen at the one-channel ascent that valued every probe whole
CAP_PIN_SWEEP_002_SHA256 = "09c757abc4332f71a5b65695ade1a78336c01e469b8cac2647548a23e441e966"
CAP_PIN_G3 = ("0x1.1682e9d22677bp-1", 34, 9)           # C.hex(), iterations, best_start
CAP_PIN_S14 = ("0x1.d1f49a13ab8f2p-2", 32, 1)


# ---------------------------------------------------------------------------
# capacity

def test_capacity_bsc(bsc):
    res = fsmc.capacity(bsc)
    assert abs(res.C - BSC_C) < 1e-12
    pi = res.optimal_policy.matrix()
    assert np.max(np.abs(pi - 0.5)) < 1e-6
    assert abs(res.ergodic_measure.sum() - 1.0) < 1e-12


def test_capacity_symmetric_example(sym_example):
    assert abs(fsmc.capacity(sym_example).C - SYM_C) < 1e-9


def test_capacity_requires_irreducibility():
    k = np.zeros((2, 2, 2, 2))
    k[0, 0, 0, :] = 0.5
    k[0, 1, 0, :] = 0.5          # state 0 absorbing under every input
    k[1, 0, :, 0] = 0.5
    k[1, 1, :, 1] = 0.5
    ch = fsmc.channel_from_arrays(("a", "b"), ("0", "1"), ("u", "v"), k,
                                  [0.5, 0.5])
    with pytest.raises(ChannelError):
        fsmc.capacity(ch)


@pytest.mark.parametrize("make", [lambda: make_bsc(0.1),
                                  lambda: fsmc.make_example(fsmc.gamma_params(0.5))],
                         ids=["bsc-no-isi", "gamma-0.5-isi"])
def test_capacity_mismatch_check_fires(make, monkeypatch):
    """capacity compares the solver's own objective with _exact_value, so a
    recomputation that drifts by 1e-6 must be caught on both solver paths."""
    ch = make()
    exact = fsmc.planner._exact_value

    def drifted(channel, policy):
        value, mu = exact(channel, policy)
        return value + 1e-6, mu

    monkeypatch.setattr(fsmc.planner, "_exact_value", drifted)
    with pytest.raises(ChannelError, match="mismatch"):
        fsmc.capacity(ch)


def test_capacity_isi_beats_grid_oracle():
    ch = fsmc.make_example(fsmc.gamma_params(0.3))
    res = fsmc.capacity(ch)
    assert abs(res.C - G3_C) < 1e-7
    coarse = fsmc.capacity_grid_oracle(ch, 60)
    assert res.C >= coarse - 1e-9


def _sparse14():
    gen = np.random.default_rng(14)
    S = 14
    k = (gen.random((S, 2, S, 2)) + 0.05) * (gen.random((S, 2, S, 2)) < 0.35)
    k[np.arange(S), :, (np.arange(S) + 1) % S, 0] += 0.5
    k /= k.sum(axis=(2, 3), keepdims=True)
    lab = lambda pre, m: tuple(f"{pre}{i}" for i in range(m))
    return fsmc.channel_from_arrays(lab("s", S), ("0", "1"), ("u", "v"), k, np.full(S, 1.0 / S))


@pytest.mark.parametrize("make, pin",
                         [(lambda: fsmc.make_example(fsmc.gamma_params(0.3)), CAP_PIN_G3),
                          (_sparse14, CAP_PIN_S14)], ids=["gamma-0.3", "sparse-14"])
def test_capacity_pins(make, pin):
    res = fsmc.capacity(make())
    diag = res.solver_diagnostics
    assert (res.C.hex(), diag["iterations"], diag["best_start"]) == pin


def test_sweep_stdout_pin():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert fcli.main(["sweep-example", "--gamma-step", "0.02"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CAP_PIN_SWEEP_002_SHA256


@pytest.mark.parametrize("resolution", [0, -1])
def test_grid_oracle_rejects_resolution_below_one(bsc, resolution):
    with pytest.raises(ChannelError):
        fsmc.capacity_grid_oracle(bsc, resolution)


def test_grid_oracle_monotone_in_resolution():
    ch = fsmc.make_example(fsmc.gamma_params(0.4))
    lo = fsmc.capacity_grid_oracle(ch, 10)
    hi = fsmc.capacity_grid_oracle(ch, 50)
    # the finer grid contains no fewer candidate policies near the optimum
    assert hi >= lo - 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_capacity_bounds_and_policy_rows(seed):
    ch = make_random_channel(seed, n_states=2, n_inputs=2, n_outputs=3)
    res = fsmc.capacity(ch)
    assert -1e-9 <= res.C <= math.log(2.0) + 1e-9
    pi = res.optimal_policy.matrix()
    assert np.allclose(pi.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(pi >= -1e-12)


def test_capacity_no_isi_bypass_matches_general_solver():
    """On a no-ISI instance the per-state reduction and the gradient solver
    must agree; exercises both code paths on the same channel."""
    ch = fsmc.make_example(fsmc.gamma_params(0.7))
    res = fsmc.capacity(ch)
    fine = fsmc.capacity_grid_oracle(ch, 200)
    assert res.C >= fine - 1e-9
    assert abs(res.C - fine) < 5e-4


# ---------------------------------------------------------------------------
# divergence coefficient

def test_burnashev_bsc(bsc):
    res = fsmc.burnashev_coefficient(bsc)
    assert abs(res.D.to_float() - BSC_D) < 1e-12
    assert res.f0 != res.f1
    assert res.per_state_terms.shape == (1,)


def test_burnashev_symmetric(sym_example):
    res = fsmc.burnashev_coefficient(sym_example)
    assert abs(res.D.to_float() - SYM_D) < 1e-12
    assert (res.f0, res.f1) == ((0, 1), (1, 0))


def test_burnashev_infinite_with_witness(zchan):
    res = fsmc.burnashev_coefficient(zchan)
    assert res.D.is_inf
    w = res.diagnostics["witness"]
    assert w == {"state": 0, "next_state": 0, "output": 1}
    assert res.diagnostics["finite_submax_nats"] > 0.0


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_burnashev_invariant_under_relabeling(seed):
    ch = make_random_channel(seed, n_states=2, n_inputs=2, n_outputs=3)
    base = fsmc.burnashev_coefficient(ch).D.to_float()
    # permute states, inputs, and outputs
    perm_s, perm_x, perm_y = (1, 0), (1, 0), (2, 0, 1)
    k = ch.kernel[np.ix_(perm_s, perm_x, perm_s, perm_y)]
    init = ch.initial_dist[list(perm_s)]
    ch2 = fsmc.channel_from_arrays(("p", "q"), ("i", "j"), ("u", "v", "w"),
                                   k, init)
    assert abs(fsmc.burnashev_coefficient(ch2).D.to_float() - base) < 1e-12


# ---------------------------------------------------------------------------
# reliability function

def test_reliability_value():
    v = fsmc.reliability(BSC_C, fsmc.ExtReal(BSC_D), 0.18)
    assert abs(v.to_float() - EB_BSC_018) < 1e-12


def test_reliability_infinite_exponent():
    v = fsmc.reliability(0.3, fsmc.ExtReal.infinity(), 0.1)
    assert v.is_inf


def test_reliability_rejects_out_of_range():
    with pytest.raises(ChannelError):
        fsmc.reliability(BSC_C, fsmc.ExtReal(BSC_D), 0.0)
    with pytest.raises(ChannelError):
        fsmc.reliability(BSC_C, fsmc.ExtReal(BSC_D), BSC_C)
    with pytest.raises(ChannelError):
        fsmc.reliability(BSC_C, fsmc.ExtReal(BSC_D), BSC_C + 0.1)


def test_reliability_curve_monotone():
    pts = fsmc.reliability_curve(BSC_C, fsmc.ExtReal(BSC_D), 25)
    assert len(pts) == 25
    rates = [r for r, _ in pts]
    vals = [e.to_float() for _, e in pts]
    assert all(0.0 < r < BSC_C + 1e-12 for r in rates)
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))
    # endpoints scale: E_B -> D as R -> 0
    assert vals[0] < BSC_D


def test_per_state_terms_sum_to_divergence():
    """per_state_terms holds the mu_{f0}-weighted KL contributions, so they
    must sum to D and match a direct recomputation term by term."""
    for seed in (11, 12, 13):
        ch = make_random_channel(seed, n_states=3, n_inputs=2, n_outputs=2)
        res = fsmc.burnashev_coefficient(ch)
        assert abs(res.per_state_terms.sum() - res.D.to_float()) < 1e-9
        q = fsmc.induced_matrix(
            ch, fsmc.StationaryPolicy.deterministic(res.f0, ch.n_inputs))
        mu = fsmc.stationary_measure(q)
        for s in range(ch.n_states):
            p0 = ch.kernel[s, res.f0[s]].ravel()
            p1 = ch.kernel[s, res.f1[s]].ravel()
            kl = sum(p0[i] * math.log(p0[i] / p1[i])
                     for i in range(p0.size) if p0[i] > 0.0)
            assert abs(res.per_state_terms[s] - mu[s] * kl) < 1e-9
