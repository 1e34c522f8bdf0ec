"""Two-state burst-noise example family: closed forms, sweeps, interleaving."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsmc
from fsmc import ChannelError, cli

# frozen (see test_oracles)
SYM_C = 0.5266520663081051
SYM_D = 4.3253604654801165

params_strategy = st.tuples(
    st.floats(min_value=0.01, max_value=0.2),
    st.floats(min_value=0.25, max_value=0.49),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=0.95),
)


def _mk(t):
    pg, pb, a0, a1, b0, b1 = t
    return fsmc.ExampleParams(pg, pb, a0, a1, b0, b1)


# ---------------------------------------------------------------------------
# construction and validation

def test_param_validation():
    with pytest.raises(ChannelError):
        fsmc.ExampleParams(0.2, 0.1, 0.5, 0.5, 0.5, 0.5)   # p_g >= p_b
    with pytest.raises(ChannelError):
        fsmc.ExampleParams(0.1, 0.6, 0.5, 0.5, 0.5, 0.5)   # p_b >= 1/2
    with pytest.raises(ChannelError):
        fsmc.ExampleParams(0.01, 0.1, 0.0, 0.5, 0.5, 0.5)  # boundary alpha


def test_make_example_structure():
    p = fsmc.symmetric_params()
    ch = fsmc.make_example(p)
    assert ch.state_labels == ("G", "B")
    assert np.allclose(ch.initial_dist, [0.5, 0.5])
    # product kernel: P(s+, y | s, x) = P(s+ | s, x) P_Y(y | s, x)
    trans = ch.kernel.sum(axis=3)
    out = ch.kernel.sum(axis=2)
    for s in range(2):
        for x in range(2):
            manual = np.outer(trans[s, x], out[s, x])
            assert np.max(np.abs(manual - ch.kernel[s, x])) < 1e-12


def test_factory_helpers():
    g = fsmc.gamma_params(0.4)
    assert (g.alpha0, g.beta0) == (0.7, 0.3)
    assert (g.alpha1, g.beta1) == (0.4, 0.6)
    s = fsmc.symmetric_params()
    assert (s.alpha0, s.alpha1, s.beta0, s.beta1) == (0.5, 0.5, 0.5, 0.5)
    assert (s.p_g, s.p_b) == (0.001, 0.1)


# ---------------------------------------------------------------------------
# closed forms against the generic machinery

@settings(max_examples=30, deadline=None)
@given(params_strategy, st.integers(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=1))
def test_closed_form_mu_matches_solver(t, x_g, x_b):
    p = _mk(t)
    ch = fsmc.make_example(p)
    pol = fsmc.StationaryPolicy.deterministic((x_g, x_b), 2)
    mu_solver = fsmc.stationary_measure(fsmc.induced_matrix(ch, pol))
    mu_closed = fsmc.closed_form_mu(p, float(x_g), float(x_b))
    assert np.max(np.abs(mu_solver - np.asarray(mu_closed))) < 1e-10


@settings(max_examples=30, deadline=None)
@given(params_strategy, st.floats(min_value=0.0, max_value=1.0))
def test_closed_form_costs_match_generic(t, w1):
    p = _mk(t)
    ch = fsmc.make_example(p)
    u = fsmc.InputDist(np.array([1.0 - w1, w1]))
    for s in range(2):
        c_closed, d_table = fsmc.closed_form_costs(p, s, u)
        c_generic = fsmc.mi_cost(ch, s, u)
        assert abs(c_closed - c_generic) < 1e-10
        for x0 in range(2):
            for x1 in range(2):
                p0 = ch.kernel[s, x0].ravel()
                p1 = ch.kernel[s, x1].ravel()
                kl = sum(p0[i] * math.log(p0[i] / p1[i])
                         for i in range(4) if p0[i] > 0.0)
                assert abs(d_table[x0, x1] - kl) < 1e-10


# ---------------------------------------------------------------------------
# gamma sweep

def test_sweep_shape_and_grid():
    rows = fsmc.sweep_gamma(gamma_step=0.1)
    assert len(rows) == 9
    assert [round(r["gamma"], 10) for r in rows] == [round(0.1 * k, 10)
                                                     for k in range(1, 10)]
    for r in rows:
        assert set(r) == {"gamma", "C_nats", "piG_1", "piB_1", "D_nats",
                          "klf00", "klf01", "klf10", "klf11"}
        assert r["C_nats"] > 0.0
        assert r["D_nats"] >= max(r["klf00"], r["klf01"], r["klf10"],
                                  r["klf11"]) - 1e-12


def test_sweep_jobs_invariant(capsys):
    outs = []
    for jobs in ("1", "4"):
        assert cli.main(["sweep-example", "--gamma-step", "0.2", "--jobs", jobs]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_sweep_rejects_bad_params():
    with pytest.raises(ChannelError):
        fsmc.sweep_gamma(p_g=0.2, p_b=0.1)
    for step in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ChannelError):
            fsmc.sweep_gamma(gamma_step=step)


# ---------------------------------------------------------------------------
# interleaving comparison

def test_interleaving_gap_symmetric_values():
    c, c_int, d, d_int = fsmc.interleaving_gap(fsmc.symmetric_params())
    assert abs(c - SYM_C) < 1e-12
    assert abs(d - SYM_D) < 1e-12
    assert c > c_int
    assert d > d_int


def test_interleaving_gap_defaults():
    c, c_int, d, d_int = fsmc.interleaving_gap(fsmc.gamma_params(0.5))
    assert c > c_int > 0.0
    assert d > d_int > 0.0
