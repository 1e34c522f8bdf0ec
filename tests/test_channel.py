"""Channel container: validation, serialization, marginals, derived objects."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsmc
from fsmc import ChannelError
from conftest import make_bsc, make_iid_state, make_random_channel, make_z, write_channel


# ---------------------------------------------------------------------------
# validation

def test_rejects_bad_row_sums():
    k = np.full((1, 2, 1, 2), 0.3)
    with pytest.raises(ChannelError):
        fsmc.channel_from_arrays(("s",), ("0", "1"), ("0", "1"), k, [1.0])


def test_renormalize_tolerance():
    k = np.array([[[[0.9, 0.1]], [[0.1, 0.9]]]]) * (1.0 + 2e-7)
    with pytest.raises(ChannelError):
        fsmc.channel_from_arrays(("s",), ("0", "1"), ("0", "1"), k, [1.0])
    ch = fsmc.channel_from_arrays(("s",), ("0", "1"), ("0", "1"), k, [1.0],
                                  renormalize=True)
    assert abs(ch.kernel[0, 0].sum() - 1.0) < 1e-12


def test_rejects_duplicate_labels():
    k = np.array([[[[0.9, 0.1]], [[0.1, 0.9]]]])
    with pytest.raises(ChannelError):
        fsmc.channel_from_arrays(("s",), ("a", "a"), ("0", "1"), k, [1.0])


def test_rejects_negative_entries():
    k = np.array([[[[1.1, -0.1]], [[0.1, 0.9]]]])
    with pytest.raises(ChannelError):
        fsmc.channel_from_arrays(("s",), ("0", "1"), ("0", "1"), k, [1.0])


def test_rejects_single_input():
    k = np.ones((1, 1, 1, 1))
    with pytest.raises(ChannelError):
        fsmc.channel_from_arrays(("s",), ("0",), ("y",), k, [1.0])


def test_kernel_is_read_only(bsc):
    with pytest.raises(ValueError):
        bsc.kernel[0, 0, 0, 0] = 0.5


# ---------------------------------------------------------------------------
# serialization

def test_save_load_round_trip(tmp_path, sym_example):
    path = write_channel(tmp_path, sym_example)
    back = fsmc.load_channel(path)
    assert back.state_labels == sym_example.state_labels
    assert back.input_labels == sym_example.input_labels
    assert back.output_labels == sym_example.output_labels
    assert np.array_equal(back.kernel, sym_example.kernel)
    assert np.array_equal(back.initial_dist, sym_example.initial_dist)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"states": ["s"], "inputs": ["0", "1"]}))
    with pytest.raises(ChannelError):
        fsmc.load_channel(path)


# ---------------------------------------------------------------------------
# marginals and structure predicates

def test_s_marginal_matches_manual(sym_example):
    ps = fsmc.s_marginal(sym_example)
    manual = sym_example.kernel.sum(axis=3)
    assert np.allclose(ps, manual, atol=0)


def test_no_isi_detection():
    assert fsmc.is_no_isi(fsmc.make_example(fsmc.gamma_params(0.7)))
    assert not fsmc.is_no_isi(fsmc.make_example(fsmc.gamma_params(0.3)))
    assert fsmc.is_no_isi(make_bsc(0.1))


def test_lambda_positive_kernel(bsc):
    lam, per = fsmc.lambda_values(bsc)
    assert abs(lam - 0.1) < 1e-15
    assert per.shape == (1,)


def test_lambda_zero_iff_unbounded_divergence():
    lam, _ = fsmc.lambda_values(make_z())
    assert lam == 0.0
    assert fsmc.burnashev_coefficient(make_z()).D.is_inf
    lam2, _ = fsmc.lambda_values(make_bsc(0.1))
    assert lam2 > 0.0
    assert not fsmc.burnashev_coefficient(make_bsc(0.1)).D.is_inf


def test_achievable_pairs_z_channel():
    # (next state, output) pairs reachable under some (state, input)
    assert fsmc.achievable_pairs(make_z()) == [(0, 0), (0, 1)]
    two = fsmc.make_example(fsmc.symmetric_params())
    assert len(fsmc.achievable_pairs(two)) == 4


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_q_kernel_rows_are_distributions(seed):
    ch = make_random_channel(seed, n_states=2, n_inputs=3, n_outputs=2)
    u = fsmc.InputDist.uniform(3)
    q = fsmc.q_kernel(ch, 0, u)
    assert q.shape == (2, 2)
    assert abs(q.sum() - 1.0) < 1e-12
    # affinity: the joint law is linear in the input distribution
    q0 = fsmc.q_kernel(ch, 0, fsmc.InputDist.point_mass(0, 3))
    q1 = fsmc.q_kernel(ch, 0, fsmc.InputDist.point_mass(1, 3))
    q2 = fsmc.q_kernel(ch, 0, fsmc.InputDist.point_mass(2, 3))
    mix = (q0 + q1 + q2) / 3.0
    assert np.max(np.abs(mix - q)) < 1e-12


# ---------------------------------------------------------------------------
# equivalent memoryless construction

def test_equivalent_dmc_requires_iid_states():
    with pytest.raises(ChannelError):
        fsmc.build_equivalent_dmc(fsmc.make_example(fsmc.gamma_params(0.3)))


def test_equivalent_dmc_preserves_capacity_and_divergence():
    ch = make_iid_state()
    eq = fsmc.build_equivalent_dmc(ch)
    assert eq.n_states == 1
    assert eq.n_inputs == ch.n_inputs ** ch.n_states
    assert abs(fsmc.capacity(eq).C - fsmc.capacity(ch).C) < 1e-9
    d_eq = fsmc.burnashev_coefficient(eq).D.to_float()
    d_ch = fsmc.burnashev_coefficient(ch).D.to_float()
    assert abs(d_eq - d_ch) < 1e-9


def test_equivalent_dmc_labels():
    eq = fsmc.build_equivalent_dmc(make_iid_state())
    assert eq.input_labels[0] == "0,0"
    assert eq.output_labels[0] == "a|0"


# ---------------------------------------------------------------------------
# policies and input distributions

def test_input_dist_validation():
    with pytest.raises(ChannelError):
        fsmc.InputDist(np.array([0.5, 0.6]))
    with pytest.raises(ChannelError):
        fsmc.InputDist(np.array([-0.1, 1.1]))
    u = fsmc.InputDist(np.array([0.25, 0.75]))
    assert u.key() == u.weights.tobytes()


def test_stationary_policy_constructors():
    det = fsmc.StationaryPolicy.deterministic((1, 0), 2)
    assert np.array_equal(det.matrix(), [[0.0, 1.0], [1.0, 0.0]])
    uni = fsmc.StationaryPolicy.uniform(2, 2)
    assert np.array_equal(uni.matrix(), [[0.5, 0.5], [0.5, 0.5]])


def test_induced_matrix_row_stochastic(sym_example):
    q = fsmc.induced_matrix(sym_example, fsmc.StationaryPolicy.uniform(2, 2))
    assert q.shape == (2, 2)
    assert np.allclose(q.sum(axis=1), 1.0, atol=1e-12)


def test_induced_matrix_takes_only_a_stationary_policy():
    ch = fsmc.make_example(fsmc.gamma_params(0.5))
    for bad in ((0,), (-1, 0), (0, 0, 1), [0, 1], np.array([0, 1])):
        with pytest.raises(ChannelError, match="StationaryPolicy"):
            fsmc.induced_matrix(ch, bad)
    with pytest.raises(ChannelError, match="shape"):
        fsmc.induced_matrix(ch, fsmc.StationaryPolicy.uniform(3, 2))
