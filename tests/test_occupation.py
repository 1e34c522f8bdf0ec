"""Occupation measures, the balance functional, the LP, and trajectories."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsmc
from fsmc import ChannelError, InputDist, StationaryPolicy
from fsmc.occupation import (ControlGrid, EmpiricalMeasure, OccupationMeasure,
                             azuma_tail_check, decode_policy, f_functional,
                             lp_average_cost, simulate_trajectory)
from conftest import make_bsc, make_random_channel

# frozen (see test_oracles)
BSC_D = 1.7577796618689758


# ---------------------------------------------------------------------------
# control grids

def test_grid_requires_corners():
    with pytest.raises(ChannelError):
        ControlGrid((InputDist.uniform(2),))


def test_grid_rejects_duplicates():
    dup = InputDist.point_mass(0, 2)
    with pytest.raises(ChannelError):
        ControlGrid((dup, InputDist.point_mass(1, 2), dup))
    # with_points drops duplicates instead of raising
    g = ControlGrid.with_points(2, [dup])
    assert len(g) == 2


def test_grid_nearest_first_tie():
    g = ControlGrid.with_points(2, [InputDist.uniform(2)])
    # equidistant from both corners -> ties resolve to the first point
    probe = InputDist(np.array([0.5, 0.5]))
    assert g.index_of(probe) == 2
    off = InputDist(np.array([0.25, 0.75]))
    assert g.index_of(off) is None
    assert g.nearest(off) == 1 if np.argmin([0.75, 0.25, 0.25]) == 1 else g.nearest(off) in (1, 2)


def test_grid_mesh_contains_lattice():
    g = ControlGrid.mesh(2, 4)
    # corners first, then interior lattice points 1/4, 2/4, 3/4
    assert len(g) == 5
    mats = g.matrix()
    assert np.allclose(mats.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# balance functional

@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_f_functional_zero_on_stationary_products(seed):
    """eta(s, k) = mu_pi(s) pi(k|s) lies in the zero set of F."""
    ch = make_random_channel(seed)
    gen = np.random.default_rng(seed + 1)
    grid = ControlGrid.with_points(2, [InputDist.uniform(2)])
    rows = gen.random((2, 3)) + 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    gmat = grid.matrix()
    pol = StationaryPolicy.from_matrix(rows @ gmat)
    mu = fsmc.stationary_measure(fsmc.induced_matrix(ch, pol))
    eta = OccupationMeasure(grid, mu[:, None] * rows)
    f = f_functional(ch, eta)
    assert np.max(np.abs(f)) < 1e-12


def test_f_functional_detects_imbalance():
    ch = make_bsc(0.1)
    grid = ControlGrid.corners(2)
    eta = OccupationMeasure(grid, np.array([[0.3, 0.7]]))
    f = f_functional(ch, eta)
    # single state: balance always holds exactly
    assert np.max(np.abs(f)) < 1e-15
    ch2 = make_random_channel(5)
    eta2 = OccupationMeasure(grid, np.array([[0.9, 0.0], [0.0, 0.1]]))
    f2 = f_functional(ch2, eta2)
    assert np.max(np.abs(f2)) > 1e-3
    assert abs(f2.sum()) < 1e-12


# ---------------------------------------------------------------------------
# linear program

def test_lp_constant_cost_is_constant():
    for seed in (0, 1, 2):
        ch = make_random_channel(seed, n_states=3, n_inputs=2)
        grid = ControlGrid.with_points(2, [InputDist.uniform(2)])
        g = np.full((3, len(grid)), 0.625)
        value, eta = lp_average_cost(ch, g, grid)
        assert abs(value - 0.625) < 1e-9
        assert abs(eta.weights.sum() - 1.0) < 1e-9


def test_lp_on_corners_equals_divergence_enumeration():
    ch = make_bsc(0.1)
    grid = ControlGrid.corners(2)
    g = np.array([[fsmc.div_cost(ch, 0, u)[0].to_float() for u in grid.points]])
    value, eta = lp_average_cost(ch, g, grid)
    assert abs(value - BSC_D) < 1e-9
    f = f_functional(ch, eta)
    assert np.max(np.abs(f)) < 1e-9


def test_lp_value_grows_with_grid_refinement():
    ch = make_random_channel(21)
    g_small = ControlGrid.corners(2)
    g_big = ControlGrid.with_points(
        2, [InputDist.uniform(2), InputDist(np.array([0.25, 0.75]))])

    def cost(s, u):
        return fsmc.mi_cost(ch, s, u)

    v_small, _ = lp_average_cost(ch, cost, g_small)
    v_big, _ = lp_average_cost(ch, cost, g_big)
    assert v_big >= v_small - 1e-9
    # and the LP over any grid is dominated by the true capacity
    assert v_big <= fsmc.capacity(ch).C + 1e-9


def test_lp_rejects_infinite_cost():
    ch = make_bsc(0.1)
    grid = ControlGrid.corners(2)
    g = np.array([[math.inf, 1.0]])
    with pytest.raises(ChannelError):
        lp_average_cost(ch, g, grid)


# ---------------------------------------------------------------------------
# decoded policies

def test_decode_policy_normalizes_rows():
    grid = ControlGrid.corners(2)
    eta = OccupationMeasure(grid, np.array([[0.25, 0.25], [0.5, 0.0]]))
    pol = decode_policy(eta)
    mat = pol.matrix()
    assert np.allclose(mat[0], [0.5, 0.5])
    assert np.allclose(mat[1], [1.0, 0.0])


# ---------------------------------------------------------------------------
# trajectories

def test_trajectory_deterministic_and_counts_exact():
    ch = make_random_channel(7)
    grid = ControlGrid.with_points(2, [InputDist.uniform(2)])
    pol = StationaryPolicy.uniform(2, 2)
    m1 = simulate_trajectory(ch, pol, grid, 400, seed=3)
    m2 = simulate_trajectory(ch, pol, grid, 400, seed=3)
    assert np.array_equal(m1.counts, m2.counts)
    assert m1.counts.sum() == 400


def test_trajectory_concentrates_on_occupation_measure():
    ch = make_random_channel(9)
    grid = ControlGrid.with_points(2, [InputDist.uniform(2)])
    pol = StationaryPolicy.uniform(2, 2)
    mu = fsmc.stationary_measure(fsmc.induced_matrix(ch, pol))
    m = simulate_trajectory(ch, pol, grid, 100_000, seed=0)
    freq = m.frequencies()
    # every (state, control) cell within 2% of mu(s) * 1{k = uniform}
    target = np.zeros_like(freq)
    target[:, 2] = mu
    assert np.max(np.abs(freq - target)) < 0.02


def test_trajectory_rejects_off_grid_without_snap():
    ch = make_bsc(0.1)
    grid = ControlGrid.corners(2)
    off = InputDist(np.array([0.6, 0.4]))

    def policy(states, outputs):
        return off

    with pytest.raises(ChannelError):
        simulate_trajectory(ch, policy, grid, 10, seed=0)
    m = simulate_trajectory(ch, policy, grid, 10, seed=0, snap=True)
    assert m.snapped
    assert m.counts[0, 0] == 10  # 0.6/0.4 snaps to the closer corner 0


def test_trajectory_history_dependent_policy():
    ch = make_random_channel(4)
    grid = ControlGrid.corners(2)
    c0 = InputDist.point_mass(0, 2)
    c1 = InputDist.point_mass(1, 2)

    def policy(states, outputs):
        return c1 if (outputs and outputs[-1] == 1) else c0

    m = simulate_trajectory(ch, policy, grid, 1000, seed=2)
    assert m.counts.sum() == 1000
    assert m.counts[:, 1].sum() > 0


def test_trajectory_fresh_policy_objects_match_fixed_ones():
    # a policy that builds a new InputDist on every call, more of them than the
    # grid has points, steps exactly as one that returns the same objects
    ch = make_random_channel(5, n_states=3)
    fixed = [InputDist(np.array([0.3, 0.7])), InputDist(np.array([0.8, 0.2]))]
    grid = ControlGrid.with_points(2, fixed)

    def same(states, outputs):
        return fixed[states[-1] % 2]

    def fresh(states, outputs):
        return InputDist(fixed[states[-1] % 2].weights.copy())

    want = simulate_trajectory(ch, same, grid, 500, seed=1).counts
    assert np.array_equal(simulate_trajectory(ch, fresh, grid, 500, seed=1).counts, want)


# ---------------------------------------------------------------------------
# concentration check

def test_azuma_passes_on_stationary_policy():
    ch = fsmc.make_example(fsmc.gamma_params(0.5))
    grid = ControlGrid.corners(2)
    pol = StationaryPolicy.deterministic((0, 1), 2)
    out = azuma_tail_check(ch, pol, grid, n=400, eps=0.25, trials=200, seed=0)
    assert out["pass"] is True
    assert out["empirical"] <= out["bound"] + 3e-2


def test_azuma_fast_path_matches_scalar_path():
    ch = fsmc.make_example(fsmc.gamma_params(0.5))
    grid = ControlGrid.corners(2)
    pol = StationaryPolicy.deterministic((0, 1), 2)
    rows = [InputDist(w) for w in pol.matrix()]

    def same_policy(states, outputs):
        return rows[states[-1]]

    fast = azuma_tail_check(ch, pol, grid, n=200, eps=0.15, trials=150, seed=1)
    slow = azuma_tail_check(ch, same_policy, grid, n=200, eps=0.15, trials=150,
                            seed=1, jobs=3)
    assert fast == slow


def test_azuma_rejects_small_trial_counts():
    ch = make_bsc(0.1)
    grid = ControlGrid.corners(2)
    pol = StationaryPolicy.deterministic((0,), 2)
    with pytest.raises(ChannelError):
        azuma_tail_check(ch, pol, grid, n=100, eps=0.2, trials=99, seed=0)


@pytest.mark.parametrize("n", [0, -3])
def test_azuma_rejects_nonpositive_horizon(n):
    ch = make_bsc(0.1)
    grid = ControlGrid.corners(2)
    for pol in (StationaryPolicy.deterministic((0,), 2), lambda states, outputs: grid.points[0]):
        with pytest.raises(ChannelError):
            azuma_tail_check(ch, pol, grid, n=n, eps=0.2, trials=100, seed=0)


def test_azuma_trivial_epsilon():
    ch = make_bsc(0.1)
    grid = ControlGrid.corners(2)
    pol = StationaryPolicy.deterministic((0,), 2)
    out = azuma_tail_check(ch, pol, grid, n=100, eps=2.0, trials=100, seed=0)
    assert out["pass"] is True
    assert out["empirical"] == 0.0


def _off_by_rounding(scale=1.0 + 5e-10):
    """The gamma = 0.5 example with row (s=0, x=0) scaled within validation's 1e-9."""
    base = fsmc.make_example(fsmc.gamma_params(0.5))
    k = np.array(base.kernel)
    k[0, 0] *= scale
    return fsmc.channel_from_arrays(base.state_labels, base.input_labels, base.output_labels,
                                    k, [0.5, 0.5])


def test_balance_allows_row_sums_within_validation():
    """F's components sum to the kernel's row defect, not to zero: a channel
    that validation accepts passes on both Azuma paths."""
    ch = _off_by_rounding()
    grid = ControlGrid.corners(2)
    pol = StationaryPolicy.deterministic((0, 0), 2)
    rows = [InputDist(w) for w in pol.matrix()]
    fast = azuma_tail_check(ch, pol, grid, 200, 0.2, 100, 0)
    slow = azuma_tail_check(ch, lambda states, outputs: rows[states[-1]], grid, 200, 0.2, 100, 0)
    assert fast == slow and fast["pass"] is True
    eta = OccupationMeasure(grid, np.array([[0.6, 0.0], [0.4, 0.0]]))
    assert abs(f_functional(ch, eta).sum() + 0.6 * 5e-10) < 1e-15


def test_balance_still_catches_a_corrupted_f(monkeypatch):
    """F is taken through the grid transition and the defect from the kernel,
    so an F built from a wrong transition is still refused."""
    ch = fsmc.make_example(fsmc.gamma_params(0.5))
    grid = ControlGrid.corners(2)
    exact = fsmc.occupation._grid_transition

    def skewed(channel, g):
        t = exact(channel, g).copy()
        t[0, 0, 0] += 1e-9
        return t

    monkeypatch.setattr(fsmc.occupation, "_grid_transition", skewed)
    counts = np.array([[[120, 30], [20, 30]]] * 3)
    with pytest.raises(ChannelError, match="row defect"):
        fsmc.occupation._balance(ch, grid, counts / 200.0)
    with pytest.raises(ChannelError, match="row defect"):
        azuma_tail_check(ch, StationaryPolicy.deterministic((0, 0), 2), grid, 200, 0.2, 100, 0)
