"""Occupation measures, the balance functional, the LP, and trajectories."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsmc
from fsmc import ChannelError, InputDist, StationaryPolicy
from fsmc import occupation
from fsmc.occupation import (ControlGrid, EmpiricalMeasure, OccupationMeasure,
                             azuma_tail_check, decode_policy, f_functional,
                             lp_average_cost, simulate_trajectory)
from conftest import make_bsc, make_random_channel, sparse_channel

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
    probe = InputDist(np.array([0.5, 0.5]))
    assert g.index_of(probe) == 2
    off = InputDist(np.array([0.25, 0.75]))
    assert g.index_of(off) is None


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


def _oracle_counts(ch, policy, grid, n, seed, trials):
    """Stacked simulate_trajectory counts of the given substreams."""
    return np.stack([simulate_trajectory(ch, policy, grid, n, seed, substream=k).counts
                     for k in trials])


def _oracle_azuma(ch, policy, grid, n, eps, trials, seed):
    """azuma_tail_check's dict from the oracle's counts, F taken once over all trials."""
    f = occupation._balance(ch, grid, _oracle_counts(ch, policy, grid, n, seed, range(trials)) / n)
    empirical = int((np.abs(f).max(axis=1) >= eps + 1.0 / n).sum()) / trials
    bound = 2.0 * ch.n_states * math.exp(-n * eps * eps / 2.0)
    se = math.sqrt(max(empirical * (1.0 - empirical), 0.0) / trials)
    return {"n": n, "eps": eps, "empirical": empirical, "bound": bound,
            "pass": bool(empirical <= bound + 3.0 * se)}


def test_azuma_fast_path_matches_scalar_path():
    """Both branches of the engine, a StationaryPolicy (one take a step) and
    the same policy as a callable, give the dict of the trajectory oracle."""
    ch = fsmc.make_example(fsmc.gamma_params(0.5))
    grid = ControlGrid.corners(2)
    pol = StationaryPolicy.deterministic((0, 1), 2)
    rows = [InputDist(w) for w in pol.matrix()]

    def same_policy(states, outputs):
        return rows[states[-1]]

    want = _oracle_azuma(ch, pol, grid, 200, 0.15, 150, 1)
    assert azuma_tail_check(ch, pol, grid, n=200, eps=0.15, trials=150, seed=1) == want
    assert azuma_tail_check(ch, same_policy, grid, n=200, eps=0.15, trials=150,
                            seed=1) == want


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


# ---------------------------------------------------------------------------
# the lockstep engine against the trajectory oracle

SPARSE_SEEDS = (0, 4, 12, 14, 21, 27, 35, 37, 39)   # X = 3, periodic cycles, ties, S = 1, Y = 1


def _policies(ch):
    """(grid, {kind: policy}) on the corners plus uniform and one mixed point."""
    S, X = ch.n_states, ch.n_inputs
    mixed = np.arange(1.0, X + 1.0)
    grid = ControlGrid.with_points(X, [InputDist.uniform(X), InputDist(mixed / mixed.sum())])
    pts, K = grid.points, len(grid)

    def history(states, outputs):
        return pts[(states[-1] + (outputs[-1] if outputs else 0) + len(outputs) // 3) % K]

    def fresh(states, outputs):
        return InputDist(pts[(states[-1] + sum(outputs[-2:])) % K].weights.copy())

    return grid, {
        "deterministic": StationaryPolicy.deterministic([s % X for s in range(S)], X),
        "randomized": StationaryPolicy(tuple(pts[X + s % 2] for s in range(S))),
        "history": history,
        "fresh": fresh,
    }


@pytest.mark.parametrize("seed", SPARSE_SEEDS)
def test_engine_counts_match_trajectories_on_sparse_channels(seed):
    ch = sparse_channel(seed)
    grid, policies = _policies(ch)
    trials = np.arange(3, 26)
    for kind, pol in policies.items():
        got = occupation._occupation_counts(ch, pol, grid, 60, seed, trials)
        want = _oracle_counts(ch, pol, grid, 60, seed, trials.tolist())
        assert got.dtype == np.int64 and np.array_equal(got, want), kind


@pytest.mark.parametrize("seed", SPARSE_SEEDS[:6])
def test_engine_windows_split_unevenly_match_the_oracle(monkeypatch, seed):
    """Windows of 1 and 7 steps at n = 40 (of 7, the last is 5 steps) count what
    the stacked trajectories count, for stationary and history policies."""
    ch = sparse_channel(seed)
    grid, policies = _policies(ch)
    trials = np.arange(5, 28)
    for kind, pol in policies.items():
        want = _oracle_counts(ch, pol, grid, 40, seed, trials.tolist())
        for window in (1, 7):
            monkeypatch.setattr(occupation, "_BLOCK_WORDS", 2 * window * len(trials))
            got = occupation._occupation_counts(ch, pol, grid, 40, seed, trials)
            assert np.array_equal(got, want), (kind, window)


def _block_words(pol, per_block, n):
    """The smallest _BLOCK_WORDS under which azuma_tail_check runs blocks of
    per_block trials of policy pol at horizon n."""
    if isinstance(pol, StationaryPolicy):
        return 128 * per_block
    return -(-per_block * (2 * n + 1) // 4)


def _engine_calls(monkeypatch):
    """A list to which each later _occupation_counts call appends its trial count."""
    calls, engine = [], occupation._occupation_counts
    monkeypatch.setattr(occupation, "_occupation_counts",
                        lambda *args: calls.append(len(args[-1])) or engine(*args))
    return calls


@pytest.mark.parametrize("seed", SPARSE_SEEDS[:4])
def test_azuma_blocks_split_unevenly_match_the_oracle(monkeypatch, seed):
    """Blocks of 1, 7 and 64 trials, the last one short, give the oracle's dict
    at an eps that some trials violate and others do not."""
    ch = sparse_channel(seed)
    grid, policies = _policies(ch)
    n, trials = 40, 101
    calls = _engine_calls(monkeypatch)
    for kind, pol in policies.items():
        f = occupation._balance(ch, grid, _oracle_counts(ch, pol, grid, n, seed, range(trials)) / n)
        dev = np.sort(np.abs(f).max(axis=1))
        eps = max(float(dev[trials // 2]) - 1.0 / n, 1e-3)
        want = _oracle_azuma(ch, pol, grid, n, eps, trials, seed)
        for per_block in (1, 7, 64, 1000):
            monkeypatch.setattr(occupation, "_BLOCK_WORDS", _block_words(pol, per_block, n))
            calls.clear()
            assert azuma_tail_check(ch, pol, grid, n, eps, trials, seed) == want, (kind, per_block)
            assert calls[0] == min(per_block, trials) and sum(calls) == trials, (kind, calls)
            assert len(calls) == -(-trials // per_block), (kind, per_block)
        assert 0.0 < want["empirical"] < 1.0 or dev[0] == dev[-1], kind


def test_balance_rows_do_not_depend_on_the_block_split():
    """Per-row F, and each row's max |F|, are bit-equal whether the measures
    go to _balance 1, 7, 100 or 1024 rows at a time."""
    gen = np.random.default_rng(11)
    for seed in (0, 5, 12, 14, 24, 37, 39):
        ch = sparse_channel(seed)
        grid, _ = _policies(ch)
        cells = ch.n_states * len(grid)
        w = gen.multinomial(500, gen.dirichlet(np.ones(cells)), size=1024)
        w = w.reshape(1024, ch.n_states, len(grid)) / 500.0
        whole = occupation._balance(ch, grid, w)
        for rows in (1, 7, 100, 1024):
            parts = np.concatenate([occupation._balance(ch, grid, w[i:i + rows])
                                    for i in range(0, 1024, rows)])
            assert parts.tobytes() == whole.tobytes(), (seed, rows)
            assert np.abs(parts).max(axis=1).tobytes() == np.abs(whole).max(axis=1).tobytes()


def _recorder():
    """A policy that records, per trial (its states list), every (states,
    outputs) it is called with, and the order of calls as (trial, step)."""
    seen, order = {}, []

    def policy(states, outputs):
        trial = seen.setdefault(id(states), (len(seen), states, []))
        trial[2].append((tuple(states), tuple(outputs)))
        order.append((trial[0], len(outputs)))
        return policy.points[(states[-1] + (outputs[-1] if outputs else 1)) % len(policy.points)]

    return policy, seen, order


def test_engine_calls_a_history_policy_with_each_trials_own_history():
    """Per trial the policy sees the same (states, outputs) sequence as under
    simulate_trajectory, and the engine calls it step-major, trials in order."""
    ch = sparse_channel(21)
    grid, _ = _policies(ch)
    trials = np.arange(12)
    got, got_order = [], []
    for engine in (True, False):
        policy, seen, order = _recorder()
        policy.points = grid.points
        if engine:
            occupation._occupation_counts(ch, policy, grid, 25, 3, trials)
        else:
            _oracle_counts(ch, policy, grid, 25, 3, trials.tolist())
        got.append([calls for _, _, calls in seen.values()])
        got_order.append(order)
    assert len(got[0]) == 12 and all(len(calls) == 25 for calls in got[0])
    assert got[0] == got[1]
    assert got_order[0] == sorted(got_order[0], key=lambda c: (c[1], c[0]))


def test_engine_raises_on_an_off_grid_output_at_the_same_step():
    ch = make_random_channel(4)
    grid = ControlGrid.corners(2)
    off = InputDist(np.array([0.6, 0.4]))

    def policy(states, outputs):
        return off if len(outputs) == 17 and outputs[-1] == 1 else grid.points[states[-1]]

    with pytest.raises(ChannelError, match="at step 17 is"):
        _oracle_counts(ch, policy, grid, 30, 0, range(10))
    with pytest.raises(ChannelError, match="at step 17 is"):
        occupation._occupation_counts(ch, policy, grid, 30, 0, np.arange(10))
    with pytest.raises(ChannelError, match="at step 17 is"):
        azuma_tail_check(ch, policy, grid, 30, 0.2, 100, 0)


def test_azuma_memory_does_not_grow_with_trials(monkeypatch):
    """Blocks of 200 trials at n = 200: the traced peak at 4000 trials stays
    at its value for 400 (4000 trials' uniforms alone would be 12.8 MB)."""
    import tracemalloc
    ch = fsmc.make_example(fsmc.gamma_params(0.5))
    grid = ControlGrid.corners(2)
    pol = StationaryPolicy.deterministic((0, 1), 2)
    monkeypatch.setattr(occupation, "_BLOCK_WORDS", _block_words(pol, 200, 200))
    azuma_tail_check(ch, pol, grid, n=200, eps=0.2, trials=100, seed=0)   # one-time set-up
    peaks = []
    for trials in (400, 4000):
        tracemalloc.start()
        try:
            azuma_tail_check(ch, pol, grid, n=200, eps=0.2, trials=trials, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1_000_000 and peaks[1] <= 1.1 * peaks[0] + 16_384, peaks


def test_azuma_work_and_memory_do_not_grow_with_the_horizon(monkeypatch):
    """A stationary policy at 1000 trials: n = 2000 runs as many engine calls
    as n = 200 (one), and its traced peak stays at n = 200's, where one block
    of 1000 trials with all 2n + 1 uniforms would hold 32 MB."""
    import tracemalloc
    ch = sparse_channel(16)
    grid, policies = _policies(ch)
    pol = policies["randomized"]
    calls = _engine_calls(monkeypatch)
    azuma_tail_check(ch, pol, grid, n=20, eps=0.2, trials=100, seed=0)   # one-time set-up
    peaks, runs = [], []
    for n in (200, 2000):
        calls.clear()
        tracemalloc.start()
        try:
            azuma_tail_check(ch, pol, grid, n=n, eps=0.05, trials=1000, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        runs.append(list(calls))
    assert runs == [[1000], [1000]], runs
    assert peaks[0] < 4_000_000 and peaks[1] <= 1.1 * peaks[0] + 16_384, peaks


# ---------------------------------------------------------------------------
# frozen pins of the trajectory oracle and of the engine on history policies

# the sparse_channel seeds in 0-39 that pass Assumption 1
A1_SEEDS = (1, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21, 22, 23, 24,
            27, 28, 29, 30, 31, 32, 33, 34, 35, 37, 38, 39)
# SHA-256 of the little-endian int64 counts of simulate_trajectory(n = 300) on
# A1_SEEDS, substreams 0, 3 and 2^64 - 5 in turn
TRAJECTORY_PINS = {
    "deterministic": "4830268d4c11a756e53d926e5a003b9fc203f421e3f39a3c43181a66967494e4",
    "randomized": "a0b39b685f51a8093a6549c941969d58914d96b99e58febd0e83d16cddc9e3db",
    "history": "675f7c5646cfe0e64ad5b68a087e0829fc4b5b63c82dbca53e212e895d66b960",
    "fresh": "d7283455e7f70ff4e805efd2864c8f22c402743aca840b1835efb15076ff74c1",
}
# the A1_SEEDS whose history-policy azuma_tail_check(n = 150, eps = 0.06, 100
# trials) counts some violation, and the SHA-256 of their dicts' reprs in turn
AZUMA_SEEDS = (1, 4, 5, 6, 8, 13, 14, 16, 18, 21, 22, 23, 24, 30, 34, 38, 39)
AZUMA_PIN = "383fd69b2a92ecc7c2f44d29f8a346b6477f423cc715caa07d94ba56fdb7c511"


@pytest.mark.parametrize("kind", sorted(TRAJECTORY_PINS))
def test_trajectory_counts_frozen_pin(kind):
    assert len(A1_SEEDS) == 32 and all(fsmc.check_assumption1(sparse_channel(s))[0]
                                       for s in A1_SEEDS)
    digest = hashlib.sha256()
    for seed in A1_SEEDS:
        ch = sparse_channel(seed)
        grid, policies = _policies(ch)
        for sub in (0, 3, 2 ** 64 - 5):
            m = simulate_trajectory(ch, policies[kind], grid, 300, seed, substream=sub)
            digest.update(m.counts.astype("<i8").tobytes())
    assert digest.hexdigest() == TRAJECTORY_PINS[kind]


def test_azuma_history_policy_frozen_pin():
    digest = hashlib.sha256()
    for seed in AZUMA_SEEDS:
        ch = sparse_channel(seed)
        grid, policies = _policies(ch)
        out = azuma_tail_check(ch, policies["history"], grid, 150, 0.06, 100, seed)
        assert out["empirical"] > 0.0, seed
        digest.update(repr(out).encode())
    assert digest.hexdigest() == AZUMA_PIN
