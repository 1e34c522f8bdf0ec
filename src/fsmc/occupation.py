"""Occupation measures on state x control-law pairs.

A control grid is a finite subset of the input simplex (corners always
included).  Stationary behaviour is encoded by occupation measures eta on
S x grid; the balance functional F(eta) vanishes exactly on the stationary
ones, and long-run average costs are maximized by a small dense LP solved by
an in-repo two-phase simplex with Bland's rule.  Empirical occupation
measures from simulated trajectories concentrate around F = 0 at the
Hoeffding-Azuma rate, which azuma_tail_check verifies by Monte Carlo.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .channel import ChannelError, InputDist, StationaryPolicy, s_marginal

GRID_DUP_TOL = 1e-12     # max-coordinate separation between grid points
MASS_TOL = 1e-10


@dataclass(frozen=True)
class ControlGrid:
    """Ordered finite family of input distributions; corners come first."""

    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise ChannelError("empty control grid")
        nx = len(pts[0])
        if any(len(p) != nx for p in pts):
            raise ChannelError("grid points of mixed dimension")
        for x in range(nx):
            corner = InputDist.point_mass(x, nx).weights
            if not any(np.max(np.abs(p.weights - corner)) < GRID_DUP_TOL for p in pts):
                raise ChannelError(f"grid must contain input corner {x}")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if float(np.max(np.abs(pts[i].weights - pts[j].weights))) < GRID_DUP_TOL:
                    raise ChannelError(f"grid points {i} and {j} coincide")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_index", {p.key(): k for k, p in enumerate(pts)})

    @classmethod
    def corners(cls, n_inputs: int) -> "ControlGrid":
        return cls(tuple(InputDist.point_mass(x, n_inputs) for x in range(n_inputs)))

    @classmethod
    def with_points(cls, n_inputs: int, extra) -> "ControlGrid":
        pts = [InputDist.point_mass(x, n_inputs) for x in range(n_inputs)]
        for p in extra:
            d = p if isinstance(p, InputDist) else InputDist(np.asarray(p, dtype=np.float64))
            if all(float(np.max(np.abs(d.weights - q.weights))) >= GRID_DUP_TOL for q in pts):
                pts.append(d)
        return cls(tuple(pts))

    @classmethod
    def mesh(cls, n_inputs: int, resolution: int) -> "ControlGrid":
        """Lattice of denominators `resolution`, corners first."""
        import itertools
        pts = [InputDist.point_mass(x, n_inputs) for x in range(n_inputs)]
        for comb in itertools.product(range(resolution + 1), repeat=n_inputs):
            if sum(comb) != resolution:
                continue
            w = np.array(comb, dtype=np.float64) / resolution
            if all(float(np.max(np.abs(w - q.weights))) >= GRID_DUP_TOL for q in pts):
                pts.append(InputDist(w))
        return cls(tuple(pts))

    def __len__(self):
        return len(self.points)

    def index_of(self, u: InputDist):
        """Exact-identity membership (byte-level); None if absent."""
        return self._index.get(u.key())

    def nearest(self, u: InputDist) -> int:
        """Closest grid point in max-coordinate distance; first on ties."""
        dists = [float(np.max(np.abs(u.weights - p.weights))) for p in self.points]
        return int(np.argmin(dists))

    def matrix(self) -> np.ndarray:
        return np.stack([p.weights for p in self.points])


@dataclass(frozen=True)
class OccupationMeasure:
    grid: ControlGrid
    weights: np.ndarray     # (S, K), nonnegative, total mass 1

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] != len(self.grid):
            raise ChannelError("occupation weights shaped (S, |grid|) expected")
        if np.any(w < -1e-12):
            raise ChannelError("negative occupation mass")
        w = np.clip(w, 0.0, None)
        if abs(float(w.sum()) - 1.0) > MASS_TOL:
            raise ChannelError(f"occupation mass {w.sum()!r} != 1")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def state_marginal(self) -> np.ndarray:
        return self.weights.sum(axis=1)


@dataclass(frozen=True)
class EmpiricalMeasure:
    grid: ControlGrid
    counts: np.ndarray      # (S, K) integer visit counts
    n: int
    snapped: bool = False

    def __post_init__(self):
        c = np.asarray(self.counts)
        if int(c.sum()) != self.n:
            raise ChannelError("empirical counts must sum to the horizon")
        object.__setattr__(self, "counts", c)

    def frequencies(self) -> np.ndarray:
        return self.counts.astype(np.float64) / self.n


def _grid_transition(ch, grid: ControlGrid) -> np.ndarray:
    """T[j, k, s] = P(next state s | state j, control grid[k])."""
    return np.einsum("kx,jxs->jks", grid.matrix(), s_marginal(ch))


def f_functional(ch, measure) -> np.ndarray:
    """Stationarity defect F_s(eta) = eta(s, .) - sum_{j,k} Q(s|j,u_k) eta(j,k).

    Zero exactly on stationary occupation measures; the components always sum
    to zero, which is asserted.
    """
    if isinstance(measure, OccupationMeasure):
        w = measure.weights
    elif isinstance(measure, EmpiricalMeasure):
        w = measure.frequencies()
    else:
        raise ChannelError("measure must be OccupationMeasure or EmpiricalMeasure")
    t = _grid_transition(ch, measure.grid)
    f = w.sum(axis=1) - np.einsum("jk,jks->s", w, t)
    if abs(float(f.sum())) > 1e-12:
        raise ChannelError("balance components must sum to zero")
    return f


# ---------------------------------------------------------------------------
# dense two-phase simplex (Bland's rule), small problems only

def _pivot(t, basis, row, col):
    t[row] /= t[row, col]
    for i in range(t.shape[0]):
        if i != row and t[i, col] != 0.0:
            t[i] -= t[i, col] * t[row]
    basis[row] = col


def _simplex_iterate(t, basis, n_real, tol=1e-11):
    """Optimize tableau in place; objective row is last, stored as z_j - c_j."""
    m = t.shape[0] - 1
    while True:
        enter = -1
        for j in range(n_real):                      # Bland: smallest improving index
            if t[m, j] < -tol:
                enter = j
                break
        if enter < 0:
            return
        leave, best, best_basis = -1, math.inf, math.inf
        for i in range(m):
            if t[i, enter] > tol:
                ratio = t[i, -1] / t[i, enter]
                if ratio < best - 1e-15 or (abs(ratio - best) <= 1e-15 and basis[i] < best_basis):
                    leave, best, best_basis = i, ratio, basis[i]
        if leave < 0:
            raise ChannelError("LP is unbounded")
        _pivot(t, basis, leave, enter)


def _simplex_max(c, a, b):
    """max c.x s.t. a x = b, x >= 0 (b >= 0); returns (x, value)."""
    m, n = a.shape
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n:n + m] = np.eye(m)
    t[:m, -1] = b
    basis = list(range(n, n + m))
    # phase 1: maximize -(sum of artificials); z_j - c_j = -sum_i a_ij for real j
    t[m, :n] = -t[:m, :n].sum(axis=0)
    t[m, -1] = -t[:m, -1].sum()
    _simplex_iterate(t, basis, n + m)
    if t[m, -1] < -1e-9:
        raise ChannelError("LP infeasible")
    for i in range(m):                               # drive artificials out of the basis
        if basis[i] >= n:
            for j in range(n):
                if abs(t[i, j]) > 1e-9:
                    _pivot(t, basis, i, j)
                    break
    # phase 2: rebuild the objective row for the real costs
    t[m, :] = 0.0
    t[m, :n] = -c
    for i in range(m):
        if basis[i] < n and c[basis[i]] != 0.0:
            t[m, :] += c[basis[i]] * t[i, :]
    _simplex_iterate(t, basis, n)                    # entering scan excludes artificials
    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = t[i, -1]
    return x, float(np.dot(c, x))


def lp_average_cost(ch, g, grid: ControlGrid):
    """Best long-run average of g over stationary occupation measures.

    g is an (S, |grid|) array or a callable (state, InputDist) -> float; all
    values must be finite.  Returns (value, OccupationMeasure); the balance
    constraints are redundant by one, so one row is dropped.
    """
    S, K = ch.n_states, len(grid)
    if callable(g):
        gm = np.array([[float(g(s, grid.points[k])) for k in range(K)] for s in range(S)])
    else:
        gm = np.asarray(g, dtype=np.float64)
    if gm.shape != (S, K):
        raise ChannelError("cost table shaped (S, |grid|) expected")
    if not np.all(np.isfinite(gm)):
        raise ChannelError("cost must be finite on the grid")
    t = _grid_transition(ch, grid)                   # (S, K, S)
    n_var = S * K
    rows = []
    for s in range(S - 1):                           # drop the last redundant balance row
        coef = -t[:, :, s].copy()
        coef[s, :] += 1.0
        rows.append(coef.ravel())
    rows.append(np.ones(n_var))
    a = np.stack(rows)
    b = np.zeros(S)
    b[-1] = 1.0
    x, value = _simplex_max(gm.ravel(), a, b)
    resid = float(np.max(np.abs(a @ x - b)))
    if resid > 1e-9:
        raise ChannelError(f"LP solution residual {resid:.3g}")
    eta = OccupationMeasure(grid, x.reshape(S, K))
    return value, eta


def decode_policy(measure: OccupationMeasure) -> StationaryPolicy:
    """Stationary policy whose per-state law is the conditional of eta.

    States with zero occupation mass (excluded by irreducibility in practice)
    fall back to the first grid point.
    """
    w = measure.weights
    gm = measure.grid.matrix()
    dists = []
    for s in range(w.shape[0]):
        mass = float(w[s].sum())
        if mass <= 0.0:
            dists.append(measure.grid.points[0])
            continue
        mix = (w[s] @ gm) / mass
        dists.append(InputDist(np.clip(mix, 0.0, None) / np.clip(mix, 0.0, None).sum()))
    return StationaryPolicy(tuple(dists))


# ---------------------------------------------------------------------------
# trajectory simulation and the concentration check

def _as_policy_callable(policy, ch):
    """Accept a StationaryPolicy or a callable (states, outputs) -> InputDist."""
    if isinstance(policy, StationaryPolicy):
        rows = [InputDist(w) for w in policy.matrix()]

        def call(states, outputs):
            return rows[states[-1]]

        return call
    return policy


def simulate_trajectory(ch, policy, grid: ControlGrid, n: int, seed: int,
                        snap: bool = False, substream: int = 0) -> EmpiricalMeasure:
    """Roll out a (possibly history-dependent) policy for n steps.

    policy is a StationaryPolicy or a callable (states, outputs) -> InputDist,
    where states has one more entry than outputs (the current state is
    states[-1]).  Counts accumulate on S x grid; the control must be a grid
    member byte-for-byte unless snap=True, which rounds to the nearest point
    in max-coordinate distance (recorded on the result).
    """
    if n < 1:
        raise ChannelError("horizon must be positive")
    policy = _as_policy_callable(policy, ch)
    S, Y = ch.n_states, ch.n_outputs
    pair_cdf, pair_last = (a.tolist() for a in _rng.inverse_cdf(
        ch.kernel.reshape(S, ch.n_inputs, S * Y)))
    init_cdf, init_last = (a.tolist() for a in _rng.inverse_cdf(ch.initial_dist))
    gen = _rng.stream(seed, substream)
    u01 = gen.random(2 * n + 1).tolist()
    counts = np.zeros((S, len(grid)), dtype=np.int64)
    input_cdf_cache = {}
    states = [min(bisect_right(init_cdf, u01[0]), init_last)]
    outputs = []
    for t in range(n):
        u = policy(states, outputs)
        k = grid.index_of(u)
        if k is None:
            if not snap:
                raise ChannelError(f"policy output at step {t} is not a grid point")
            k = grid.nearest(u)
        s = states[-1]
        counts[s, k] += 1
        cached = input_cdf_cache.get(u.key())
        if cached is None:
            cached = tuple(a.tolist() for a in _rng.inverse_cdf(u.weights))
            input_cdf_cache[u.key()] = cached
        cdf, last = cached
        x = min(bisect_right(cdf, u01[2 * t + 1]), last)
        flat = min(bisect_right(pair_cdf[s][x], u01[2 * t + 2]), pair_last[s][x])
        states.append(flat // Y)
        outputs.append(flat % Y)
    return EmpiricalMeasure(grid, counts, n, snapped=snap)


def _stationary_grid_map(policy, grid: ControlGrid):
    """state -> grid index for a StationaryPolicy whose rows are grid points."""
    idxs = []
    for w in policy.matrix():
        k = grid.index_of(InputDist(w))
        if k is None:
            raise ChannelError("stationary policy control is not a grid point")
        idxs.append(k)
    return np.asarray(idxs, dtype=np.int64)


def _azuma_batch(ch, state_to_k, grid, n, eps, trials, seed) -> int:
    """Vectorized violation count for stationary-on-grid controls.

    Reproduces the scalar trajectory sampler exactly: per-trial substreams,
    2n+1 uniforms per trial, the same inverse-CDF rule.
    """
    S, Y, K = ch.n_states, ch.n_outputs, len(grid)
    in_cdf, in_last = _rng.inverse_cdf(grid.matrix())                 # (K, X), (K,)
    pair_cdf, pair_last = _rng.inverse_cdf(ch.kernel.reshape(S, ch.n_inputs, S * Y))
    u = np.stack([_rng.stream(seed, k).random(2 * n + 1) for k in range(trials)])
    s = _rng.draw(*_rng.inverse_cdf(ch.initial_dist), u[:, 0])
    counts = np.zeros((trials, S, K), dtype=np.int64)
    rows = np.arange(trials)
    for t in range(n):
        k = state_to_k[s]
        np.add.at(counts, (rows, s, k), 1)
        x = _rng.draw(in_cdf[k], in_last[k], u[:, 2 * t + 1])
        s = _rng.draw(pair_cdf[s, x], pair_last[s, x], u[:, 2 * t + 2]) // Y
    w = counts / float(n)
    t_mat = _grid_transition(ch, grid)
    f = w.sum(axis=2) - np.einsum("bjk,jks->bs", w, t_mat)
    return int((np.abs(f).max(axis=1) >= eps + 1.0 / n).sum())


def azuma_tail_check(ch, policy, grid: ControlGrid, n: int, eps: float,
                     trials: int, seed: int, jobs: int = 1) -> dict:
    """Monte-Carlo check of the uniform concentration bound on F.

    Counts trajectories with ||F(empirical)||_inf >= eps + 1/n and compares
    the frequency against 2|S| exp(-n eps^2 / 2) plus three binomial standard
    errors.  Requires trials >= 100.  Trial k reads substream k of seed.  jobs
    is accepted and ignored: trials run in one thread, since the
    history-dependent path holds the interpreter lock and threads bought
    nothing.
    """
    if trials < 100:
        raise ChannelError("need at least 100 trials")
    if not (0.0 < eps):
        raise ChannelError("eps must be positive")

    if isinstance(policy, StationaryPolicy):
        bad = _azuma_batch(ch, _stationary_grid_map(policy, grid), grid,
                           n, eps, trials, seed)
    else:
        bad = 0
        for k in range(trials):
            m = simulate_trajectory(ch, policy, grid, n, seed, substream=k)
            if float(np.max(np.abs(f_functional(ch, m)))) >= eps + 1.0 / n:
                bad += 1
    empirical = bad / trials
    bound = 2.0 * ch.n_states * math.exp(-n * eps * eps / 2.0)
    se = math.sqrt(max(empirical * (1.0 - empirical), 0.0) / trials)
    return {
        "n": int(n),
        "eps": float(eps),
        "empirical": empirical,
        "bound": bound,
        "pass": bool(empirical <= bound + 3.0 * se),
    }
