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
        return cls.with_points(n_inputs, (
            np.array(comb, dtype=np.float64) / resolution
            for comb in itertools.product(range(resolution + 1), repeat=n_inputs)
            if sum(comb) == resolution))

    def __len__(self):
        return len(self.points)

    def index_of(self, u: InputDist):
        """Exact-identity membership (byte-level); None if absent."""
        return self._index.get(u.key())

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


def _balance(ch, grid: ControlGrid, w: np.ndarray) -> np.ndarray:
    """F of each measure in w (..., S, K); asserts that its components sum to the
    kernel's row defect under w, sum_{j,k,x} w[j,k] u_k(x) (1 - sum P(.|j, x))."""
    f = w.sum(axis=-1) - np.einsum("...jk,jks->...s", w, _grid_transition(ch, grid))
    defect = np.einsum("...jk,kx,jx->...", w, grid.matrix(), 1.0 - ch.kernel.sum(axis=(2, 3)))
    if np.any(np.abs(f.sum(axis=-1) - defect) > 1e-12):
        raise ChannelError("balance components must sum to the kernel's row defect")
    return f


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
    return _balance(ch, measure.grid, w)


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


def _grid_lookup(grid: ControlGrid):
    """lookup(u, t) -> grid index of policy output u, by id once an object has
    been seen, else by its exact bytes.  An output off the grid raises, naming
    step t."""
    K = len(grid)
    by_id = {}                               # id(u) -> (u, k); u keeps its id taken

    def lookup(u, t):
        hit = by_id.get(id(u))
        if hit is None:
            k = grid.index_of(u)
            if k is None:
                raise ChannelError(f"policy output at step {t} is not a grid point")
            hit = (u, k)
            if len(by_id) < K:               # a policy of fresh objects fills this once
                by_id[id(u)] = hit
        return hit[1]

    return lookup


def simulate_trajectory(ch, policy, grid: ControlGrid, n: int, seed: int,
                        substream: int = 0) -> EmpiricalMeasure:
    """Roll out a (possibly history-dependent) policy for n steps.

    policy is a StationaryPolicy or a callable (states, outputs) -> InputDist,
    where states has one more entry than outputs (the current state is
    states[-1]).  Counts accumulate on S x grid; each control must be a grid
    member byte-for-byte.  Step t's input and (next state, output) cell are
    drawn up front for every grid point and every (state, input) pair, with
    uniforms 2t + 1 and 2t + 2 of substream (seed, substream), so memory is
    (K + S X) n cells; the walk then picks the drawn cells it visits.
    """
    if n < 1:
        raise ChannelError("horizon must be positive")
    policy = _as_policy_callable(policy, ch)
    S, X, Y, K = ch.n_states, ch.n_inputs, ch.n_outputs, len(grid)
    u = _rng.stream(seed, substream).random(2 * n + 1)
    states, outputs = [int(_rng.draw(*_rng.inverse_cdf(ch.initial_dist), 0, u[0]))], []
    # inputs[k][t]: grid point k's input at step t; cells[s X + x][t]: the (s, x) cell
    inputs = _rng.draw(*_rng.inverse_cdf(grid.matrix()),
                       np.arange(K)[:, None], u[1::2]).tolist()
    cells = _rng.draw(*_rng.inverse_cdf(ch.kernel.reshape(S * X, S * Y)),
                      np.arange(S * X)[:, None], u[2::2]).tolist()
    counts = [0] * (S * K)                   # visits to (s, k) at s * K + k
    lookup = _grid_lookup(grid)
    for t in range(n):
        k = lookup(policy(states, outputs), t)
        s = states[-1]
        counts[s * K + k] += 1
        flat = cells[s * X + inputs[k][t]][t]
        states.append(flat // Y)
        outputs.append(flat % Y)
    counts = np.array(counts, dtype=np.int64).reshape(S, K)
    return EmpiricalMeasure(grid, counts, n)


def _stationary_grid_map(policy, grid: ControlGrid):
    """state -> grid index for a StationaryPolicy whose rows are grid points."""
    idxs = []
    for w in policy.matrix():
        k = grid.index_of(InputDist(w))
        if k is None:
            raise ChannelError("stationary policy control is not a grid point")
        idxs.append(k)
    return np.asarray(idxs, dtype=np.int64)


# uniforms one window of a trial block holds: the engine's working set
_BLOCK_WORDS = 1 << 18


def _occupation_counts(ch, policy, grid: ControlGrid, n: int, seed: int,
                       trials: np.ndarray) -> np.ndarray:
    """(len(trials), S, K) visit counts of trials (substream ids of seed),
    stepped together: each trial counts exactly what simulate_trajectory(ch,
    policy, grid, n, seed, substream=trial) counts, from the same 2n + 1
    uniforms and the same inverse-CDF rule.

    Word 0 draws the initial states; steps then run in windows of
    max(1, _BLOCK_WORDS // (2 len(trials))), each reading its own uniforms by
    counter, so at most max(_BLOCK_WORDS, 2 len(trials)) are held whatever n is.

    A StationaryPolicy maps the states to grid rows with one take.  Any other
    policy is called once per trial a step, in trial order, with that trial's
    own states and outputs lists, so it must be a function of its arguments.
    """
    S, X, Y, K = ch.n_states, ch.n_inputs, ch.n_outputs, len(grid)
    control = _rng.inverse_cdf(grid.matrix())                      # row k: grid point k
    pair = _rng.inverse_cdf(ch.kernel.reshape(S, X, S * Y))        # row s X + x
    s = _rng.draw(*_rng.inverse_cdf(ch.initial_dist), 0, _rng.uniforms(seed, trials, 0, 1)[:, 0])
    if isinstance(policy, StationaryPolicy):
        state_to_k = _stationary_grid_map(policy, grid)

        def choose(t, s, y):
            return state_to_k.take(s)
    else:
        lookup = _grid_lookup(grid)
        paths = [([v], []) for v in s.tolist()]

        def choose(t, s, y):
            if t:
                for (states, outputs), v, o in zip(paths, s.tolist(), y.tolist()):
                    states.append(v)
                    outputs.append(o)
            return np.array([lookup(policy(states, outputs), t) for states, outputs in paths],
                            dtype=np.intp)
    counts = np.zeros((len(trials), S, K), dtype=np.int64)
    # flat cell of (trial, s, k): one per trial a step, so none repeats
    at, y = np.arange(len(trials)) * (S * K), None
    window = max(1, _BLOCK_WORDS // (2 * len(trials)))
    for t0 in range(0, n, window):
        u = _rng.uniforms(seed, trials, 2 * t0 + 1, 2 * min(window, n - t0))
        for t in range(t0, min(t0 + window, n)):
            k = choose(t, s, y)
            counts.reshape(-1)[at + s * K + k] += 1
            ux, us = u[:, 2 * (t - t0):2 * (t - t0) + 2].T.copy()   # contiguous: read K - 1 times
            x = _rng.draw(*control, k, ux)
            s, y = np.divmod(_rng.draw(*pair, s * X + x, us), Y)
        del u                                      # before the next window is read
    return counts


def azuma_tail_check(ch, policy, grid: ControlGrid, n: int, eps: float,
                     trials: int, seed: int) -> dict:
    """Monte-Carlo check of the uniform concentration bound on F.

    Counts trajectories with ||F(empirical)||_inf >= eps + 1/n and compares
    the frequency against 2|S| exp(-n eps^2 / 2) plus three binomial standard
    errors.  Requires trials >= 100.  Trial k reads substream k of seed, as
    simulate_trajectory(..., substream=k) does.  Trials run in blocks, each
    stepped together (_occupation_counts); F is taken per block and only the
    violation count kept.  A StationaryPolicy's blocks hold _BLOCK_WORDS // 128
    trials, so memory is bounded and work linear in n.  Other policies keep
    per-trial histories: blocks of max(1, 4 _BLOCK_WORDS // (2n + 1)), called
    step-major, every trial's step t before any trial's step t + 1.
    """
    if n < 1:
        raise ChannelError("horizon must be positive")
    if trials < 100:
        raise ChannelError("need at least 100 trials")
    if not (0.0 < eps):
        raise ChannelError("eps must be positive")

    per_block, bad = (_BLOCK_WORDS // 128 if isinstance(policy, StationaryPolicy)
                      else max(1, 4 * _BLOCK_WORDS // (2 * n + 1))), 0
    for lo in range(0, trials, per_block):
        counts = _occupation_counts(ch, policy, grid, n, seed,
                                    np.arange(lo, min(lo + per_block, trials)))
        f = _balance(ch, grid, counts / float(n))
        bad += int((np.abs(f).max(axis=1) >= eps + 1.0 / n).sum())
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
