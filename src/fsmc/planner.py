"""Optimal stationary policies: capacity, exponent coefficient, reliability.

Capacity is max over stationary state-feedback policies pi of
sum_s mu_pi(s) c(s, pi_s), with mu_pi the ergodic state law under pi.  With
ISI the ergodic measure depends on the policy, so the objective is not
separable per state; it is solved by multi-start projected gradient ascent,
certified in tests against a brute-force grid oracle.  One ascent runs on a
stack of same-shape channels at once, and each finite-difference probe
recosts only the row it perturbs.  Without ISI the measure is policy-free
and each state solves independently (Blahut-Arimoto).

The exponent coefficient D is max over deterministic map pairs (f0, f1) of
sum_s mu_{f0}(s) KL(P(.|s, f0(s)) || P(.|s, f1(s))); only f0's ergodic
measure enters, so D is an average-reward MDP over f0, solved by Howard
policy iteration.  The reliability function is E(R) = D (1 - R/C).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .channel import (ChannelError, InputDist, StationaryPolicy, induced_matrix,
                      is_no_isi, s_marginal)
from .costs import ExtReal, _kl_tables, kl_divergence, mi_cost
from .ergodic import check_assumption1, stationary_measure

_START_SEED = 2718281828459045  # fixed: `capacity` takes no seed and must be reproducible
_N_STARTS = 16                  # ascent starting points
_ASCENT_TOL = 1e-10             # a gain at most this counts toward a start's stall
_STACK = 64                     # most channels one stacked ascent holds: memory stays bounded
GRID_ORACLE_MAX_POLICIES = 10 ** 7   # most policies capacity_grid_oracle scores, each a few us


@dataclass(frozen=True)
class CapacityResult:
    C: float
    optimal_policy: StationaryPolicy
    ergodic_measure: np.ndarray
    solver_diagnostics: dict


@dataclass(frozen=True)
class BurnashevResult:
    D: ExtReal
    f0: tuple
    f1: tuple
    per_state_terms: np.ndarray   # mu_{f0}(s) * KL_s, np.inf allowed
    diagnostics: dict


# ---------------------------------------------------------------------------
# batched policy evaluation

class _Evaluator:
    """Evaluates J(pi) = sum_s mu_pi(s) c(s, pi_s) for batches of policies on a
    stack of same-shape channels, kernels (G, S, X, V, Y)."""

    def __init__(self, kernels):
        self.P = kernels
        self.PS = kernels.sum(axis=4)
        plnp = np.where(self.P > 0.0, self.P * np.log(np.maximum(self.P, 1e-300)), 0.0)
        self.PlnP = plnp.sum(axis=(3, 4))      # (G, S, X)

    def sanitize(self, pi):
        pi = np.clip(pi, 0.0, None)
        sums = pi.sum(axis=-1, keepdims=True)
        if np.any(sums <= 0.5):
            raise ChannelError("degenerate policy row")
        return pi / sums

    def _rows(self, pi):
        """Gains c (G, B, S) and transition rows (G, B, S, V) of clean pi (G, B, S, X)."""
        q = np.einsum("gbsx,gsxvy->gbsvy", pi, self.P)
        lnq = np.log(np.maximum(q, 1e-300))
        plnq = np.einsum("gsxvy,gbsvy->gbsx", self.P, lnq)
        inner = self.PlnP[:, None] - plnq
        c = np.where(pi > 0.0, pi * inner, 0.0).sum(axis=3)
        return c, np.einsum("gbsx,gsxv->gbsv", pi, self.PS)

    def value(self, pi):
        """J (G, B) for pi of shape (G, B, S, X); rows are cleaned up front."""
        c, t = self._rows(self.sanitize(pi))
        return (stationary_measure(t) * c).sum(axis=2)

    def probe_values(self, pi, fd):
        """J (G, S, X, 2, B) of pi (G, B, S, X) with entry (s, x) moved by +fd and by
        -fd.  Such a probe differs from pi in row s alone, so block 0 holds pi and
        blocks 1 + 2x, 2 + 2x move entry x of every row by +fd, -fd; a probe takes
        row s from them and the other rows from pi, and solves its own chain."""
        G, B, S, X = pi.shape
        moved = np.repeat(pi[:, None], 2 * X + 1, axis=1)
        xs, ss = np.arange(X), np.arange(S)
        moved[:, 1 + 2 * xs, :, :, xs] += fd
        moved[:, 2 + 2 * xs, :, :, xs] -= fd
        c, t = self._rows(self.sanitize(moved.reshape(G, -1, S, X)))
        c, t = c.reshape(G, -1, B, S), t.reshape(G, -1, B, S, S)
        cp = np.repeat(c[:, :1], 2 * S * X, axis=1).reshape(G, S, X, 2, B, S)
        cp[:, ss, :, :, :, ss] = c[:, 1:].reshape(G, X, 2, B, S).transpose(4, 0, 1, 2, 3)
        tp = np.repeat(t[:, :1], 2 * S * X, axis=1).reshape(G, S, X, 2, B, S, S)
        tp[:, ss, :, :, :, ss] = t[:, 1:].reshape(G, X, 2, B, S, S).transpose(4, 0, 1, 2, 3, 5)
        return (stationary_measure(tp) * cp).sum(axis=-1)


def _project_simplex(v):
    """Euclidean projection of each row of v (..., X) onto the simplex."""
    shape = v.shape
    flat = v.reshape(-1, shape[-1])
    srt = np.sort(flat, axis=1)[:, ::-1]
    csum = np.cumsum(srt, axis=1) - 1.0
    idx = np.arange(1, shape[-1] + 1)
    cond = srt - csum / idx > 0.0
    rho = cond.sum(axis=1)
    theta = csum[np.arange(flat.shape[0]), rho - 1] / rho
    return np.clip(flat - theta[:, None], 0.0, None).reshape(shape)


def _exact_value(ch, policy: StationaryPolicy):
    """Scalar-path recomputation of J(policy); also returns the measure."""
    mu = stationary_measure(induced_matrix(ch, policy))
    c = np.array([mi_cost(ch, s, policy.dists[s]) for s in range(ch.n_states)])
    return float(np.dot(mu, c)), mu


# ---------------------------------------------------------------------------
# no-ISI separable path

def _blahut_arimoto(w, tol=1e-12, max_iters=5000):
    """Capacity-achieving input law for a memoryless row-stochastic w (X, M)."""
    x_n = w.shape[0]
    u = np.full(x_n, 1.0 / x_n)
    mask = w > 0.0
    lnw = np.where(mask, np.log(np.maximum(w, 1e-300)), 0.0)
    val, iters = 0.0, 0
    for iters in range(1, max_iters + 1):
        q = u @ w
        lnq = np.log(np.maximum(q, 1e-300))
        d = (np.where(mask, w * (lnw - lnq[None, :]), 0.0)).sum(axis=1)
        lower = float(np.dot(u, d))
        upper = float(d.max())
        val = lower
        if upper - lower < tol:
            break
        u = u * np.exp(d - upper)
        u /= u.sum()
    return u, val, iters


def _capacity_no_isi(ch):
    sols = [_blahut_arimoto(ch.kernel[s].reshape(ch.n_inputs, -1)) for s in range(ch.n_states)]
    diag = {"method": "per_state_fixed_point",
            "per_state_gain_nats": [float(v) for _, v, _ in sols],
            "iterations": sum(iters for _, _, iters in sols)}
    return StationaryPolicy(tuple(InputDist(u / u.sum()) for u, _, _ in sols)), diag


# ---------------------------------------------------------------------------
# general path: multi-start projected gradient ascent

def _starting_points(S, X):
    """The first deterministic maps as corner policies, the uniform policy, then random ones."""
    maps = itertools.islice(itertools.product(range(X), repeat=S), min(8, _N_STARTS - 2))
    pts = list(np.eye(X)[np.array(list(maps))]) + [np.full((S, X), 1.0 / X)]
    gen = _rng.stream(_START_SEED, _rng.AUX_STREAM)
    while len(pts) < _N_STARTS:
        raw = gen.random((S, X)) + 1e-3
        pts.append(raw / raw.sum(axis=1, keepdims=True))
    return np.stack(pts)


def _pgd_capacity(chs, max_iters=600, fd_step=1e-6):
    """Multi-start projected ascent on a stack of same-shape ISI channels, every
    (channel, start) with its own step and stall; one (policy, diag) per channel.
    A channel leaves the stack at the first iteration with none of its starts active."""
    ev = _Evaluator(np.stack([ch.kernel for ch in chs]))
    pi = np.repeat(_starting_points(*ev.P.shape[1:3])[None], len(chs), axis=0)
    G, B = pi.shape[:2]
    step, stall, active = np.full((G, B), 0.25), np.zeros((G, B), int), np.ones((G, B), bool)
    j_cur = ev.value(pi)
    out, live = [None] * G, np.arange(G)     # live: the channels still in the stack
    for it in range(1, max_iters + 2):       # at max_iters + 1 every channel leaves
        done = ~active.any(axis=1) | (it > max_iters)
        for k, best in zip(np.flatnonzero(done), np.argmax(j_cur[done], axis=1)):
            raw = np.where(pi[k, best] < 1e-12, 0.0, pi[k, best])
            diag = {"method": "multistart_projected_ascent", "starts": int(B),
                    "iterations": min(it, max_iters), "best_start": int(best),
                    "batch_objective_nats": float(j_cur[k, best])}
            out[live[k]] = StationaryPolicy.from_matrix(raw / raw.sum(axis=1, keepdims=True)), diag
        if done.any():
            live, pi, j_cur, step, stall, active = (
                a[~done] for a in (live, pi, j_cur, step, stall, active))
            ev = _Evaluator(ev.P[~done])
        if not live.size:
            return out
        j_probe = ev.probe_values(pi, fd_step)           # (G, S, X, 2, B)
        grad = ((j_probe[:, :, :, 0] - j_probe[:, :, :, 1]) / (2.0 * fd_step)).transpose(0, 3, 1, 2)
        cand = _project_simplex(pi + step[:, :, None, None] * grad)
        j_cand = ev.value(cand)
        better = (j_cand > j_cur + 1e-15) & active
        gain = np.where(better, j_cand - j_cur, 0.0)
        pi[better] = cand[better]
        j_cur[better] = j_cand[better]
        step[better] = np.minimum(step[better] * 1.618, 8.0)
        worse = (~better) & active
        step[worse] *= 0.5
        stall[better & (gain > _ASCENT_TOL)] = 0
        stall[active & ((gain <= _ASCENT_TOL) | worse)] += 1
        active &= (stall < 12) & (step > 1e-14)


def _capacities(chs):
    """capacity of each channel in chs.  The ISI channels of one shape share
    stacked ascents of at most _STACK channels each."""
    solved, groups = {}, {}
    for i, ch in enumerate(chs):
        ok, violators = check_assumption1(ch)
        if not ok:
            raise ChannelError(f"reducible policy chain, e.g. deterministic map {violators[0]}")
        if is_no_isi(ch):
            solved[i] = _capacity_no_isi(ch)
        else:
            groups.setdefault(ch.kernel.shape, []).append(i)
    for idx in groups.values():
        for part in (idx[k:k + _STACK] for k in range(0, len(idx), _STACK)):
            solved.update(zip(part, _pgd_capacity([chs[i] for i in part])))
    out = []
    for i, ch in enumerate(chs):
        policy, diag = solved[i]
        c_val, mu = _exact_value(ch, policy)
        if not -1e-9 <= c_val <= math.log(ch.n_inputs) + 1e-9:
            raise ChannelError(f"capacity {c_val} outside [0, ln|X|]")
        own = np.dot(mu, diag["per_state_gain_nats"]) if "per_state_gain_nats" in diag \
            else diag["batch_objective_nats"]
        if abs(own - c_val) > 1e-9:
            raise ChannelError("capacity recomputation mismatch")
        out.append(CapacityResult(max(c_val, 0.0), policy, mu, diag))
    return out


def capacity(ch) -> CapacityResult:
    """Feedback capacity over stationary policies, nats per channel use.  C is
    _exact_value of the solver's policy, which must match the solver's own
    objective within 1e-9."""
    return _capacities([ch])[0]


def capacity_grid_oracle(ch, resolution: int) -> float:
    """Brute-force certified lower bound: exhaustive product grid search.

    Each state's input simplex is covered by the lattice of denominators
    `resolution` >= 1; feasible only for |S| * (|X| - 1) <= 4 and at most
    GRID_ORACLE_MAX_POLICIES policies, comb(resolution + |X| - 1, |X| - 1)^|S|.
    """
    if resolution < 1:
        raise ChannelError("grid resolution must be at least 1")
    S, X = ch.n_states, ch.n_inputs
    if S * (X - 1) > 4:
        raise ChannelError("grid oracle limited to |S|*(|X|-1) <= 4")
    policies = math.comb(resolution + X - 1, X - 1) ** S
    if policies > GRID_ORACLE_MAX_POLICIES:
        raise ChannelError(f"grid resolution {resolution} gives {policies} policies "
                           f"(> {GRID_ORACLE_MAX_POLICIES})")
    grid = np.array([
        np.array(c, dtype=np.float64) / resolution
        for c in itertools.product(range(resolution + 1), repeat=X)
        if sum(c) == resolution
    ])
    ev = _Evaluator(ch.kernel[None])
    best = -math.inf
    combos = itertools.product(range(len(grid)), repeat=S)
    while batch := list(itertools.islice(combos, 16384)):
        pi = grid[np.array(batch)]           # (B, S, X)
        best = max(best, float(ev.value(pi[None]).max()))
    return best


# ---------------------------------------------------------------------------
# exponent coefficient

def _first_hitting(hit):
    """Lexicographically first map f with hit[s, f(s)] for some s: all zeros if
    some state hits with input 0, else zeros but at the last state that hits."""
    s = np.nonzero(hit[:, 0] if hit[:, 0].any() else hit.any(axis=1))[0][-1]
    return tuple(int(np.argmax(hit[s])) if t == s else 0 for t in range(len(hit)))


def _lex_first_argmax(mus, terms, allowed):
    """For each row b, the lexicographically first f maximizing
    sum_s mus[b, s] terms[s, f(s)] over cells allowed[b], valued as a row sum
    (mus * rows).sum(axis=-1).  That sum never falls when a term grows, so a
    prefix extends to a maximizer iff completing it with per-state maxima
    reaches the maximum.  Returns (values (B,), maps (B, S), rows valued)."""
    row = np.where(allowed, terms, -math.inf).max(axis=2)                 # (B, S)
    best = (mus * row).sum(axis=1)
    f = np.zeros(row.shape, dtype=int)
    for s in range(row.shape[1]):
        rows = np.repeat(row[:, None, :], terms.shape[1], axis=1)         # (B, X, S)
        rows[:, :, s] = terms[s]
        hit = allowed[:, s] & ((mus[:, None, :] * rows).sum(axis=2) == best[:, None])
        f[:, s] = hit.argmax(axis=1)
        row[:, s] = terms[s, f[:, s]]
    return best, f, len(row) * (1 + terms.size)


def _best_confirm_map(ps, g):
    """Lexicographically first f0 with the largest sum_s mu_{f0}(s) g(s, f0(s)).

    Howard policy iteration gives the optimal relative values h; only maps of
    near-conserving actions (g + P h within a relative 1e-9 of the state's
    best) can reach the float maximum.  Grouped per state by transition row, a choice
    of groups fixes the chain: a stacked solve values the choices and
    _lex_first_argmax searches the best.  Returns (value, f0, mu, rows, iters)."""
    S, X = g.shape
    states, f = np.arange(S), np.argmax(g, axis=1)
    for iters in range(1, 1000):
        m = np.eye(S) - ps[states, f]
        m[:, 0] = 1.0                          # h(0) = 0; column 0 carries the gain
        q = g + ps[:, :, 1:] @ np.linalg.solve(m, g[states, f])[1:]     # g + P h
        scale = 1.0 + float(np.abs(q).max())
        switch = q.max(axis=1) > q[states, f] + 1e-12 * scale
        if not switch.any():
            break
        f = np.where(switch, np.argmax(q, axis=1), f)
    else:
        raise ChannelError("policy iteration did not converge")
    # near-conserving actions; if g = 0, every map is worth exactly 0 and action 0 will do
    near = (q >= q.max(axis=1, keepdims=True) - 1e-9 * scale) & (g.any() | (np.arange(X) == 0))
    # per state, the near actions grouped by identical transition row
    same = (ps[:, :, None] == ps[:, None, :]).all(axis=3) & near[:, None, :]
    masks = [np.array(list({m.tobytes(): m for m in same[s][near[s]]}.values())) for s in states]
    best, rows = None, 0
    choices = itertools.product(*[range(len(m)) for m in masks])
    while (chunk := np.array(list(itertools.islice(choices, 4096)), dtype=int)).size:
        allowed = np.stack([masks[s][chunk[:, s]] for s in states], axis=1)    # (B, S, X)
        mus = stationary_measure(ps[states, allowed.argmax(axis=2)])
        vals, maps, n = _lex_first_argmax(mus, g, allowed)
        rows += n
        b = min(np.nonzero(vals == vals.max())[0], key=lambda b: tuple(maps[b]))
        if best is None or (vals[b], best[1]) > (best[0], tuple(maps[b])):  # larger, or lex-first
            best = (float(vals[b]), tuple(int(x) for x in maps[b]), mus[b])
    return best + (rows, iters)


def burnashev_coefficient(ch) -> BurnashevResult:
    """Best binary-hypothesis divergence rate over deterministic map pairs.

    The chain is controlled by f0 alone, so given f0 the best f1 is a
    per-state maximum and D is an average-reward MDP over f0 with reward
    g(s, x0) = max_x1 KL, solved by policy iteration.  Ties keep the first
    maximizer in lexicographic (f0, f1) order; when D = +inf that is the
    first f0, then f1, with an infinite term.
    """
    ok, violators = check_assumption1(ch)
    if not ok:
        raise ChannelError(f"reducible policy chain, e.g. deterministic map {violators[0]}")
    fin, inf = _kl_tables(ch)
    ps, states = s_marginal(ch), np.arange(ch.n_states)
    # fin is 0 at infinite cells and on the diagonal, so its max is the finite submaximum
    submax, f0, mu, rows, iters = _best_confirm_map(ps, fin.max(axis=2))
    if inf.any():
        f0 = _first_hitting(inf.any(axis=2))
        f1 = _first_hitting(inf[states, f0])
        mu, d_val = stationary_measure(ps[states, f0]), ExtReal.infinity()
    else:
        vals, maps, n = _lex_first_argmax(mu[None], fin[states, f0],
                                          np.ones((1,) + fin.shape[:2], dtype=bool))
        best_val, f1 = float(vals[0]), tuple(int(x) for x in maps[0])
        rows, d_val = rows + n, ExtReal(best_val)
        recheck = sum(mu[s] * kl_divergence(ch.kernel[s, f0[s]], ch.kernel[s, f1[s]]).value
                      for s in states)
        if abs(recheck - best_val) > 1e-12:
            raise ChannelError("exponent coefficient recomputation mismatch")
    hit = inf[states, f0, f1]
    terms = np.where(hit, math.inf, mu * fin[states, f0, f1])
    diag = {"pairs_scanned": rows, "policy_iterations": iters,
            "finite_submax_nats": submax, "witness": None}
    if hit.any():
        s = int(np.argmax(hit))
        v, y = np.argwhere((ch.kernel[s, f0[s]] > 0.0) & (ch.kernel[s, f1[s]] == 0.0))[0]
        diag["witness"] = {"state": s, "next_state": int(v), "output": int(y)}
    return BurnashevResult(d_val, f0, f1, terms, diag)


# ---------------------------------------------------------------------------
# reliability

def _as_ext(d) -> ExtReal:
    if isinstance(d, ExtReal):
        return d
    d = float(d)
    return ExtReal.infinity() if math.isinf(d) else ExtReal(d)


def reliability(C: float, D, R: float) -> ExtReal:
    """Error exponent E(R) = D (1 - R/C) for 0 < R < C."""
    if not C > 0.0:
        raise ChannelError("capacity must be positive")
    if not 0.0 < R < C:
        raise ChannelError(f"rate {R} outside (0, {C})")
    d = _as_ext(D)
    if d.is_inf:
        return ExtReal.infinity()
    return ExtReal(d.value * (1.0 - R / C))


def reliability_curve(C: float, D, n_points: int):
    """Evenly spaced interior rates with their exponents; never increasing."""
    if n_points < 1:
        raise ChannelError("need at least one point")
    out = []
    for k in range(1, n_points + 1):
        r = C * k / (n_points + 1)
        out.append((r, reliability(C, D, r)))
    for (_, e0), (_, e1) in zip(out, out[1:]):
        if e0 < e1:
            raise ChannelError("reliability curve must be nonincreasing")
    return out
