"""Optimal stationary policies: capacity, exponent coefficient, reliability.

Capacity is max over stationary state-feedback policies pi of
sum_s mu_pi(s) c(s, pi_s), with mu_pi the ergodic state law under pi.  With
ISI the ergodic measure depends on the policy, so the objective is not
separable per state; it is solved by multi-start projected gradient ascent,
certified in tests against a brute-force grid oracle.  Without ISI the
measure is policy-free and each state solves independently (Blahut-Arimoto).

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
from .costs import ExtReal, kl_divergence, mi_cost
from .ergodic import check_assumption1, stationary_measure

_START_SEED = 2718281828459045  # fixed: `capacity` takes no seed and must be reproducible
_N_STARTS = 16                  # ascent starting points
_ASCENT_TOL = 1e-10             # a gain at most this counts toward a start's stall


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
    """Evaluates J(pi) = sum_s mu_pi(s) c(s, pi_s) for batches of policies."""

    def __init__(self, ch):
        self.P = ch.kernel
        self.PS = s_marginal(ch)
        plnp = np.where(self.P > 0.0, self.P * np.log(np.maximum(self.P, 1e-300)), 0.0)
        self.PlnP = plnp.sum(axis=(2, 3))      # (S, X)
        self.S, self.X = ch.n_states, ch.n_inputs

    def sanitize(self, pi):
        pi = np.clip(pi, 0.0, None)
        sums = pi.sum(axis=-1, keepdims=True)
        if np.any(sums <= 0.5):
            raise ChannelError("degenerate policy row")
        return pi / sums

    def value(self, pi):
        """J for pi of shape (B, S, X); rows are cleaned up front."""
        pi = self.sanitize(pi)
        q = np.einsum("bsx,sxvy->bsvy", pi, self.P)
        lnq = np.log(np.maximum(q, 1e-300))
        plnq = np.einsum("sxvy,bsvy->bsx", self.P, lnq)
        inner = self.PlnP[None, :, :] - plnq
        c = np.where(pi > 0.0, pi * inner, 0.0).sum(axis=2)    # (B, S)
        mu = stationary_measure(np.einsum("bsx,sxv->bsv", pi, self.PS))
        return (mu * c).sum(axis=1), c, mu


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
    S = ch.n_states
    dists, per_state, iters_total = [], [], 0
    for s in range(S):
        w = ch.kernel[s].reshape(ch.n_inputs, -1)
        u, val, iters = _blahut_arimoto(w)
        dists.append(InputDist(u / u.sum()))
        per_state.append(val)
        iters_total += iters
    diag = {
        "method": "per_state_fixed_point",
        "per_state_gain_nats": [float(v) for v in per_state],
        "iterations": iters_total,
    }
    return StationaryPolicy(tuple(dists)), diag


# ---------------------------------------------------------------------------
# general path: multi-start projected gradient ascent

def _starting_points(S, X):
    pts = []
    for f in itertools.product(range(X), repeat=S):
        m = np.zeros((S, X))
        m[np.arange(S), f] = 1.0
        pts.append(m)
        if len(pts) >= min(8, _N_STARTS - 2):
            break
    pts.append(np.full((S, X), 1.0 / X))
    gen = _rng.stream(_START_SEED, _rng.AUX_STREAM)
    while len(pts) < _N_STARTS:
        raw = gen.random((S, X)) + 1e-3
        pts.append(raw / raw.sum(axis=1, keepdims=True))
    return np.stack(pts)


def _pgd_capacity(ch, max_iters=600, fd_step=1e-6):
    ev = _Evaluator(ch)
    S, X = ev.S, ev.X
    pi = _starting_points(S, X)
    B = pi.shape[0]
    step = np.full(B, 0.25)
    stall = np.zeros(B, dtype=int)
    active = np.ones(B, dtype=bool)
    j_cur, _, _ = ev.value(pi)
    iters = 0
    for iters in range(1, max_iters + 1):
        if not active.any():
            break
        # central finite differences, one stacked batched evaluation
        probes = np.repeat(pi[None, :, :, :], 2 * S * X, axis=0).reshape(-1, S, X).copy()
        k = 0
        for s in range(S):
            for x in range(X):
                probes[k * B:(k + 1) * B, s, x] += fd_step
                probes[(k + 1) * B:(k + 2) * B, s, x] -= fd_step
                k += 2
        j_probe, _, _ = ev.value(probes)
        j_probe = j_probe.reshape(2 * S * X, B)
        grad = np.empty((B, S, X))
        k = 0
        for s in range(S):
            for x in range(X):
                grad[:, s, x] = (j_probe[k] - j_probe[k + 1]) / (2.0 * fd_step)
                k += 2
        cand = _project_simplex(pi + step[:, None, None] * grad)
        j_cand, _, _ = ev.value(cand)
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
    best = int(np.argmax(j_cur))
    raw = pi[best].copy()
    raw[raw < 1e-12] = 0.0
    diag = {
        "method": "multistart_projected_ascent",
        "starts": int(B),
        "iterations": int(iters),
        "best_start": best,
        "batch_objective_nats": float(j_cur[best]),
    }
    return StationaryPolicy.from_matrix(raw / raw.sum(axis=1, keepdims=True)), diag


def capacity(ch) -> CapacityResult:
    """Feedback capacity over stationary policies, nats per channel use.  C is
    _exact_value of the solver's policy, which must match the solver's own
    objective within 1e-9."""
    ok, violators = check_assumption1(ch)
    if not ok:
        raise ChannelError(f"reducible policy chain, e.g. deterministic map {violators[0]}")
    no_isi = is_no_isi(ch)
    policy, diag = (_capacity_no_isi if no_isi else _pgd_capacity)(ch)
    c_val, mu = _exact_value(ch, policy)
    cap = math.log(ch.n_inputs)
    if not -1e-9 <= c_val <= cap + 1e-9:
        raise ChannelError(f"capacity {c_val} outside [0, ln|X|]")
    own = np.dot(mu, diag["per_state_gain_nats"]) if no_isi else diag["batch_objective_nats"]
    if abs(own - c_val) > 1e-9:
        raise ChannelError("capacity recomputation mismatch")
    return CapacityResult(max(c_val, 0.0), policy, mu, diag)


def capacity_grid_oracle(ch, resolution: int) -> float:
    """Brute-force certified lower bound: exhaustive product grid search.

    Each state's input simplex is covered by the lattice of denominators
    `resolution` >= 1; feasible only for |S| * (|X| - 1) <= 4.
    """
    if resolution < 1:
        raise ChannelError("grid resolution must be at least 1")
    S, X = ch.n_states, ch.n_inputs
    if S * (X - 1) > 4:
        raise ChannelError("grid oracle limited to |S|*(|X|-1) <= 4")
    grid = np.array([
        np.array(c, dtype=np.float64) / resolution
        for c in itertools.product(range(resolution + 1), repeat=X)
        if sum(c) == resolution
    ])
    m = grid.shape[0]
    ev = _Evaluator(ch)
    best = -math.inf
    combos = itertools.product(range(m), repeat=S)
    while True:
        batch = list(itertools.islice(combos, 16384))
        if not batch:
            break
        pi = grid[np.array(batch)]           # (B, S, X)
        j, _, _ = ev.value(pi)
        best = max(best, float(j.max()))
    return best


# ---------------------------------------------------------------------------
# exponent coefficient

def _kl_tables(ch):
    """Per-state KLs between input corners (0 where infinite), and where infinite."""
    inf = ((ch.kernel[:, :, None] > 0.0) & (ch.kernel[:, None, :] == 0.0)).any(axis=(3, 4))
    fin = np.zeros(inf.shape)
    for s, x0, x1 in zip(*np.nonzero(~inf)):
        fin[s, x0, x1] = kl_divergence(ch.kernel[s, x0], ch.kernel[s, x1]).value
    return fin, inf


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
