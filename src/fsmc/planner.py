"""Optimal stationary policies: capacity, exponent coefficient, reliability.

Capacity is max over stationary state-feedback policies pi of
sum_s mu_pi(s) c(s, pi_s), with mu_pi the ergodic state law under pi.  With
ISI the ergodic measure depends on the policy, so the objective is not
separable per state; it is solved by multi-start projected gradient ascent,
certified in tests against a brute-force grid oracle.  Without ISI the
measure is policy-free and each state solves independently (Blahut-Arimoto).

The exponent coefficient D is max over deterministic map pairs (f0, f1) of
sum_s mu_{f0}(s) KL(P(.|s, f0(s)) || P(.|s, f1(s))); only f0's ergodic
measure enters.  The reliability function is E(R) = D (1 - R/C).
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
    policy = StationaryPolicy(tuple(dists))
    c_val, mu = _exact_value(ch, policy)
    diag = {
        "method": "per_state_fixed_point",
        "per_state_gain_nats": [float(v) for v in per_state],
        "iterations": iters_total,
    }
    return c_val, policy, mu, diag


# ---------------------------------------------------------------------------
# general path: multi-start projected gradient ascent

def _starting_points(S, X, n_starts=16):
    pts = []
    for f in itertools.product(range(X), repeat=S):
        m = np.zeros((S, X))
        m[np.arange(S), f] = 1.0
        pts.append(m)
        if len(pts) >= min(8, n_starts - 2):
            break
    pts.append(np.full((S, X), 1.0 / X))
    gen = _rng.stream(_START_SEED, _rng.AUX_STREAM)
    while len(pts) < n_starts:
        raw = gen.random((S, X)) + 1e-3
        pts.append(raw / raw.sum(axis=1, keepdims=True))
    return np.stack(pts)


def _pgd_capacity(ch, n_starts=16, tol=1e-10, max_iters=600, fd_step=1e-6):
    ev = _Evaluator(ch)
    S, X = ev.S, ev.X
    pi = _starting_points(S, X, n_starts)
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
        stall[better & (gain > tol)] = 0
        stall[active & ((gain <= tol) | worse)] += 1
        active &= (stall < 12) & (step > 1e-14)
    best = int(np.argmax(j_cur))
    raw = pi[best].copy()
    raw[raw < 1e-12] = 0.0
    policy = StationaryPolicy.from_matrix(raw / raw.sum(axis=1, keepdims=True))
    c_val, mu = _exact_value(ch, policy)
    diag = {
        "method": "multistart_projected_ascent",
        "starts": int(B),
        "iterations": int(iters),
        "best_start": best,
        "batch_objective_nats": float(j_cur[best]),
    }
    return c_val, policy, mu, diag


def capacity(ch, n_starts=16, tol=1e-10) -> CapacityResult:
    """Feedback capacity over stationary policies, nats per channel use."""
    ok, violators = check_assumption1(ch)
    if not ok:
        raise ChannelError(f"reducible policy chain, e.g. deterministic map {violators[0]}")
    if is_no_isi(ch):
        c_val, policy, mu, diag = _capacity_no_isi(ch)
    else:
        c_val, policy, mu, diag = _pgd_capacity(ch, n_starts=n_starts, tol=tol)
    cap = math.log(ch.n_inputs)
    if not -1e-9 <= c_val <= cap + 1e-9:
        raise ChannelError(f"capacity {c_val} outside [0, ln|X|]")
    check, _ = _exact_value(ch, policy)
    if abs(check - c_val) > 1e-9:
        raise ChannelError("capacity recomputation mismatch")
    return CapacityResult(max(c_val, 0.0), policy, mu, diag)


def capacity_grid_oracle(ch, resolution: int) -> float:
    """Brute-force certified lower bound: exhaustive product grid search.

    Each state's input simplex is covered by the lattice of denominators
    `resolution`; feasible only for |S| * (|X| - 1) <= 4.
    """
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
    """Pairwise per-state KLs between input corners, plus infinity witnesses."""
    S, X = ch.n_states, ch.n_inputs
    fin = np.zeros((S, X, X))
    inf = np.zeros((S, X, X), dtype=bool)
    wit = {}
    for s in range(S):
        for x0 in range(X):
            for x1 in range(X):
                val = kl_divergence(ch.kernel[s, x0], ch.kernel[s, x1])
                if val.is_inf:
                    inf[s, x0, x1] = True
                    p0, p1 = ch.kernel[s, x0], ch.kernel[s, x1]
                    v, y = np.argwhere((p0 > 0.0) & (p1 == 0.0))[0]
                    wit[(s, x0, x1)] = (int(v), int(y))
                else:
                    fin[s, x0, x1] = val.value
    return fin, inf, wit


def burnashev_coefficient(ch) -> BurnashevResult:
    """Best binary-hypothesis divergence rate over deterministic map pairs.

    Exhaustive over (f0, f1); the chain is controlled by f0 alone, so one
    stacked stationary solve covers every f0, and each f0 costs a vectorized
    scan over all f1.  Ties keep
    the first maximizer in lexicographic (f0, f1) order.
    """
    ok, violators = check_assumption1(ch)
    if not ok:
        raise ChannelError(f"reducible policy chain, e.g. deterministic map {violators[0]}")
    S, X = ch.n_states, ch.n_inputs
    if X ** (2 * S) > 10**6:
        raise ChannelError("map-pair enumeration exceeds 10^6")
    fin, inf, wit = _kl_tables(ch)
    maps = np.array(list(itertools.product(range(X), repeat=S)), dtype=int)  # lex order
    n_maps = maps.shape[0]
    ps = s_marginal(ch)
    state_idx = np.arange(S)
    best_val, best_pair = -math.inf, None          # -inf < any; +inf encodes infinite D
    best_fin_val, best_fin_pair = -math.inf, None
    mus = stationary_measure(ps[state_idx, maps])                 # (n_maps, S)
    for i in range(n_maps):
        f0 = maps[i]
        mu = mus[i]
        # fancy-index the per-state KL at (s, f0[s], f1[s]) for every f1 at once
        kl_slice = fin[state_idx[None, :], f0[None, :], maps]      # (n_maps, S)
        inf_slice = inf[state_idx[None, :], f0[None, :], maps]
        vals = (mu[None, :] * kl_slice).sum(axis=1)
        has_inf = inf_slice.any(axis=1)
        vals_ext = np.where(has_inf, math.inf, vals)
        j = int(np.argmax(vals_ext))
        if vals_ext[j] > best_val:
            best_val, best_pair = float(vals_ext[j]), (i, j)
        finite_vals = np.where(has_inf, -math.inf, vals)
        jf = int(np.argmax(finite_vals))
        if finite_vals[jf] > best_fin_val:
            best_fin_val, best_fin_pair = float(finite_vals[jf]), (i, jf)
    i, j = best_pair
    f0, f1 = tuple(int(v) for v in maps[i]), tuple(int(v) for v in maps[j])
    mu = mus[i]
    terms = np.empty(S)
    witness = None
    for s in range(S):
        if inf[s, f0[s], f1[s]]:
            terms[s] = math.inf
            if witness is None:
                v, y = wit[(s, f0[s], f1[s])]
                witness = {"state": s, "next_state": v, "output": y}
        else:
            terms[s] = mu[s] * fin[s, f0[s], f1[s]]
    if math.isinf(best_val):
        d_val = ExtReal.infinity()
    else:
        d_val = ExtReal(best_val)
        recheck = sum(
            mu[s] * kl_divergence(ch.kernel[s, f0[s]], ch.kernel[s, f1[s]]).finite_value()
            for s in range(S)
        )
        if abs(recheck - best_val) > 1e-12:
            raise ChannelError("exponent coefficient recomputation mismatch")
    diag = {
        "pairs_scanned": int(n_maps) ** 2,
        "finite_submax_nats": None if best_fin_pair is None or best_fin_val == -math.inf
        else float(best_fin_val),
        "witness": witness,
    }
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
