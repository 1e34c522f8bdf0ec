"""Irreducibility checks and stationary measures for finite chains.

A chain is reducible iff some proper state set is closed.  The largest
closed sets are greatest fixed points, so Assumption 1 (every deterministic
map gives an irreducible chain) is decided in polynomial time.
"""
from __future__ import annotations

import numpy as np

from .channel import ChannelError, s_marginal

RESIDUAL_TOL = 1e-10     # ||mu Q - mu||_inf enforced on every solve


def _closed_set_exists(out, allowed) -> bool:
    """Is some proper nonempty state set A closed: does each s in A have an
    allowed input whose next-state support out[s, x] stays in A?  Closed sets
    are closed under union, so the largest one avoiding state t is a greatest
    fixed point: start from all states but t, drop states that cannot stay."""
    S, X = allowed.shape
    flat = out.reshape(S * X, S).astype(np.int64)
    keep = ~np.eye(S, dtype=bool)                  # row t: candidate set for excluded t
    while True:
        stays = ((~keep).astype(np.int64) @ flat.T == 0).reshape(S, S, X)   # (t, s, x)
        new = keep & (stays & allowed).any(axis=2)
        if (new == keep).all():
            return bool(keep.any())
        keep = new


def is_irreducible(q) -> bool:
    """True iff the support graph of the transition matrix is one SCC, that
    is, iff no proper state set is closed."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ChannelError("transition matrix must be square")
    return not _closed_set_exists(q[:, None, :] > 0.0, np.ones((len(q), 1), dtype=bool))


def check_assumption1(ch):
    """Check irreducibility of Q_f for every deterministic state-feedback map.

    Returns (ok, violators): violators is empty if every map f (a tuple of
    input indices, one per state) gives an irreducible chain, and otherwise
    holds one map, the lexicographically first reducible one, built by fixing
    f(0), f(1), ... to the smallest input that still leaves a closed set.
    By linearity in the per-state input law, irreducibility for all
    deterministic maps extends to all stationary policies.
    """
    S, X = ch.n_states, ch.n_inputs
    out = s_marginal(ch) > 0.0                     # (S, X, S) next-state supports
    allowed = np.ones((S, X), dtype=bool)
    if not _closed_set_exists(out, allowed):
        return True, []
    for s in range(S):
        for x in range(X):
            allowed[s] = np.arange(X) == x
            if x == X - 1 or _closed_set_exists(out, allowed):
                break
    return False, [tuple(int(x) for x in allowed.argmax(axis=1))]


def stationary_measure(q) -> np.ndarray:
    """Stationary distribution of an irreducible transition matrix, or of
    each matrix in a stack (..., n, n).

    Direct sparse-free solve of mu (Q - I) = 0 with one row swapped for the
    normalization; falls back to power iteration on (Q + I)/2 if the linear
    system is numerically singular.  The residual ||mu Q - mu||_inf <= 1e-10
    is asserted for every matrix.  A stack whose batched solve fails is
    solved one matrix at a time, so each result is what a call on that matrix
    alone returns.
    """
    q = np.asarray(q, dtype=np.float64)
    n = q.shape[-1]
    qs = q.reshape(-1, n, n)
    a = np.swapaxes(qs, 1, 2) - np.eye(n)
    a[:, -1, :] = 1.0
    b = np.zeros((qs.shape[0], n, 1))
    b[:, -1] = 1.0
    try:
        cand = np.linalg.solve(a, b)[:, :, 0]
    except np.linalg.LinAlgError:
        if qs.shape[0] > 1:
            return np.stack([stationary_measure(m) for m in qs]).reshape(q.shape[:-1])
        cand = np.full((1, n), np.nan)
    good = np.isfinite(cand).all(axis=1)
    good[good] = cand[good].min(axis=1) > -1e-9
    mu = np.clip(np.where(good[:, None], cand, 1.0), 0.0, None)
    mu /= mu.sum(axis=1, keepdims=True)
    resid = _residuals(mu, qs)
    redo = np.nonzero(~good | (resid > RESIDUAL_TOL))[0]
    for i in redo:
        # lazy chain has the same stationary law and no periodicity
        half = 0.5 * (qs[i] + np.eye(n))
        m = np.full(n, 1.0 / n)
        for _ in range(10**5):
            m, prev = m @ half, m
            if float(np.max(np.abs(m - prev))) < 1e-13:
                break
        m = np.clip(m, 0.0, None)
        mu[i] = m / m.sum()
    if redo.size:       # only the rows that power iteration replaced change
        resid[redo] = _residuals(mu[redo], qs[redo])
    if resid.max() > RESIDUAL_TOL:
        raise ChannelError(f"stationary solve residual {resid.max():.3g} > {RESIDUAL_TOL}")
    return mu.reshape(q.shape[:-1])


def _residuals(mu, qs):
    """||mu_i Q_i - mu_i||_inf for each row i."""
    return np.abs(np.matmul(mu[:, None, :], qs)[:, 0, :] - mu).max(axis=1)
