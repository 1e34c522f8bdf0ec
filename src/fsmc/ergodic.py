"""Irreducibility checks and stationary measures for finite chains."""
from __future__ import annotations

import itertools

import numpy as np

from .channel import ChannelError, s_marginal

RESIDUAL_TOL = 1e-10     # ||mu Q - mu||_inf enforced on every solve
ASSUMPTION1_CAP = 10**6  # refuse to enumerate more deterministic maps


def _sccs(adj):
    """Strongly connected components, iterative Kosaraju (no recursion)."""
    n = len(adj)
    radj = [[] for _ in range(n)]
    for i, row in enumerate(adj):
        for j in row:
            radj[j].append(i)
    order, seen = [], [False] * n
    for start in range(n):
        if seen[start]:
            continue
        stack = [(start, iter(adj[start]))]
        seen[start] = True
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    comp, labeled = [], [False] * n
    for start in reversed(order):
        if labeled[start]:
            continue
        members, stack = [], [start]
        labeled[start] = True
        while stack:
            node = stack.pop()
            members.append(node)
            for nxt in radj[node]:
                if not labeled[nxt]:
                    labeled[nxt] = True
                    stack.append(nxt)
        comp.append(members)
    return comp


def is_irreducible(q) -> bool:
    """True iff the support graph of the transition matrix is one SCC."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ChannelError("transition matrix must be square")
    n = q.shape[0]
    adj = [list(np.nonzero(q[i] > 0.0)[0]) for i in range(n)]
    return len(_sccs(adj)) == 1


def check_assumption1(ch, cap: int = ASSUMPTION1_CAP):
    """Check irreducibility of Q_f for every deterministic state-feedback map.

    Returns (ok, violators) where violators lists the maps f (tuples of input
    indices, one per state) whose induced chain is reducible.  By linearity of
    the transition law in the per-state input distribution, irreducibility for
    all deterministic maps extends to all stationary policies.
    """
    S, X = ch.n_states, ch.n_inputs
    if X**S > cap:
        raise ChannelError(f"{X}**{S} deterministic maps exceeds cap {cap}")
    ps = s_marginal(ch)
    violators = []
    for f in itertools.product(range(X), repeat=S):
        q = ps[np.arange(S), f, :]
        if not is_irreducible(q):
            violators.append(f)
    return (not violators), violators


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
    for i in np.nonzero(~good | (_residuals(mu, qs) > RESIDUAL_TOL))[0]:
        # lazy chain has the same stationary law and no periodicity
        half = 0.5 * (qs[i] + np.eye(n))
        m = np.full(n, 1.0 / n)
        for _ in range(10**5):
            m, prev = m @ half, m
            if float(np.max(np.abs(m - prev))) < 1e-13:
                break
        m = np.clip(m, 0.0, None)
        mu[i] = m / m.sum()
    resid = float(_residuals(mu, qs).max())
    if resid > RESIDUAL_TOL:
        raise ChannelError(f"stationary solve residual {resid:.3g} > {RESIDUAL_TOL}")
    return mu.reshape(q.shape[:-1])


def _residuals(mu, qs):
    """||mu_i Q_i - mu_i||_inf for each row i."""
    return np.abs(np.matmul(mu[:, None, :], qs)[:, 0, :] - mu).max(axis=1)
