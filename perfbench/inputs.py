"""Seeded channel files for the benchmark workloads.

Everything here is built from numpy and the documented model alone: a
channel is a kernel P(s_next, y | s, x) stored as kernel[s][x][s_next][y]
in a JSON file.  The program only ever sees the files written here.
"""
from __future__ import annotations

import json

import numpy as np


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """Independent generator per (seed, tags); the same seed gives the same inputs."""
    return np.random.default_rng([seed & (2**63 - 1), *tags])


def write_channel(path, kernel, initial):
    """Labels are s<i>, x<i>, y<i>; the checks read indices back from them."""
    k = np.asarray(kernel, dtype=np.float64)
    S, X, _, Y = k.shape
    doc = {
        "states": [f"s{i}" for i in range(S)],
        "inputs": [f"x{i}" for i in range(X)],
        "outputs": [f"y{i}" for i in range(Y)],
        "kernel": k.tolist(),
        "initial": np.asarray(initial, dtype=np.float64).tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _normalize(k):
    return k / k.sum(axis=(2, 3), keepdims=True)


def bsc_kernel(p: float):
    return np.array([[[[1.0 - p, p]], [[p, 1.0 - p]]]])


def z_kernel():
    # input 0 always gives output 0; input 1 gives 0 w.p. 0.3
    return np.array([[[[1.0, 0.0]], [[0.3, 0.7]]]])


def two_state_kernel(p_g, p_b, alpha0, alpha1, beta0, beta1):
    """Good/bad example: product of a leave law and a binary symmetric output.

    State 0 = G leaves with alpha_x, state 1 = B leaves with beta_x; the
    output flips the input with crossover p_g in G and p_b in B.
    """
    k = np.zeros((2, 2, 2, 2))
    for s, (leave, p) in enumerate((((alpha0, alpha1), p_g), ((beta0, beta1), p_b))):
        for x in range(2):
            stay = 1.0 - leave[x]
            trans = (stay, leave[x]) if s == 0 else (leave[x], stay)
            out = (1.0 - p, p) if x == 0 else (p, 1.0 - p)
            k[s, x] = np.outer(trans, out)
    return k


def gamma_example(gamma, p_g=0.001, p_b=0.1, alpha0=0.7, beta0=0.3):
    """One-parameter family alpha1 = gamma, beta1 = 1 - gamma."""
    return two_state_kernel(p_g, p_b, alpha0, gamma, beta0, 1.0 - gamma)


def symmetric_example(p_g=0.001, p_b=0.1):
    """Next state uniform whatever the input: no ISI, closed-form C and D."""
    return two_state_kernel(p_g, p_b, 0.5, 0.5, 0.5, 0.5)


def sparse_isi_kernel(gen, S, X, Y, density=0.35, finite_d=True):
    """Random sparse channel whose every deterministic map is irreducible.

    Each (s, x) row reaches s+1 mod S, so every map contains the full cycle.
    Other next states and outputs are kept with probability `density`.  With
    finite_d the support of (s_next, y) depends on s only, so every KL
    between inputs is finite; otherwise supports differ across inputs and D
    is usually +inf.
    """
    k = np.zeros((S, X, S, Y))
    for s in range(S):
        shared = gen.random((S, Y)) < density
        shared[(s + 1) % S, gen.integers(Y)] = True
        for x in range(X):
            if finite_d:
                sup = shared
            else:
                sup = gen.random((S, Y)) < density
                sup[(s + 1) % S, gen.integers(Y)] = True
            k[s, x][sup] = gen.random(int(sup.sum())) + 0.05
    initial = gen.random(S) + 0.1
    return _normalize(k), initial / initial.sum()


def no_isi_kernel(gen, S, X, Y, density=0.35):
    """Random sparse channel whose next-state law does not depend on the input.

    The state chain P(s_next | s) keeps the s -> s+1 mod S cycle, so every
    map is irreducible; outputs depend on (s, x, s_next).
    """
    k = np.zeros((S, X, S, Y))
    for s in range(S):
        nxt = gen.random(S) < density
        nxt[(s + 1) % S] = True
        trans = np.where(nxt, gen.random(S) + 0.05, 0.0)
        trans /= trans.sum()
        for x in range(X):
            out = np.where(gen.random((S, Y)) < density, gen.random((S, Y)) + 0.05, 0.0)
            out[np.arange(S), gen.integers(Y, size=S)] += 0.05
            k[s, x] = trans[:, None] * out / out.sum(axis=1, keepdims=True)
    initial = gen.random(S) + 0.1
    return k, initial / initial.sum()


def reducible_kernel(gen, S, X, Y, closed=2):
    """Sparse channel in which input 0 keeps states 0..closed-1 among themselves."""
    k, initial = sparse_isi_kernel(gen, S, X, Y, finite_d=True)
    k = k.copy()
    for s in range(closed):
        row = k[s, 0].copy()
        row[closed:, :] = 0.0
        row[(s + 1) % closed, :] += 0.2 / Y
        k[s, 0] = row
    return _normalize(k), initial
