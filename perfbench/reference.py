"""Independent reference computations for the benchmark's output checks.

Only numpy and the documented model are used here: a channel is a kernel
P(s_next, y | s, x) with array shape (S, X, S, Y); samples are drawn by
inverse CDF over the flattened (s_next, y) cells, clipped to the last cell
of positive mass; trial k of a run with seed `seed` reads
Philox(key=(seed, k)): 2 uniforms up front, then n per epoch.  Nothing here
calls into the program, and no output of an earlier run is stored.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

Z95 = 1.959963984540054
_MASK64 = (1 << 64) - 1


def philox(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def close(a, b, rel=1e-8, abs_=1e-10) -> bool:
    """Equality for printed 9-significant-digit floats, infinities exact."""
    a, b = float(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# chains

def all_maps(S: int, X: int) -> np.ndarray:
    return np.array(list(itertools.product(range(X), repeat=S)), dtype=np.int64)


def state_kernel(k) -> np.ndarray:
    """P(s_next | s, x), shape (S, X, S)."""
    return np.asarray(k).sum(axis=3)


def stationary(q) -> np.ndarray:
    """Stationary laws of a batch (..., S, S) of irreducible chains.

    Normal equations of [Q^T - I; 1^T] mu = [0; 1] with one refinement step,
    a different route from the program's row-replacement solve.
    """
    q = np.asarray(q, dtype=np.float64)
    batch = q.reshape(-1, q.shape[-1], q.shape[-1])
    n = batch.shape[-1]
    a = np.concatenate([np.transpose(batch, (0, 2, 1)) - np.eye(n), np.ones((batch.shape[0], 1, n))],
                       axis=1)
    b = np.zeros((batch.shape[0], n + 1))
    b[:, -1] = 1.0
    at = np.transpose(a, (0, 2, 1))
    normal = at @ a
    mu = np.linalg.solve(normal, (at @ b[:, :, None]))[:, :, 0]
    resid = b - (a @ mu[:, :, None])[:, :, 0]
    mu = mu + np.linalg.solve(normal, (at @ resid[:, :, None]))[:, :, 0]
    return mu.reshape(q.shape[:-1])


def irreducible(adj) -> np.ndarray:
    """Boolean reachability closure of a batch (..., S, S) of support graphs."""
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[-1]
    reach = (adj | np.eye(n, dtype=bool)).astype(np.float32)
    for _ in range(max(1, math.ceil(math.log2(n))) + 1):
        reach = ((reach @ reach) > 0.0).astype(np.float32)
    return reach.reshape(*adj.shape[:-2], n * n).min(axis=-1) > 0.0


def map_irreducible(k, maps) -> np.ndarray:
    ps = state_kernel(k)
    S = ps.shape[0]
    return irreducible(ps[np.arange(S)[None, :], maps, :] > 0.0)


# ---------------------------------------------------------------------------
# divergences and the exponent coefficient

def kl(p, q) -> float:
    p, q = np.ravel(p), np.ravel(q)
    sup = p > 0.0
    if np.any(q[sup] == 0.0):
        return math.inf
    return float(np.sum(p[sup] * np.log(p[sup] / q[sup])))


def kl_table(k) -> np.ndarray:
    """KL(P(.|s, x0) || P(.|s, x1)) for every (s, x0, x1); +inf allowed."""
    S, X = k.shape[:2]
    out = np.empty((S, X, X))
    for s in range(S):
        for x0 in range(X):
            for x1 in range(X):
                out[s, x0, x1] = kl(k[s, x0], k[s, x1])
    return out


def corner_gain(k) -> np.ndarray:
    """g(s, x0) = max over x1 of KL(P(.|s, x0) || P(.|s, x1))."""
    return kl_table(k).max(axis=2)


def _weighted(mu, terms):
    """sum_s mu(s) terms(s) with 0 * inf = 0 and inf kept otherwise."""
    inf = np.isinf(terms) & (mu > 0.0)
    fin = np.where(np.isinf(terms), 0.0, terms)
    return np.where(inf.any(axis=-1), math.inf, (mu * fin).sum(axis=-1))


def divergence_by_f0(k):
    """(maps, per-f0 best divergence): max over f1 splits per state."""
    S, X = k.shape[:2]
    maps = all_maps(S, X)
    ps = state_kernel(k)
    mus = stationary(ps[np.arange(S)[None, :], maps, :])
    g = corner_gain(k)
    return maps, _weighted(mus, g[np.arange(S)[None, :], maps])


def divergence(k) -> float:
    """Brute-force D: own stationary solve per f0, per-state max over x1."""
    _, vals = divergence_by_f0(k)
    return float(vals.max())


def pair_value(k, f0, f1) -> float:
    S = k.shape[0]
    f0, f1 = np.asarray(f0), np.asarray(f1)
    mu = stationary(state_kernel(k)[np.arange(S), f0, :])
    terms = kl_table(k)[np.arange(S), f0, f1]
    return float(_weighted(mu, terms))


# ---------------------------------------------------------------------------
# information rates

def policy_values(k, pi) -> np.ndarray:
    """J(pi) = sum_s mu_pi(s) I(X; S_next, Y | S = s) for pi of shape (B, S, X)."""
    k = np.asarray(k, dtype=np.float64)
    pi = np.asarray(pi, dtype=np.float64)
    S, X = k.shape[:2]
    flat = k.reshape(S, X, -1)
    mix = np.einsum("bsx,sxc->bsc", pi, flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(flat[None] > 0.0, np.log(flat[None] / mix[:, :, None, :]), 0.0)
    per_input = (flat[None] * ratio).sum(axis=3)            # KL of each input vs the mix
    gain = (pi * np.where(pi > 0.0, per_input, 0.0)).sum(axis=2)
    mu = stationary(np.einsum("bsx,sxv->bsv", pi, state_kernel(k)))
    return (mu * gain).sum(axis=1)


def deterministic_values(k, chunk=2048) -> np.ndarray:
    S, X = k.shape[:2]
    maps = all_maps(S, X)
    out = []
    for lo in range(0, len(maps), chunk):
        pi = np.zeros((len(maps[lo:lo + chunk]), S, X))
        pi[np.arange(pi.shape[0])[:, None], np.arange(S)[None, :], maps[lo:lo + chunk]] = 1.0
        out.append(policy_values(k, pi))
    return np.concatenate(out)


def bsc_capacity(p: float) -> float:
    return math.log(2.0) - binary_entropy(p)


def binary_entropy(p: float) -> float:
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def bsc_divergence(p: float) -> float:
    return (1.0 - 2.0 * p) * math.log((1.0 - p) / p)


# ---------------------------------------------------------------------------
# sampling replays

class Sampler:
    """Inverse-CDF draws of (s_next, y) from kernel rows, as documented."""

    def __init__(self, k, initial):
        k = np.asarray(k, dtype=np.float64)
        S, X, _, Y = k.shape
        self.Y = Y
        flat = k.reshape(S, X, S * Y)
        self.cdf = np.cumsum(flat, axis=2)
        self.last = np.array([[np.nonzero(flat[s, x] > 0.0)[0][-1] for x in range(X)]
                              for s in range(S)])
        self.init_cdf = np.cumsum(initial)
        self.init_last = int(np.nonzero(np.asarray(initial) > 0.0)[0][-1])
        with np.errstate(divide="ignore"):
            self.logk = np.log(flat)                        # -inf on zero cells

    def initial(self, u: float) -> int:
        return min(int(np.searchsorted(self.init_cdf, u, side="right")), self.init_last)

    def cell(self, s: int, x: int, u: float) -> int:
        return min(int(np.searchsorted(self.cdf[s, x], u, side="right")), int(self.last[s, x]))

    def cells(self, s, x, u):
        """Vectorized draws for arrays s, x, u."""
        cnt = (self.cdf[s, x] <= u[:, None]).sum(axis=1)
        return np.minimum(cnt, self.last[s, x])


def phase2_replay(smp: Sampler, f_send, f0, f1, s: int, u):
    """Verification phase: returns (llr over all but the last use, fired, end state)."""
    Y = smp.Y
    llr, fired = 0.0, False
    n_tilde = len(u)
    for t in range(n_tilde):
        c = smp.cell(s, int(f_send[s]), float(u[t]))
        if t < n_tilde - 1:
            a, b = smp.logk[s, f0[s], c], smp.logk[s, f1[s], c]
            if math.isinf(b):
                fired = True
                term = math.inf if not math.isinf(a) else 0.0
            elif math.isinf(a):
                term = -math.inf
            else:
                term = a - b
            llr += term
        s = c // Y
    return llr, fired, s


def ml_scores(smp: Sampler, codebook, path):
    """Log-likelihood of every codeword for observed (state, cell) steps."""
    total = np.zeros(codebook.shape[0])
    for t, (s, c) in enumerate(path):
        total += smp.logk[s, codebook[:, t, s].astype(np.int64), c]
    return total


def replay_trials(smp: Sampler, codebook, f0, f1, cfg, d_value, traces, n_trials):
    """Check the first trials' epoch records against an independent replay.

    `traces` maps trial -> list of (epoch, decoded, phase1_correct, sent_bit,
    decided_bit, llr).  Returns a list of problems (empty when all hold).
    """
    problems = []
    n, n_hat, W = cfg["n"], cfg["n_hat"], cfg["message_count"]
    f0, f1 = np.asarray(f0), np.asarray(f1)
    for trial in range(n_trials):
        recs = traces.get(trial, [])
        gen = philox(cfg["seed"], trial)
        first = gen.random(2)
        w = min(int(first[0] * W), W - 1)
        s = smp.initial(first[1])
        if not recs:
            problems.append(f"trial {trial}: no epoch records")
            continue
        for e, rec in enumerate(recs):
            epoch, decoded, correct, sent_bit, decided, llr = rec
            if epoch != e:
                problems.append(f"trial {trial}: epoch numbering {epoch} != {e}")
                break
            u = gen.random(n)
            path = []
            for t in range(n_hat):
                c = smp.cell(s, int(codebook[w, t, s]), float(u[t]))
                path.append((s, c))
                s = c // smp.Y
            scores = ml_scores(smp, codebook, path)
            best = float(scores.max())
            if not 0 <= decoded < W or not scores[decoded] >= best - 1e-9:
                problems.append(f"trial {trial} epoch {e}: decoded {decoded} scores "
                                f"{scores[decoded] if 0 <= decoded < W else None} < ML {best}")
            sent = int(decoded != w)
            if bool(correct) != (sent == 0) or sent_bit != sent:
                problems.append(f"trial {trial} epoch {e}: sent bit {sent_bit} but message "
                                f"{w} decoded as {decoded}")
            ref_llr, fired, s = phase2_replay(smp, f0 if sent == 0 else f1, f0, f1, s,
                                              u[n_hat:])
            if not close(llr, ref_llr, rel=1e-9, abs_=1e-9):
                problems.append(f"trial {trial} epoch {e}: llr {llr} != replay {ref_llr}")
            if math.isinf(d_value):
                want = 0 if fired else 1
                ambiguous = False
            else:
                stat = ref_llr / (n - n_hat)
                want = 0 if stat >= -d_value / 4.0 else 1
                ambiguous = abs(stat + d_value / 4.0) <= 1e-9
            if decided != want and not ambiguous:
                problems.append(f"trial {trial} epoch {e}: decided {decided}, threshold "
                                f"rule gives {want}")
            last = e == len(recs) - 1
            if (decided == 0) != last and not (last and e + 1 == cfg["max_epochs"]):
                problems.append(f"trial {trial} epoch {e}: decision {decided} does not "
                                f"match the record count {len(recs)}")
    return problems


def wilson(k: int, n: int, z: float = Z95):
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def message_count(n: int, rate: float) -> int:
    k = math.floor(n * rate + 1e-9)
    return 1 << 16 if k >= 12 else min(1 << 16, max(2, round(math.exp(k))))


def report_problems(rep: dict, n: int, gamma: float, rate: float, trials: int) -> list:
    """Identities every simulate report must satisfy, recomputed from its counts."""
    out = []
    W = message_count(n, rate)
    n_hat = math.ceil(gamma * n - 1e-9)
    if (rep["message_count"], rep["n_hat"], rep["n_tilde"], rep["trials"]) != (W, n_hat,
                                                                            n - n_hat, trials):
        out.append(f"block lengths {rep['message_count']}, {rep['n_hat']}, {rep['n_tilde']}, "
                   f"{rep['trials']} != {W}, {n_hat}, {n - n_hat}, {trials}")
    if not close(rep["mean_T"], n * rep["mean_epochs"]):
        out.append(f"mean_T {rep['mean_T']} != n * mean_epochs")
    if not close(rep["empirical_rate"], math.log(W) / (n * rep["mean_epochs"])):
        out.append(f"empirical_rate {rep['empirical_rate']} != ln W / mean_T")
    errors = rep["error_count"]
    if not close(rep["p_e_hat"], errors / trials):
        out.append(f"p_e_hat {rep['p_e_hat']} != {errors}/{trials}")
    lo, hi = wilson(errors, trials)
    if not (close(rep["p_e_ci"][0], lo) and close(rep["p_e_ci"][1], hi)):
        out.append(f"Wilson interval {rep['p_e_ci']} != ({lo}, {hi})")
    if rep["mean_epochs"] < 1.0:
        out.append(f"mean_epochs {rep['mean_epochs']} < 1")
    return out


def epochs_total(rep: dict) -> int:
    return int(round(rep["mean_epochs"] * rep["trials"]))


def occupation_violations(k, initial, grid, n, eps, trials, seed, choose):
    """Replay azuma trajectories; returns (definite, possible) violation counts.

    `choose(last_outputs)` gives each trajectory's control index into `grid`
    from its previous output (-1 before the first use).  Controls are drawn
    from the grid point with uniform 2t+1, the transition with uniform 2t+2.
    """
    k = np.asarray(k, dtype=np.float64)
    S, X, _, Y = k.shape
    smp = Sampler(k, initial)
    grid = np.asarray(grid, dtype=np.float64)
    in_cdf = np.cumsum(grid, axis=1)
    in_last = np.array([np.nonzero(row > 0.0)[0][-1] for row in grid])
    u = np.stack([philox(seed, t).random(2 * n + 1) for t in range(trials)])
    s = np.minimum((smp.init_cdf <= u[:, 0, None]).sum(axis=1), smp.init_last)
    last_y = np.full(trials, -1)
    counts = np.zeros((trials, S, grid.shape[0]))
    rows = np.arange(trials)
    for t in range(n):
        kk = choose(s, last_y)
        counts[rows, s, kk] += 1.0
        x = np.minimum((in_cdf[kk] <= u[:, 2 * t + 1, None]).sum(axis=1), in_last[kk])
        c = smp.cells(s, x, u[:, 2 * t + 2])
        s, last_y = c // Y, c % Y
    w = counts / n
    trans = np.einsum("kx,jxs->jks", grid, state_kernel(k))
    f = w.sum(axis=2) - np.einsum("bjk,jks->bs", w, trans)
    dev = np.abs(f).max(axis=1)
    thr = eps + 1.0 / n
    return int((dev >= thr + 1e-12).sum()), int((dev >= thr - 1e-12).sum())


def azuma_problems(out: dict, S: int, n: int, eps: float, trials: int, counts) -> list:
    definite, possible = counts
    problems = []
    bad = out["empirical"] * trials
    if not definite - 1e-6 <= bad <= possible + 1e-6:
        problems.append(f"empirical {out['empirical']} not in replay [{definite}, {possible}]/{trials}")
    bound = 2.0 * S * math.exp(-n * eps * eps / 2.0)
    if not close(out["bound"], bound):
        problems.append(f"bound {out['bound']} != {bound}")
    p = definite / trials
    want = p <= bound + 3.0 * math.sqrt(p * (1.0 - p) / trials)
    if definite == possible and bool(out["pass"]) != want:
        problems.append(f"pass {out['pass']} but replay says {want}")
    return problems
