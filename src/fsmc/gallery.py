"""Two-state worked example: good/bad states, binary-symmetric outputs.

The kernel is a product: the next state depends on (s, x) through a single
leave-probability, the output flips the input with a state-dependent
crossover, and the two are conditionally independent given (s, x).  Closed
forms for the per-state costs and the ergodic measure make this family the
reference oracle for the general solvers.  The substitution alpha1 = gamma,
beta1 = 1 - gamma produces a one-parameter sweep; at gamma = 1 - beta0 the
channel has no ISI.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelError, InputDist, channel_from_arrays
from .costs import binary_entropy, binary_kl, entropy
from .ergodic import stationary_measure
from .planner import burnashev_coefficient, capacity, _blahut_arimoto
from .channel import induced_matrix, StationaryPolicy

DEFAULT_PG = 0.001
DEFAULT_PB = 0.1
DEFAULT_ALPHA0 = 0.7
DEFAULT_BETA0 = 0.3


@dataclass(frozen=True)
class ExampleParams:
    p_g: float       # crossover in the good state
    p_b: float       # crossover in the bad state
    alpha0: float    # P(G -> B | x = 0)
    alpha1: float    # P(G -> B | x = 1)
    beta0: float     # P(B -> G | x = 0)
    beta1: float     # P(B -> G | x = 1)

    def __post_init__(self):
        if not 0.0 < self.p_g < self.p_b < 0.5:
            raise ChannelError("need 0 < p_g < p_b < 1/2")
        for name in ("alpha0", "alpha1", "beta0", "beta1"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ChannelError(f"{name} must lie in (0, 1)")

    def leave_probs(self, s: int):
        return (self.alpha0, self.alpha1) if s == 0 else (self.beta0, self.beta1)

    def crossover(self, s: int):
        return self.p_g if s == 0 else self.p_b


def make_example(params: ExampleParams, initial=None):
    """Assemble the (2, 2, 2, 2) product kernel; state 0 = G, state 1 = B."""
    k = np.zeros((2, 2, 2, 2))
    for s in range(2):
        leave = params.leave_probs(s)
        p = params.crossover(s)
        for x in range(2):
            trans = [1.0 - leave[x], leave[x]] if s == 0 else [leave[x], 1.0 - leave[x]]
            out = [1.0 - p, p] if x == 0 else [p, 1.0 - p]
            for v in range(2):
                for y in range(2):
                    k[s, x, v, y] = trans[v] * out[y]
    init = [0.5, 0.5] if initial is None else initial
    return channel_from_arrays(("G", "B"), ("0", "1"), ("0", "1"), k, init)


def gamma_params(gamma: float, p_g=DEFAULT_PG, p_b=DEFAULT_PB,
                 alpha0=DEFAULT_ALPHA0, beta0=DEFAULT_BETA0) -> ExampleParams:
    """One-parameter family: alpha1 = gamma, beta1 = 1 - gamma."""
    return ExampleParams(p_g, p_b, alpha0, gamma, beta0, 1.0 - gamma)


def symmetric_params(p_g=DEFAULT_PG, p_b=DEFAULT_PB) -> ExampleParams:
    """States drawn i.i.d. uniform regardless of input: no ISI, no memory."""
    return ExampleParams(p_g, p_b, 0.5, 0.5, 0.5, 0.5)


def closed_form_mu(params: ExampleParams, pi_g1: float, pi_b1: float):
    """Ergodic state law under per-state input-1 probabilities (pi_g1, pi_b1)."""
    a_bar = params.alpha0 * (1.0 - pi_g1) + params.alpha1 * pi_g1
    b_bar = params.beta0 * (1.0 - pi_b1) + params.beta1 * pi_b1
    tot = a_bar + b_bar
    return b_bar / tot, a_bar / tot


def closed_form_costs(params: ExampleParams, s: int, u):
    """Exact per-state costs from the six scalar parameters.

    Returns (c, d_table) where c is the information gain under u and
    d_table[x0, x1] = KL between the (next state, output) laws of the two
    input corners.  The mixture's joint next-state/output entropy is kept as
    a joint term: it splits into marginal entropies only when the leave
    probability does not depend on the input.
    """
    if isinstance(u, InputDist):
        u = u.weights
    u0, u1 = float(u[0]), float(u[1])
    leave = params.leave_probs(s)
    p = params.crossover(s)
    # joint mixture cells over (leave?, y)
    q = np.zeros((2, 2))
    for x, w in ((0, u0), (1, u1)):
        py1 = p if x == 0 else 1.0 - p
        q[0, 0] += w * (1.0 - leave[x]) * (1.0 - py1)
        q[0, 1] += w * (1.0 - leave[x]) * py1
        q[1, 0] += w * leave[x] * (1.0 - py1)
        q[1, 1] += w * leave[x] * py1
    c = entropy(q) - u0 * (binary_entropy(leave[0]) + binary_entropy(p)) \
        - u1 * (binary_entropy(leave[1]) + binary_entropy(p))
    d_table = np.zeros((2, 2))
    for x0 in range(2):
        for x1 in range(2):
            flip = binary_kl(p, 1.0 - p) if x0 != x1 else 0.0
            d_table[x0, x1] = flip + binary_kl(leave[x0], leave[x1])
    return max(c, 0.0), d_table


def _best_divergence_for_f0(params: ExampleParams, f0):
    """max over f1 of sum_s mu_{f0}(s) KL(corner f0(s) || corner f1(s))."""
    mu_g, mu_b = closed_form_mu(params, float(f0[0]), float(f0[1]))
    _, d_g = closed_form_costs(params, 0, InputDist.uniform(2))
    _, d_b = closed_form_costs(params, 1, InputDist.uniform(2))
    best = -math.inf
    for x1g in range(2):
        for x1b in range(2):
            best = max(best, mu_g * d_g[f0[0], x1g] + mu_b * d_b[f0[1], x1b])
    return best


def sweep_gamma(p_g=DEFAULT_PG, p_b=DEFAULT_PB, alpha0=DEFAULT_ALPHA0,
                beta0=DEFAULT_BETA0, gamma_step=0.01, jobs: int = 1):
    """Capacity, optimal policy, and divergence landscape along the sweep.

    Returns one dict per gamma on the open grid (step, 2*step, ..., 1-step)
    with keys matching the CSV columns: gamma, C_nats, piG_1, piB_1, D_nats,
    klf00, klf01, klf10, klf11 (klfab = best divergence when the confirm map
    sends a in G and b in B).  jobs is accepted and ignored: the rows are
    computed in order in one thread, which was faster than a thread pool on
    two cores.
    """
    steps = int(round(1.0 / gamma_step)) - 1
    if steps < 1:
        raise ChannelError("gamma_step too coarse")
    rows = []
    for k in range(1, steps + 1):
        g = gamma_step * k
        params = gamma_params(g, p_g, p_b, alpha0, beta0)
        ch = make_example(params)
        cap = capacity(ch)
        exp = burnashev_coefficient(ch)
        pol = cap.optimal_policy.matrix()
        row = {
            "gamma": g,
            "C_nats": cap.C,
            "piG_1": float(pol[0, 1]),
            "piB_1": float(pol[1, 1]),
            "D_nats": exp.D.to_float(),
        }
        for f0 in ((0, 0), (0, 1), (1, 0), (1, 1)):
            row[f"klf{f0[0]}{f0[1]}"] = _best_divergence_for_f0(params, f0)
        rows.append(row)
    return rows


def interleaving_gap(params: ExampleParams):
    """State knowledge vs forgetting the state behind a long interleaver.

    The interleaved comparison channel averages the output law over the
    stationary state measure of the uniform policy and discards the state
    coordinate: W(y|x) = sum_s mu(s) P_Y(y|s,x).  Returns (C, C_int, D, D_int)
    and asserts C > C_int and D >= D_int.
    """
    ch = make_example(params)
    cap = capacity(ch)
    exp = burnashev_coefficient(ch)
    mu = stationary_measure(induced_matrix(ch, StationaryPolicy.uniform(2, 2)))
    py = ch.kernel.sum(axis=2)                      # (S, X, Y)
    w = np.einsum("s,sxy->xy", mu, py)
    _, c_int, _ = _blahut_arimoto(w)
    d_int = max(
        binary_kl(w[x0, 1], w[x1, 1]) for x0 in range(2) for x1 in range(2)
    )
    d_val = exp.D.to_float()
    if not cap.C > c_int:
        raise ChannelError("state knowledge should strictly beat interleaving")
    if not d_val >= d_int - 1e-12:
        raise ChannelError("divergence gap should not be negative")
    return cap.C, c_int, d_val, d_int
