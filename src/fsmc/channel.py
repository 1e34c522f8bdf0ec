"""Finite-state channels with state known at transmitter and receiver.

A channel is a stochastic kernel P(s_next, y | s, x) on finite alphabets,
stored as a (S, X, S, Y) tensor, plus an initial state distribution.  The
pair (s_next, y) is drawn jointly, so the next state may correlate with the
output (intersymbol interference in the state process).
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-9      # strict validation
RENORM_TOL = 1e-6       # worst row-sum defect repairable via renormalize=True
DIST_TOL = 1e-12        # probability vectors supplied by callers
NO_ISI_TOL = 1e-12      # largest spread over inputs of P(s_next | s, x) without ISI


class ChannelError(ValueError):
    """Invalid channel data or an operation's precondition failed."""


def _as_prob_vector(w, tol, what):
    try:
        v = np.asarray(w, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ChannelError(f"{what} is not a numeric vector: {exc}") from exc
    if v.ndim != 1:
        raise ChannelError(f"{what} must be a vector")
    if not np.all(np.isfinite(v)):
        raise ChannelError(f"{what} has non-finite entries")
    if np.any(v < 0.0):
        raise ChannelError(f"{what} has negative entries")
    if abs(float(v.sum()) - 1.0) > tol:
        raise ChannelError(f"{what} sums to {v.sum()!r}, not 1")
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class InputDist:
    """Probability vector over the input alphabet."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "weights", _as_prob_vector(self.weights, DIST_TOL, "input distribution")
        )

    @classmethod
    def uniform(cls, n_inputs: int) -> "InputDist":
        return cls(np.full(n_inputs, 1.0 / n_inputs))

    @classmethod
    def point_mass(cls, x: int, n_inputs: int) -> "InputDist":
        w = np.zeros(n_inputs)
        w[x] = 1.0
        return cls(w)

    def key(self) -> bytes:
        # exact-identity key used for grid membership lookups
        return self.weights.tobytes()

    def __len__(self):
        return self.weights.shape[0]


@dataclass(frozen=True)
class StationaryPolicy:
    """One input distribution per state."""

    dists: tuple

    def __post_init__(self):
        if not all(isinstance(d, InputDist) for d in self.dists):
            raise ChannelError("policy entries must be InputDist")
        object.__setattr__(self, "dists", tuple(self.dists))

    @classmethod
    def from_matrix(cls, w) -> "StationaryPolicy":
        w = np.asarray(w, dtype=np.float64)
        return cls(tuple(InputDist(row) for row in w))

    @classmethod
    def deterministic(cls, f, n_inputs: int) -> "StationaryPolicy":
        return cls(tuple(InputDist.point_mass(x, n_inputs) for x in f))

    @classmethod
    def uniform(cls, n_states: int, n_inputs: int) -> "StationaryPolicy":
        return cls(tuple(InputDist.uniform(n_inputs) for _ in range(n_states)))

    def matrix(self) -> np.ndarray:
        return np.stack([d.weights for d in self.dists])

    def __len__(self):
        return len(self.dists)


@dataclass(frozen=True)
class ChannelSpec:
    """Validated channel: labels, kernel tensor, initial state distribution."""

    state_labels: tuple
    input_labels: tuple
    output_labels: tuple
    kernel: np.ndarray        # (S, X, S, Y), kernel[s, x, v, y] = P(v, y | s, x)
    initial_dist: np.ndarray  # (S,)

    def __post_init__(self):
        states = tuple(str(t) for t in self.state_labels)
        inputs = tuple(str(t) for t in self.input_labels)
        outputs = tuple(str(t) for t in self.output_labels)
        if len(states) < 1 or len(inputs) < 2 or len(outputs) < 1:
            raise ChannelError("need |S| >= 1, |X| >= 2, |Y| >= 1")
        for name, labels in (("state", states), ("input", inputs), ("output", outputs)):
            if len(set(labels)) != len(labels):
                raise ChannelError(f"duplicate {name} labels")
        k = np.ascontiguousarray(np.asarray(self.kernel, dtype=np.float64))
        shape = (len(states), len(inputs), len(states), len(outputs))
        if k.shape != shape:
            raise ChannelError(f"kernel shape {k.shape} != {shape}")
        if not np.all(np.isfinite(k)):
            raise ChannelError("kernel has non-finite entries")
        if np.any(k < 0.0):
            raise ChannelError("kernel has negative entries")
        sums = k.sum(axis=(2, 3))
        defect = float(np.max(np.abs(sums - 1.0)))
        if defect > ROW_SUM_TOL:
            raise ChannelError(f"kernel rows sum off by {defect:.3g} (> {ROW_SUM_TOL})")
        k.flags.writeable = False
        init = _as_prob_vector(self.initial_dist, DIST_TOL, "initial distribution")
        object.__setattr__(self, "state_labels", states)
        object.__setattr__(self, "input_labels", inputs)
        object.__setattr__(self, "output_labels", outputs)
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "initial_dist", init)

    @property
    def n_states(self):
        return len(self.state_labels)

    @property
    def n_inputs(self):
        return len(self.input_labels)

    @property
    def n_outputs(self):
        return len(self.output_labels)


def channel_from_arrays(states, inputs, outputs, kernel, initial=None, renormalize=False):
    """Build a ChannelSpec, optionally repairing small row-sum defects."""
    k = np.asarray(kernel, dtype=np.float64)
    if renormalize and k.ndim == 4:
        sums = k.sum(axis=(2, 3))
        defect = float(np.max(np.abs(sums - 1.0)))
        if defect > RENORM_TOL:
            raise ChannelError(f"row-sum defect {defect:.3g} exceeds {RENORM_TOL}")
        if np.any(sums <= 0.0):
            raise ChannelError("cannot renormalize a zero row")
        k = k / sums[:, :, None, None]
    if initial is None:
        initial = np.full(len(states), 1.0 / len(states))
    return ChannelSpec(tuple(states), tuple(inputs), tuple(outputs), k, initial)


def load_channel(path, renormalize=False) -> ChannelSpec:
    """Load a channel from a UTF-8 JSON file.

    Schema: {"states": [...], "inputs": [...], "outputs": [...],
             "kernel": [s][x][s_next][y], "initial": [...] (optional)}.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ChannelError(f"not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ChannelError("top-level JSON value must be an object")
    for field in ("states", "inputs", "outputs", "kernel"):
        if field not in doc:
            raise ChannelError(f"missing field {field!r}")
        if not isinstance(doc[field], list):
            raise ChannelError(f"field {field!r} must be an array")
    try:
        kernel = np.asarray(doc["kernel"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ChannelError(f"kernel is not a numeric 4-level array: {exc}") from exc
    if kernel.ndim != 4:
        raise ChannelError(f"kernel must be 4-level [s][x][s_next][y], got {kernel.ndim} levels")
    return channel_from_arrays(
        doc["states"], doc["inputs"], doc["outputs"], kernel,
        initial=doc.get("initial"), renormalize=renormalize,
    )


def save_channel(ch: ChannelSpec, path):
    doc = {
        "states": list(ch.state_labels),
        "inputs": list(ch.input_labels),
        "outputs": list(ch.output_labels),
        "kernel": ch.kernel.tolist(),
        "initial": ch.initial_dist.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def s_marginal(ch: ChannelSpec) -> np.ndarray:
    """State-transition marginal P(s_next | s, x), shape (S, X, S)."""
    return ch.kernel.sum(axis=3)


def is_no_isi(ch: ChannelSpec) -> bool:
    """True iff the next state is conditionally independent of the input."""
    ps = s_marginal(ch)
    spread = ps.max(axis=1) - ps.min(axis=1)   # over x, per (s, s_next)
    return float(spread.max()) <= NO_ISI_TOL


def achievable_pairs(ch: ChannelSpec):
    """Pairs (s_next, y) reachable from some (s, x); the alphabet Z."""
    hit = ch.kernel.max(axis=(0, 1)) > 0.0
    return [(v, y) for v in range(ch.n_states) for y in range(ch.n_outputs) if hit[v, y]]


def lambda_values(ch: ChannelSpec):
    """Worst-case floor of the kernel over achievable transitions.

    lambda_s = min over pairs (s_next, y) achievable from state s (under any
    input) of min_x P(s_next, y | s, x); returns (min_s lambda_s, per-state
    vector).  lambda > 0 is equivalent to d_max < infinity.
    """
    k = ch.kernel
    ach = k.max(axis=1) > 0.0                  # (S, S, Y): achievable from s
    floor = k.min(axis=1)                      # (S, S, Y): worst input
    per_state = np.array([
        float(floor[s][ach[s]].min()) if ach[s].any() else 0.0
        for s in range(ch.n_states)
    ])
    return float(per_state.min()), per_state


def q_kernel(ch: ChannelSpec, s: int, u: InputDist) -> np.ndarray:
    """Joint law Q(s_next, y | s, u) = sum_x u(x) P(s_next, y | s, x)."""
    return np.einsum("x,xvy->vy", u.weights, ch.kernel[s])


def _policy_matrix(ch: ChannelSpec, policy) -> np.ndarray:
    if not isinstance(policy, StationaryPolicy):
        raise ChannelError("policy must be a StationaryPolicy")
    m = policy.matrix()
    if m.shape != (ch.n_states, ch.n_inputs):
        raise ChannelError("policy shape does not match channel")
    return m


def induced_matrix(ch: ChannelSpec, policy) -> np.ndarray:
    """State transition matrix Q_pi(s_next | s) under a stationary policy."""
    return np.einsum("sx,sxv->sv", _policy_matrix(ch, policy), s_marginal(ch))


def build_equivalent_dmc(ch: ChannelSpec) -> ChannelSpec:
    """Memoryless single-state channel matching an i.i.d.-state original.

    Precondition: P(s_next | s, x) equals one fixed distribution mu for every
    (s, x) (within 1e-9), i.e. states are drawn i.i.d. and the channel has no
    ISI.  The construction treats the per-use revealed pair (state, output) as
    the composite output and a state-feedback map x': S -> X as the composite
    input:  P'((sigma, y) | x') = mu(sigma) * P_Y(y | sigma, x'(sigma)).
    """
    ps = s_marginal(ch)
    mu = ps[0, 0]
    if float(np.max(np.abs(ps - mu))) > 1e-9:
        raise ChannelError("next-state law varies with (s, x); no i.i.d.-state equivalent")
    py = ch.kernel.sum(axis=2)                 # (S, X, Y): output marginal
    S, X, Y = ch.n_states, ch.n_inputs, ch.n_outputs
    maps = list(itertools.product(range(X), repeat=S))
    kernel = np.zeros((1, len(maps), 1, S * Y))
    for i, f in enumerate(maps):
        for sigma in range(S):
            kernel[0, i, 0, sigma * Y:(sigma + 1) * Y] = mu[sigma] * py[sigma, f[sigma]]
    in_labels = [",".join(ch.input_labels[x] for x in f) for f in maps]
    out_labels = [f"{sl}|{yl}" for sl in ch.state_labels for yl in ch.output_labels]
    return ChannelSpec(("*",), tuple(in_labels), tuple(out_labels), kernel, np.array([1.0]))
