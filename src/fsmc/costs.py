"""Per-state information costs: mutual-information gain and divergence gap.

All quantities are in nats.  Possibly-infinite results are carried as
ExtReal tagged values — IEEE infinities never flow through accumulating
sums; a support violation is detected first and the sum short-circuits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelError, InputDist, lambda_values, q_kernel


@dataclass(frozen=True)
class ExtReal:
    """A finite float or +infinity, compared and added explicitly."""

    value: float
    is_inf: bool = False

    @classmethod
    def infinity(cls) -> "ExtReal":
        return cls(0.0, True)

    @property
    def is_finite(self) -> bool:
        return not self.is_inf

    def to_float(self) -> float:
        return math.inf if self.is_inf else self.value

    def finite_value(self) -> float:
        if self.is_inf:
            raise ChannelError("value is infinite")
        return self.value

    def __add__(self, other):
        if isinstance(other, ExtReal):
            if self.is_inf or other.is_inf:
                return ExtReal.infinity()
            return ExtReal(self.value + other.value)
        return self + ExtReal(float(other))

    __radd__ = __add__

    def __lt__(self, other):
        if self.is_inf:
            return False
        if other.is_inf:
            return True
        return self.value < other.value

    def __le__(self, other):
        return self < other or self == other

    def __eq__(self, other):
        if not isinstance(other, ExtReal):
            return NotImplemented
        if self.is_inf or other.is_inf:
            return self.is_inf and other.is_inf
        return self.value == other.value

    def __hash__(self):
        return hash((self.is_inf, self.value if not self.is_inf else 0.0))

    def __repr__(self):
        return "ExtReal(+inf)" if self.is_inf else f"ExtReal({self.value!r})"


def binary_entropy(p: float) -> float:
    """h(p) in nats, with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ChannelError(f"entropy argument {p} outside [0, 1]")
    out = 0.0
    if p > 0.0:
        out -= p * math.log(p)
    if p < 1.0:
        out -= (1.0 - p) * math.log1p(-p)
    return out


def entropy(p) -> float:
    """Shannon entropy of a probability vector, nats."""
    p = np.asarray(p, dtype=np.float64).ravel()
    mask = p > 0.0
    return float(-np.dot(p[mask], np.log(p[mask])))


def binary_kl(a: float, b: float) -> float:
    """KL divergence between Bernoulli(a) and Bernoulli(b), nats (finite case)."""
    out = 0.0
    if a > 0.0:
        if b <= 0.0:
            return math.inf
        out += a * math.log(a / b)
    if a < 1.0:
        if b >= 1.0:
            return math.inf
        out += (1.0 - a) * math.log((1.0 - a) / (1.0 - b))
    return out


def kl_divergence(p, q) -> ExtReal:
    """KL(p || q) over matching finite alphabets, as an ExtReal.

    Conventions: 0 log(0/q) = 0 (including q = 0); p log(p/0) = +infinity for
    p > 0, detected before any summation.
    """
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    if p.shape != q.shape:
        raise ChannelError("KL arguments must share a shape")
    sup = p > 0.0
    if np.any(q[sup] == 0.0):
        return ExtReal.infinity()
    # KL >= 0, but rounding leaves a tiny negative sum for nearly equal p, q
    return ExtReal(max(0.0, float(np.dot(p[sup], np.log(p[sup] / q[sup])))))


def mi_cost(ch, s: int, u: InputDist) -> float:
    """Information gain c(s, u) = I(X; S_next, Y | S = s) under X ~ u, nats.

    Equals sum_x u(x) KL(P(.,.|s,x) || Q(.,.|s,u)); always finite because the
    mixture dominates every component it weights.
    """
    qu = q_kernel(ch, s, u)
    total = 0.0
    for x, w in enumerate(u.weights):
        if w == 0.0:
            continue
        term = kl_divergence(ch.kernel[s, x], qu)
        total += w * term.finite_value()
    cap = math.log(ch.n_inputs) + 1e-12
    if not -1e-12 <= total <= cap:
        raise ChannelError(f"information cost {total} outside [0, ln|X|]")
    return max(total, 0.0)


def div_cost(ch, s: int, u: InputDist):
    """Divergence gap d(s, u) = sup over u' of KL(Q(.|s,u) || Q(.|s,u')).

    The objective is convex in u', so the sup is attained at a point mass;
    returns (ExtReal value, index of the first maximizing input corner).
    """
    qu = q_kernel(ch, s, u)
    best, best_x = None, -1
    for x1 in range(ch.n_inputs):
        val = kl_divergence(qu, ch.kernel[s, x1])
        if best is None or best < val:
            best, best_x = val, x1
    return best, best_x


def _kl_tables(ch):
    """Per-state KLs between input corners (0 where infinite), and where infinite."""
    inf = ((ch.kernel[:, :, None] > 0.0) & (ch.kernel[:, None, :] == 0.0)).any(axis=(3, 4))
    fin = np.zeros(inf.shape)
    for s, x0, x1 in zip(*np.nonzero(~inf)):
        fin[s, x0, x1] = kl_divergence(ch.kernel[s, x0], ch.kernel[s, x1]).value
    return fin, inf


def d_max(ch) -> ExtReal:
    """sup over states s and inputs u of d(s, u).

    d(s, u) is convex in u (sup of convex functions of an affine image), so
    the outer sup is also attained at input corners: it is the largest KL
    between two corners of one state.  Finiteness is equivalent to lambda > 0,
    which is asserted.
    """
    fin, inf = _kl_tables(ch)
    best = ExtReal.infinity() if inf.any() else ExtReal(float(fin.max()))
    lam, _ = lambda_values(ch)
    if best.is_finite != (lam > 0.0):
        raise ChannelError("d_max finiteness disagrees with lambda > 0")
    return best
