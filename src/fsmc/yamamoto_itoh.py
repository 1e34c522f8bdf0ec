"""Variable-length transmission with per-epoch confirm/deny verification.

Each epoch spends n channel uses: a length-ceil(gamma n) data phase carrying
one of message_count messages through a random state-feedback codebook, then
a verification phase in which the transmitter, knowing whether the receiver
decoded correctly, plays one of two deterministic state maps (f0 = confirm,
f1 = deny).  The receiver thresholds the log-likelihood ratio of the observed
(state, output) transitions; a deny repeats the epoch with the channel state
carried over.  Decoding errors require a deny to slip past the verifier, so
the error exponent is governed by the divergence coefficient D rather than
the sphere-packing bound.

All randomness is drawn from per-trial Philox substreams (seed, trial):
trial t reads stream offsets 0-1 (message, initial state) and offsets
[2 + e n, 2 + (e+1) n) in epoch e.  simulate reads those windows by counter
for all active trials at once and keeps trials as rows of arrays; each
epoch's data phase is decoded in one product over the active trials, so a
report never depends on how work is scheduled.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng as _rng
from .channel import ChannelError
from .planner import BurnashevResult, CapacityResult, burnashev_coefficient, capacity

MESSAGE_CAP = 1 << 16
_E_ENTRY_BUDGET = 64_000_000      # max float64 entries for the eager decode matrix
_CODEBOOK_CHUNK = 4096            # codewords drawn per block (fixed: determinism)


def _message_count(n: int, rate: float) -> int:
    # Guard against float slop: 40*0.175 = 6.999999... must still floor to 7.
    k = math.floor(n * rate + 1e-9)
    if k >= 12:                    # e^12 already exceeds the 2^16 cap
        return MESSAGE_CAP
    return min(MESSAGE_CAP, max(2, round(math.exp(k))))


@dataclass(frozen=True)
class SchemeConfig:
    """Operating point of the scheme; derived block lengths are computed."""

    rate: float                    # nats per channel use
    gamma: float                   # data-phase fraction of each epoch
    n: int                         # channel uses per epoch
    trials: int = 1000
    seed: int = 0
    confirm_threshold: float | None = None   # accept iff LLR/n_tilde >= this; None -> -D/4
    max_epochs: int = 64
    message_count: int = field(init=False)
    n_hat: int = field(init=False)
    n_tilde: int = field(init=False)

    def __post_init__(self):
        if not self.rate > 0.0:
            raise ChannelError("rate must be positive")
        if not 0.0 < self.gamma < 1.0:
            raise ChannelError("gamma must lie in (0, 1)")
        if self.trials < 1 or self.max_epochs < 1:
            raise ChannelError("trials and max_epochs must be positive")
        # ceil with slop guard: 0.6*20 can evaluate to 12.000000000000002.
        n_hat = math.ceil(self.gamma * self.n - 1e-9)
        n_tilde = self.n - n_hat
        if n_hat < 1 or n_tilde < 2:
            raise ChannelError("epoch too short: need data phase >= 1 and verify phase >= 2")
        object.__setattr__(self, "message_count", _message_count(self.n, self.rate))
        object.__setattr__(self, "n_hat", n_hat)
        object.__setattr__(self, "n_tilde", n_tilde)


@dataclass(frozen=True)
class EpochTrace:
    epoch: int
    decoded: int
    phase1_correct: bool
    sent_bit: int                  # 0 = confirm, 1 = deny
    decided_bit: int
    llr: float                     # may be +-inf


class Scheme:
    """Bound channel + config + planner results + sampling tables."""

    def __init__(self, ch, config, cap_result, exp_result, threshold):
        self.ch = ch
        self.config = config
        self.capacity_result = cap_result
        self.exponent_result = exp_result
        self.confirm_threshold = threshold          # None only when D = +inf
        S, X, Y = ch.n_states, ch.n_inputs, ch.n_outputs
        self._S, self._X, self._Y = S, X, Y
        k = ch.kernel
        flat = k.reshape(S, X, S * Y)
        self._pair_cdf, self._last_pos = _rng.inverse_cdf(flat)
        self._init_cdf, self._init_last = _rng.inverse_cdf(ch.initial_dist)
        self._logk = np.where(flat > 0.0, np.log(np.maximum(flat, 1e-300)), -1e18)  # (S, X, SY)
        f0, f1 = np.array(exp_result.f0), np.array(exp_result.f1)
        self._f0, self._f1 = f0, f1
        p0 = k[np.arange(S), f0].reshape(S, S, Y)   # P(v, y | s, f0(s))
        p1 = k[np.arange(S), f1].reshape(S, S, Y)
        llr = np.zeros((S, S, Y))
        both = (p0 > 0.0) & (p1 > 0.0)
        llr[both] = np.log(p0[both]) - np.log(p1[both])
        llr[(p0 > 0.0) & (p1 == 0.0)] = math.inf
        llr[(p0 == 0.0) & (p1 > 0.0)] = -math.inf
        self._llr_tab = llr
        self._forbid = p1 == 0.0                    # deny-impossible transitions
        # the same tables as nested lists, for one trial at a time (_phase2_one)
        self._lists = tuple(a.tolist() for a in (self._pair_cdf, self._last_pos, llr,
                                                 self._forbid, f0, f1))
        self.infinite_d = exp_result.D.is_inf
        self._codebook = None
        self._indicator = None

    # -- lazy codebook ------------------------------------------------------

    @property
    def codebook(self) -> np.ndarray:
        """(message_count, n_hat, S) int8 array of inputs, drawn i.i.d. from pi*."""
        if self._codebook is None:
            cfg = self.config
            w_total, n_hat, S = cfg.message_count, cfg.n_hat, self._S
            pol_cdf, last = _rng.inverse_cdf(self.capacity_result.optimal_policy.matrix())
            gen = _rng.stream(cfg.seed, _rng.CODEBOOK_STREAM)
            blocks = []
            for lo in range(0, w_total, _CODEBOOK_CHUNK):
                u = gen.random((min(lo + _CODEBOOK_CHUNK, w_total) - lo, n_hat, S))
                blocks.append(_rng.draw(pol_cdf, last, u).astype(np.int8))
            self._codebook = np.concatenate(blocks, axis=0)
        return self._codebook

    def _ensure_indicator(self):
        """One-hot (W, n_hat*S*X) float64 used by the dot-product ML decoder."""
        if self._indicator is not None:
            return self._indicator
        cfg = self.config
        entries = cfg.message_count * cfg.n_hat * self._S * self._X
        if entries > _E_ENTRY_BUDGET:
            return None                              # decode falls back to chunks
        cb = self.codebook
        w_total, n_hat, S, X = cfg.message_count, cfg.n_hat, self._S, self._X
        e = np.zeros((w_total, n_hat, S, X))
        wi = np.arange(w_total)[:, None, None]
        ti = np.arange(n_hat)[None, :, None]
        si = np.arange(S)[None, None, :]
        e[wi, ti, si, cb] = 1.0
        self._indicator = e.reshape(w_total, -1)
        return self._indicator


def build_scheme(ch, config: SchemeConfig, cap_result: CapacityResult | None = None,
                 exp_result: BurnashevResult | None = None) -> Scheme:
    """Assemble a runnable scheme; planner results are computed if not given."""
    if cap_result is None:
        cap_result = capacity(ch)
    if exp_result is None:
        exp_result = burnashev_coefficient(ch)
    c_val = cap_result.C
    if not c_val > 0.0:
        raise ChannelError("channel capacity is zero; no positive rate is supported")
    if not config.rate < c_val:
        raise ChannelError(f"rate {config.rate} is not below capacity {c_val}")
    if not config.rate / c_val < config.gamma < 1.0:
        raise ChannelError(
            f"gamma {config.gamma} outside ({config.rate / c_val:.6g}, 1)")
    if exp_result.D.is_inf:
        threshold = config.confirm_threshold         # unused by the zero-error rule
    elif config.confirm_threshold is not None:
        threshold = float(config.confirm_threshold)
    else:
        threshold = -exp_result.D.value / 4.0
    return Scheme(ch, config, cap_result, exp_result, threshold)


# ---------------------------------------------------------------------------
# vectorized batch engine

def _sample_pairs(scheme, s, x, u):
    """Draw (next_state, output) for each trial from kernel rows (s, x)."""
    flat = _rng.draw(scheme._pair_cdf[s, x], scheme._last_pos[s, x], u)
    return flat // scheme._Y, flat % scheme._Y


def _phase1_batch(scheme, w, s0, u):
    """Data phase for a batch: returns (decoded, end_state, state_paths)."""
    cfg = scheme.config
    b, n_hat = u.shape[0], cfg.n_hat
    cb = scheme.codebook
    ss = np.empty((b, n_hat), dtype=np.int64)
    vv = np.empty((b, n_hat), dtype=np.int64)
    yy = np.empty((b, n_hat), dtype=np.int64)
    s = s0.astype(np.int64)
    for t in range(n_hat):
        x = cb[w, t, s].astype(np.int64)
        v, y = _sample_pairs(scheme, s, x, u[:, t])
        ss[:, t], vv[:, t], yy[:, t] = s, v, y
        s = v
    flat_obs = vv * scheme._Y + yy
    # per-use scores at the visited state; other states stay 0 so that the
    # dot product with the codebook indicator reads off the codeword score
    scores_u = np.zeros((b, n_hat, scheme._S, scheme._X))
    bi = np.arange(b)[:, None]
    ti = np.arange(n_hat)[None, :]
    scores_u[bi, ti, ss, :] = scheme._logk[ss, :, flat_obs]
    u_flat = scores_u.reshape(b, -1)
    e = scheme._ensure_indicator()
    if e is not None:
        decoded = np.argmax(u_flat @ e.T, axis=1)
    else:
        decoded = _chunked_decode(scheme, u_flat)
    return decoded, s, ss


def _chunked_decode(scheme, u_flat):
    """ML decode against codeword blocks when the full matrix is too large."""
    cfg = scheme.config
    n_hat, S, X = cfg.n_hat, scheme._S, scheme._X
    cb = scheme.codebook
    b = u_flat.shape[0]
    best = np.full(b, -math.inf)
    arg = np.zeros(b, dtype=np.int64)
    chunk = max(1, _E_ENTRY_BUDGET // (4 * n_hat * S * X))
    ti = np.arange(n_hat)[None, :, None]
    si = np.arange(S)[None, None, :]
    for lo in range(0, cfg.message_count, chunk):
        hi = min(lo + chunk, cfg.message_count)
        e = np.zeros((hi - lo, n_hat, S, X))
        wi = np.arange(hi - lo)[:, None, None]
        e[wi, ti, si, cb[lo:hi]] = 1.0
        sc = u_flat @ e.reshape(hi - lo, -1).T
        loc = np.argmax(sc, axis=1)
        val = sc[np.arange(b), loc]
        better = val > best                          # strict: keeps lowest index on ties
        best[better] = val[better]
        arg[better] = loc[better] + lo
    return arg


def _phase2_batch(scheme, bits, s0, u):
    """Verification phase: returns (decided, end_state, llr)."""
    cfg = scheme.config
    n_tilde = cfg.n_tilde
    s = s0.astype(np.int64)
    llr = np.zeros(u.shape[0])
    fired = np.zeros(u.shape[0], dtype=bool)
    f0s, f1s = scheme._f0, scheme._f1
    for t in range(n_tilde):
        x = np.where(bits == 0, f0s[s], f1s[s]).astype(np.int64)
        v, y = _sample_pairs(scheme, s, x, u[:, t])
        if t < n_tilde - 1:                          # the last next-state is unobserved
            llr = llr + scheme._llr_tab[s, v, y]
            fired |= scheme._forbid[s, v, y]
        s = v
    if scheme.infinite_d:
        decided = np.where(fired, 0, 1)
    else:
        decided = np.where(llr / n_tilde >= scheme.confirm_threshold, 0, 1)
    return decided, s, llr


def _phase2_one(scheme, bit, s, u):
    """_phase2_batch for one trial in Python scalars, with the same draws and
    the same left-to-right LLR sum; returns (decided, llr, end_state)."""
    cdf, last, tab, forbid, f0, f1 = scheme._lists
    f, n_out, stop = (f1 if bit else f0), scheme._Y, len(u) - 1
    llr, fired = 0.0, False
    for t, ut in enumerate(u):
        x = f[s]
        v, y = divmod(min(bisect_right(cdf[s][x], ut), last[s][x]), n_out)
        if t < stop:                                 # the last next-state is unobserved
            llr += tab[s][v][y]
            fired = fired or forbid[s][v][y]
        s = v
    if scheme.infinite_d:
        return (0 if fired else 1), llr, s
    return (0 if llr / len(u) >= scheme.confirm_threshold else 1), llr, s


def _draw_initial(scheme, u):
    return _rng.draw(scheme._init_cdf, scheme._init_last, u)


def _start(scheme, gen, start_state) -> int:
    """start_state if given, else drawn with one uniform from gen."""
    if start_state is None:
        return int(_draw_initial(scheme, gen.random()))
    return int(start_state)


# ---------------------------------------------------------------------------
# single-trial entry points

def run_phase1(scheme, w: int, gen, start_state: int | None = None):
    """One data phase; returns (decoded message, visited states).

    Draws one uniform for the initial state when start_state is None, then
    n_hat channel uses from gen.
    """
    if not 0 <= w < scheme.config.message_count:
        raise ChannelError("message index out of range")
    s0 = _start(scheme, gen, start_state)
    u = gen.random((1, scheme.config.n_hat))
    decoded, s_end, ss = _phase1_batch(scheme, np.array([w]), np.array([s0]), u)
    states = [int(v) for v in ss[0]] + [int(s_end[0])]
    return int(decoded[0]), states


def run_phase2(scheme, bit: int, gen, start_state: int | None = None):
    """One verification phase; returns (decided bit, llr, end state)."""
    if bit not in (0, 1):
        raise ChannelError("bit must be 0 or 1")
    s0 = _start(scheme, gen, start_state)
    return _phase2_one(scheme, bit, s0, gen.random(scheme.config.n_tilde).tolist())


def run_trial(scheme, w: int, gen, start_state: int | None = None):
    """Epochs until a confirm is accepted; returns (traces, decoded, aborted).

    Uses one uniform for the initial state (unless given) and n per epoch.
    The channel state carries over between phases and epochs.
    """
    cfg = scheme.config
    s = _start(scheme, gen, start_state)
    traces = []
    w_arr = np.array([w])
    for epoch in range(cfg.max_epochs):
        u = gen.random((1, cfg.n))
        decoded, s_mid, _ = _phase1_batch(scheme, w_arr, np.array([s]), u[:, :cfg.n_hat])
        decoded = int(decoded[0])
        sent = int(decoded != w)
        decided, llr, s = _phase2_one(scheme, sent, int(s_mid[0]), u[0, cfg.n_hat:].tolist())
        traces.append(EpochTrace(epoch, decoded, sent == 0, sent, decided, llr))
        if decided == 0:
            return traces, decoded, False
    return traces, decoded, True


# ---------------------------------------------------------------------------
# Monte-Carlo driver

def _wilson_ci(k: int, n: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class SimReport:
    trials: int
    mean_epochs: float
    mean_T: float
    empirical_rate: float
    error_count: int
    p_e_hat: float
    p_e_ci: tuple
    phase1_error_rate: float | None
    phase2_type0_rate: float | None        # P(decide deny | confirm sent)
    phase2_type1_rate: float | None        # P(decide confirm | deny sent)
    mean_llr_per_symbol_h0: float | None
    mean_llr_per_symbol_h1: float | None
    aborted_trials: int
    bound_checks: dict

    def to_json_dict(self) -> dict:
        return dict(asdict(self), p_e_ci=list(self.p_e_ci))    # fields in declared order


def simulate(scheme, trace_sink=None, jobs=1) -> SimReport:
    """Run config.trials independent transmissions of uniform random messages.

    trace_sink, if given, receives (trial_index, EpochTrace) for every epoch,
    ordered by (trial, epoch).  jobs is accepted and ignored: all trials run
    as rows of one array, and each epoch's data phase is decoded in one
    product over the trials still active, so results never depend on it.
    """
    cfg = scheme.config
    b, n, n_hat, w_total = cfg.trials, cfg.n, cfg.n_hat, cfg.message_count
    idx = np.arange(b)
    u = _rng.uniforms(cfg.seed, idx, 0, 2 + n)      # message, initial state, epoch 0
    w = np.minimum((u[:, 0] * w_total).astype(np.int64), w_total - 1)
    s = _draw_initial(scheme, u[:, 1])
    u = u[:, 2:]
    epochs_used = np.full(b, cfg.max_epochs)
    cols = []                                        # per epoch: trial, epoch, outcomes
    for epoch in range(cfg.max_epochs):
        if epoch:
            u = _rng.uniforms(cfg.seed, idx, 2 + epoch * n, n)
        decoded, s_mid, _ = _phase1_batch(scheme, w[idx], s, u[:, :n_hat])
        sent = (decoded != w[idx]).astype(np.int64)
        decided, s_end, llr = _phase2_batch(scheme, sent, s_mid, u[:, n_hat:])
        cols.append((idx, np.full(idx.size, epoch), decoded, sent, decided, llr))
        going = decided != 0
        epochs_used[idx[~going]] = epoch + 1
        idx, s = idx[going], s_end[going]
        if idx.size == 0:
            break
    trial, epoch, decoded, sent, decided, llr = map(np.concatenate, zip(*cols))
    order = np.argsort(trial, kind="stable")         # epoch-major -> (trial, epoch)
    if trace_sink is not None:
        rows = (a[order].tolist() for a in (trial, epoch, decoded, sent, decided, llr))
        for t, e, d, x, y, v in zip(*rows):
            trace_sink(t, EpochTrace(e, d, x == 0, x, y, v))
    ph1_decodes = trial.size
    ph1_errors = int(sent.sum())
    ack_sends = ph1_decodes - ph1_errors
    ack_denied = int(((sent == 0) & (decided == 1)).sum())
    deny_acked = int(((sent == 1) & (decided == 0)).sum())
    # per-symbol LLRs in (trial, epoch) order, so the float sums keep that order
    per_symbol = llr[order] / (cfg.n_tilde - 1)
    llr_h0 = per_symbol[sent[order] == 0]
    llr_h1 = per_symbol[sent[order] == 1]
    aborted = idx.size
    errors = deny_acked + aborted                    # a wrong message confirmed, or none
    mean_epochs = float(epochs_used.mean())
    mean_t = n * mean_epochs
    return SimReport(
        trials=b,
        mean_epochs=mean_epochs,
        mean_T=mean_t,
        empirical_rate=math.log(w_total) / mean_t,
        error_count=errors,
        p_e_hat=errors / b,
        p_e_ci=_wilson_ci(errors, b),
        phase1_error_rate=(ph1_errors / ph1_decodes) if ph1_decodes else None,
        phase2_type0_rate=(ack_denied / ack_sends) if ack_sends else None,
        phase2_type1_rate=(deny_acked / ph1_errors) if ph1_errors else None,
        mean_llr_per_symbol_h0=float(np.mean(llr_h0)) if llr_h0.size else None,
        mean_llr_per_symbol_h1=float(np.mean(llr_h1)) if llr_h1.size else None,
        aborted_trials=aborted,
        bound_checks=_bound_checks(b, errors, epochs_used, ph1_decodes, ph1_errors,
                                   ack_sends, ack_denied, ph1_errors, deny_acked),
    )


def _bound_checks(trials, errors, epochs_used, ph1_decodes, ph1_errors,
                  ack_sends, ack_denied, deny_sends, deny_acked) -> dict:
    """Empirical sanity bounds: error probability and epoch-count tail."""

    def se(p, n):
        return math.sqrt(max(p * (1.0 - p), 0.0) / n) if n else 0.0

    p_hat = ph1_errors / ph1_decodes if ph1_decodes else None
    p0_hat = ack_denied / ack_sends if ack_sends else None
    p1_hat = deny_acked / deny_sends if deny_sends else None
    out = {}
    applicable = all(v is not None and v > 0.0 for v in (p_hat, p0_hat, p1_hat))
    if applicable:
        denom = 1.0 - p_hat * p0_hat
        rhs = p_hat * p1_hat / denom
        dr_dp = p1_hat / (denom * denom)
        dr_dp1 = p_hat / denom
        dr_dp0 = p_hat * p_hat * p1_hat / (denom * denom)
        se_rhs = math.sqrt((dr_dp * se(p_hat, ph1_decodes)) ** 2
                           + (dr_dp1 * se(p1_hat, deny_sends)) ** 2
                           + (dr_dp0 * se(p0_hat, ack_sends)) ** 2)
        lhs = errors / trials
        slack = 3.0 * (se(lhs, trials) + se_rhs)
        out["pebound"] = {
            "applicable": True,
            "lhs": lhs,
            "rhs": rhs,
            "slack": slack,
            "pass": bool(lhs <= rhs + slack),
        }
    else:
        out["pebound"] = {"applicable": False, "pass": True}
    geo = []
    if p_hat is not None and p0_hat is not None:
        repeat = p_hat + p0_hat                      # union bound on a repeat event
        for k in (2, 3, 4):
            lhs = float((epochs_used >= k).mean())
            rhs = repeat ** (k - 1)
            se_lhs = se(lhs, trials)
            se_rep = math.sqrt(se(p_hat, ph1_decodes) ** 2 + se(p0_hat, ack_sends) ** 2)
            se_rhs = (k - 1) * repeat ** (k - 2) * se_rep if k >= 2 else 0.0
            geo.append({
                "k": k,
                "applicable": True,
                "lhs": lhs,
                "rhs": rhs,
                "slack": 3.0 * (se_lhs + se_rhs),
                "pass": bool(lhs <= rhs + 3.0 * (se_lhs + se_rhs)),
            })
    else:
        geo.append({"applicable": False, "pass": True})
    out["geometric_domination"] = geo
    return out
