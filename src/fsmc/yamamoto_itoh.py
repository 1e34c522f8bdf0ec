"""Variable-length transmission with per-epoch confirm/deny verification.

Each epoch spends n channel uses: a length-ceil(gamma n) data phase carrying
one of message_count messages through a random state-feedback codebook, then
a verification phase in which the transmitter, knowing whether the receiver
decoded correctly, plays one of two deterministic state maps (f0 = confirm,
f1 = deny).  The receiver thresholds the log-likelihood ratio of the observed
(state, output) transitions; a deny repeats the epoch with the channel state
carried over.  Decoding errors require a deny to slip past the verifier, so
the error exponent is governed by the divergence coefficient D rather than
the sphere-packing bound.  When D = +inf the threshold is +inf: a confirm is
accepted only on a transition the deny map cannot produce, whose LLR is +inf.

All randomness is drawn from per-trial Philox substreams (seed, trial):
trial t reads stream offsets 0-1 (message, initial state) and offsets
[2 + e n, 2 + (e+1) n) in epoch e.  simulate steps a fixed pool of at most
_POOL trials as rows of arrays, admitting trial ids in order as others stop,
and reads each row's window by counter; the data phase decodes by a rule
that no block size or batch shape can change (_decode), so a report never
depends on how work is scheduled, and memory is set by _POOL and the decode
block constants plus 18 bytes a trial-epoch (see simulate).
"""
from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng as _rng
from .channel import ChannelError
from .planner import BurnashevResult, CapacityResult, burnashev_coefficient, capacity

MESSAGE_CAP = 1 << 16
_MESSAGE_BLOCK = 4096             # codewords per block: drawn, and indicator in the decode screen
_SCORE_BLOCK = 1 << 20            # entries per score, per-use and codebook-draw block
_POOL = 1 << 12                   # trials simulate steps at once: its working set


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
    confirm_threshold: float | None = None   # accept iff LLR/n_tilde >= this; None: -D/4,
    # and +inf when D = +inf, where build_scheme refuses any value given
    max_epochs: int = 64
    message_count: int = field(init=False)
    n_hat: int = field(init=False)
    n_tilde: int = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ChannelError("rate must be positive and finite")
        if not 0.0 < self.gamma < 1.0:
            raise ChannelError("gamma must lie in (0, 1)")
        if self.trials < 1 or self.max_epochs < 1:
            raise ChannelError("trials and max_epochs must be positive")
        if self.confirm_threshold is not None and math.isnan(self.confirm_threshold):
            raise ChannelError("confirm_threshold must not be nan")
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
        # accept iff llr / n_tilde >= this: with D = +inf only an LLR of +inf,
        # a transition the deny map cannot produce (draws never pick p = 0)
        self.confirm_threshold = threshold
        S, X, Y = ch.n_states, ch.n_inputs, ch.n_outputs
        self._S, self._X, self._Y = S, X, Y
        k = ch.kernel
        flat = k.reshape(S, X, S * Y)
        self._pair = _rng.inverse_cdf(flat)                 # row s X + x: the law of (v, y)
        self._init = _rng.inverse_cdf(ch.initial_dist)      # row 0
        self._logk = np.where(flat > 0.0, np.log(np.maximum(flat, 1e-300)), -1e18)  # (S, X, SY)
        on_f = (np.arange(S), np.array([exp_result.f0, exp_result.f1]))   # [bit, s]: f_bit(s)
        # verify phase: entry bit S + s is the pair row of s and f_bit(s)
        self._verify_rows = (on_f[0] * X + on_f[1]).ravel()
        p0, p1 = k[on_f]                            # P(v, y | s, f0(s)), and under f1
        llr = np.zeros((S, S, Y))
        both = (p0 > 0.0) & (p1 > 0.0)
        llr[both] = np.log(p0[both]) - np.log(p1[both])
        llr[(p0 > 0.0) & (p1 == 0.0)] = math.inf
        llr[(p0 == 0.0) & (p1 > 0.0)] = -math.inf
        self._llr_tab = llr
        self._codebook = None

    # -- lazy codebook ------------------------------------------------------

    @property
    def codebook(self) -> np.ndarray:
        """(message_count, n_hat, S) int8 array of inputs, drawn i.i.d. from pi*
        in place, in blocks whose temporaries stay within _SCORE_BLOCK entries."""
        if self._codebook is None:
            cfg = self.config
            n_hat, S = cfg.n_hat, self._S
            policy = _rng.inverse_cdf(self.capacity_result.optimal_policy.matrix())   # row s
            gen = _rng.stream(cfg.seed, _rng.CODEBOOK_STREAM)
            cb = np.empty((cfg.message_count, n_hat, S), dtype=np.int8)
            m_blk = max(1, min(_MESSAGE_BLOCK, cb.shape[0], _SCORE_BLOCK // (n_hat * S)))
            u = np.empty((m_blk, n_hat, S))     # one buffer: per-block ones get trimmed, re-faulted
            for lo in range(0, cb.shape[0], m_blk):   # blocks bound memory, not the draws
                part = cb[lo:lo + m_blk]
                part[...] = _rng.draw(*policy, np.arange(S), gen.random(out=u[:len(part)]))
            self._codebook = cb
        return self._codebook


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
    threshold = config.confirm_threshold
    if exp_result.D.is_inf and threshold is not None:
        raise ChannelError("confirm threshold does not apply when D = +inf: only LLR +inf confirms")
    if threshold is None:
        threshold = math.inf if exp_result.D.is_inf else -exp_result.D.value / 4.0
    return Scheme(ch, config, cap_result, exp_result, float(threshold))


# ---------------------------------------------------------------------------
# vectorized batch engine

def _phase1_batch(scheme, w, s0, u):
    """Data phase for a batch: returns (decoded, end_state, state_paths); the
    (b, n_hat) paths are stored use by use, so the walk writes contiguous rows."""
    b, n_hat = u.shape
    S, X = scheme._S, scheme._X
    ss = np.empty((n_hat, b), dtype=np.int64).T
    obs = np.empty((n_hat, b), dtype=np.int64).T    # flat (next state, output) cells
    s = s0.astype(np.int64)
    at = w * scheme.codebook[0].size                # flat index of each row's codeword
    cb = scheme.codebook.reshape(-1)
    for t in range(n_hat):
        x = cb.take(at + t * S + s)
        obs[:, t] = _rng.draw(*scheme._pair, s * X + x, u[:, t])
        ss[:, t] = s
        s = obs[:, t] // scheme._Y
    return _decode(scheme, ss, obs, w), s, ss


def _exact_scores(scheme, ss, obs, w, table=None):
    """Per row, the in-order (cumsum) sum of table[s_t, cb[w, t, s_t], obs_t] (table:
    _logk): the terms are gathered use by use, (n_hat, b), and added a use at a time."""
    cb, ss, obs = scheme.codebook, ss.T, obs.T
    x = cb.reshape(-1).take(w * cb[0].size + np.arange(ss.shape[0])[:, None] * scheme._S + ss)
    terms = (scheme._logk if table is None else table).reshape(-1).take(
        (ss * scheme._X + x) * (scheme._S * scheme._Y) + obs)
    acc = terms[0].copy()
    for row in terms[1:]:
        acc += row
    return acc


def _screen_width(scheme, n_hat):
    return n_hat * scheme._S * (scheme._X - 1)      # _decode's product: use, state, input > 0


def _decode(scheme, ss, obs, hint):
    """Maximum-likelihood message per row of visited states ss and observed
    (next state, output) cells obs.

    The rule: codeword w scores the left-to-right float sum over t of
    _logk[s_t, cb[w, t, s_t], obs_t]; the lowest index among exact maxima
    wins.  A float32 BLAS screen over fixed blocks of messages (outer) and
    trials (inner) keeps every (trial, w) that could be such a maximum, and
    only trials left with several are rescored by the rule, so neither block
    sizes nor BLAS rounding can change a decode, and memory is set by the
    block constants.  The screen scores against input 0.  With l = _logk
    clamped below at F = n_hat * min(finite _logk) - 1, a score less the
    sum of l[s_t, 0, o_t] (common to all codewords) is the sum of delta =
    l[s_t, x_t, o_t] - l[s_t, 0, o_t], zero where x_t = 0.  The clamp hides
    no winner: the sent codeword hint scores at least n_hat * min(finite
    _logk) > F, one with an impossible use at most F.  The float64 delta-sum
    of hint seeds each trial's running maximum.
    """
    cb, (b, n_hat), S, X = scheme.codebook, ss.shape, scheme._S, scheme._X
    w_total, k, n_cells = cb.shape[0], _screen_width(scheme, n_hat), S * scheme._Y
    m_blk = min(_MESSAGE_BLOCK, w_total)
    t_blk = max(1, _SCORE_BLOCK // max(m_blk, k))
    ell = np.maximum(scheme._logk, n_hat * scheme._logk[scheme._logk > -1e18].min() - 1.0)
    delta = ell - ell[:, :1]                        # (S, X, SY), zero at input 0
    # A trial's screen score sums at most n_hat nonzero products of a float32
    # delta and 1, signed, the one at use t at most m_t = max_x |delta[s_t, x,
    # o_t]| in size, so in any order it lies within about (n_hat + 1) * eps/2
    # * sum_t m_t of the exact sum (eps of float32; float64 sums are far
    # closer).  The winner's screen score is then at most twice that below a
    # running maximum: tol has a fourfold margin, and its + 1 covers float64.
    size = np.abs(delta).max(axis=1).reshape(-1).take(ss.T * n_cells + obs.T).sum(axis=0)
    tol = 4.0 * (n_hat + 2) * float(np.finfo(np.float32).eps) * (size + 1.0)
    best = _exact_scores(scheme, ss, obs, hint, delta)
    # row s*SY + o holds delta[s, x, o] at column (s', x - 1), zero unless s' = s
    per_use = np.zeros((S, n_cells, S, X - 1), dtype=np.float32)
    per_use[np.arange(S), :, np.arange(S), :] = delta[:, 1:].transpose(0, 2, 1)
    per_use = per_use.reshape(-1, S * (X - 1))
    e = np.empty((m_blk, n_hat, S, X - 1), dtype=np.float32)
    found = []
    for lo_w in range(0, w_total, m_blk):
        m = min(m_blk, w_total - lo_w)
        np.equal(cb[lo_w:lo_w + m, :, :, None], np.arange(1, X, dtype=cb.dtype), out=e[:m])
        e_t = e[:m].reshape(m, k).T
        for lo_t in range(0, b, t_blk):
            rows = slice(lo_t, lo_t + t_blk)
            sc = per_use.take(ss[rows] * n_cells + obs[rows], axis=0).reshape(-1, k) @ e_t
            top, floor, slack = sc.max(axis=1), best[rows], tol[rows]
            hot = np.flatnonzero(top >= floor - slack)   # hold candidates
            top = best[hot + lo_t] = np.maximum(floor[hot], top[hot])
            sc = sc[hot]
            flat = np.flatnonzero(sc >= (top - slack[hot])[:, None])
            r, c = divmod(flat, m)
            found.append((hot[r] + lo_t, c + lo_w))
    trial, cand = map(np.concatenate, zip(*found))
    decoded = np.empty(b, dtype=np.int64)
    many = np.bincount(trial, minlength=b)[trial] > 1
    decoded[trial[~many]] = cand[~many]
    trial, cand = trial[many], cand[many]
    exact = _exact_scores(scheme, ss[trial], obs[trial], cand)
    order = np.lexsort((cand, -exact, trial))
    trial, cand = trial[order], cand[order]
    first = np.diff(trial, prepend=-1) != 0         # each trial's winner leads
    decoded[trial[first]] = cand[first]
    return decoded


def _phase2_batch(scheme, bits, s0, u):
    """Verification phase: returns (decided, end_state, llr)."""
    n_tilde, S, n_cells = scheme.config.n_tilde, scheme._S, scheme._S * scheme._Y
    tab = scheme._llr_tab.reshape(-1)               # (s, v, y) at s S Y + cell of (v, y)
    s = s0.astype(np.int64)
    llr = np.zeros(u.shape[0])
    for t in range(n_tilde):
        cell = _rng.draw(*scheme._pair, scheme._verify_rows.take(bits * S + s), u[:, t])
        if t < n_tilde - 1:                          # the last next-state is unobserved
            llr = llr + tab.take(s * n_cells + cell)
        s = cell // scheme._Y
    return np.where(llr / n_tilde >= scheme.confirm_threshold, 0, 1), s, llr


def _phase2_one(scheme, bit, s, u):
    """_phase2_batch for one trial: each step's cell is drawn for every state
    up front, the walk picks the visited ones, and the LLR is their in-order
    (cumsum) sum; returns (decided, llr, end_state)."""
    S, n_cells = scheme._S, scheme._S * scheme._Y
    rows = scheme._verify_rows[bit * S:(bit + 1) * S, None]
    cells = _rng.draw(*scheme._pair, rows, u).tolist()     # cells[s][t]
    at = []                                         # (s, cell) at s S Y + cell, as in _llr_tab
    for t in range(len(u)):
        c = cells[s][t]
        at.append(s * n_cells + c)
        s = c // scheme._Y
    # the last next-state is unobserved: its cell adds no term
    llr = float(np.cumsum(scheme._llr_tab.reshape(-1).take(at[:-1]))[-1])
    return (0 if llr / len(u) >= scheme.confirm_threshold else 1), llr, s


def _draw_initial(scheme, u):
    return _rng.draw(*scheme._init, 0, u)


def _index(value, count: int, what: str) -> int:
    """value as an int in [0, count); anything else, bools too, is refused."""
    try:
        i = -1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        i = -1
    if not 0 <= i < count:
        raise ChannelError(f"{what} must be an integer in [0, {count})")
    return i


def _start(scheme, gen, start_state) -> int:
    """start_state if given (checked), else drawn with one uniform from gen."""
    if start_state is None:
        return int(_draw_initial(scheme, gen.random()))
    return _index(start_state, scheme._S, "start state")


# ---------------------------------------------------------------------------
# single-trial entry points

def run_phase1(scheme, w: int, gen, start_state: int | None = None):
    """One data phase; returns (decoded message, visited states).

    Draws one uniform for the initial state when start_state is None, then
    n_hat channel uses from gen.
    """
    w = _index(w, scheme.config.message_count, "message index")
    s0 = _start(scheme, gen, start_state)
    u = gen.random((1, scheme.config.n_hat))
    decoded, s_end, ss = _phase1_batch(scheme, np.array([w]), np.array([s0]), u)
    states = [int(v) for v in ss[0]] + [int(s_end[0])]
    return int(decoded[0]), states


def run_phase2(scheme, bit: int, gen, start_state: int | None = None):
    """One verification phase; returns (decided bit, llr, end state)."""
    bit = _index(bit, 2, "bit")
    s0 = _start(scheme, gen, start_state)
    return _phase2_one(scheme, bit, s0, gen.random(scheme.config.n_tilde))


def run_trial(scheme, w: int, gen, start_state: int | None = None):
    """Epochs until a confirm is accepted; returns (traces, decoded, aborted).

    Uses one uniform for the initial state (unless given) and n per epoch:
    each epoch is run_phase1 then run_phase2, the channel state carried over.
    """
    s = _start(scheme, gen, start_state)
    traces = []
    for epoch in range(scheme.config.max_epochs):
        decoded, states = run_phase1(scheme, w, gen, s)
        sent = int(decoded != w)
        decided, llr, s = run_phase2(scheme, sent, gen, states[-1])
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


def simulate(scheme, trace_sink=None) -> SimReport:
    """Run config.trials independent transmissions of uniform random messages.

    trace_sink, if given, receives (trial_index, EpochTrace) for every epoch,
    ordered by (trial, epoch).

    Trials run in a pool of at most _POOL rows, one epoch per step; trials
    that stop leave it and the next trial ids take their rows, so the working
    set (uniform windows, paths, decode blocks) is set by _POOL, not by the
    trial count.  A row's uniforms are read by counter from its own
    (seed, trial) stream, and the data phase decodes by a rule that no batch
    shape can change (_decode), so every trial draws and decides the same
    whichever rows it shares a step with.  All that grows with the trial
    count is one record of each trial-epoch: trial id, sent bit, LLR and
    decided bit (18 bytes, and about twice that while it is sorted at the end);
    with a trace_sink it also holds the epoch and decode.  Every count is
    read off it: epochs used per trial, the (sent, decided) tallies and the
    aborted trials, those whose last epoch was denied; one stable sort puts
    it in (trial, epoch) order, in which the mean LLRs are summed and traces
    emitted.
    """
    cfg = scheme.config
    b, n, n_hat, w_total = cfg.trials, cfg.n, cfg.n_hat, cfg.message_count
    cap = min(_POOL, b)
    ids, w, s, epoch = (np.empty(cap, dtype=np.int64) for _ in range(4))
    steps = []                       # per step: trial ids, sent, llr, decided (+ trace columns)
    live = admitted = 0
    while live or admitted < b:
        k = min(cap - live, b - admitted)
        new = slice(live, live + k)  # free rows take the next trial ids
        ids[new] = np.arange(admitted, admitted + k)
        epoch[new] = 0
        live, admitted = live + k, admitted + k
        pool = slice(0, live)
        # row i reads offsets [e n, e n + 2 + n): epoch e's n uniforms come
        # last, after the message and initial state (used at e = 0 only)
        u = _rng.uniforms(cfg.seed, ids[pool], epoch[pool] * n, 2 + n)
        w[new] = np.minimum((u[new, 0] * w_total).astype(np.int64), w_total - 1)
        s[new] = _draw_initial(scheme, u[new, 1])
        decoded, s_mid, _ = _phase1_batch(scheme, w[pool], s[pool], u[:, 2:2 + n_hat])
        sent = (decoded != w[pool]).astype(np.int64)
        decided, s_end, llr = _phase2_batch(scheme, sent, s_mid, u[:, 2 + n_hat:])
        step = (ids[pool].copy(), sent.astype(np.int8), llr, decided.astype(np.int8))
        steps.append(step if trace_sink is None else step + (epoch[pool].copy(), decoded))
        epoch[pool] += 1
        going = (decided != 0) & (epoch[pool] < cfg.max_epochs)
        live = int(going.sum())      # keep the survivors in order, at the front
        for a, v in ((ids, ids[pool]), (w, w[pool]), (s, s_end), (epoch, epoch[pool])):
            a[:live] = v[going]
    trial, sent, llr, decided, *traced = map(np.concatenate, zip(*steps))
    steps.clear()
    hist = np.bincount(np.bincount(trial))           # trials by epochs used
    outcomes = np.bincount(2 * sent + decided, minlength=4)   # epochs by (sent, decided)
    ack_taken, ack_denied, deny_acked, deny_denied = outcomes.tolist()
    aborted = b - ack_taken - deny_acked   # a trial stops at its one accepted epoch, if any
    order = np.argsort(trial, kind="stable")         # step-major -> (trial, epoch)
    sent, llr = sent[order], llr[order]
    if trace_sink is not None:
        rows = (a[order].tolist() for a in (trial, *traced, decided))
        for t, e, d, y, x, v in zip(*rows, sent.tolist(), llr.tolist()):
            trace_sink(t, EpochTrace(e, d, x == 0, x, y, v))
    # per-symbol LLR means in (trial, epoch) order, so the float sums keep that order
    per_symbol = llr / (cfg.n_tilde - 1)
    llr_h0 = per_symbol[sent == 0]
    llr_h1 = per_symbol[sent == 1]
    ack_sends, ph1_errors = ack_taken + ack_denied, deny_acked + deny_denied
    decodes = ack_sends + ph1_errors
    errors = deny_acked + aborted                    # a wrong message confirmed, or none
    mean_epochs = trial.size / b
    mean_t = n * mean_epochs
    return SimReport(
        trials=b,
        mean_epochs=mean_epochs,
        mean_T=mean_t,
        empirical_rate=math.log(w_total) / mean_t,
        error_count=errors,
        p_e_hat=errors / b,
        p_e_ci=_wilson_ci(errors, b),
        phase1_error_rate=(ph1_errors / decodes) if decodes else None,
        phase2_type0_rate=(ack_denied / ack_sends) if ack_sends else None,
        phase2_type1_rate=(deny_acked / ph1_errors) if ph1_errors else None,
        mean_llr_per_symbol_h0=float(np.mean(llr_h0)) if llr_h0.size else None,
        mean_llr_per_symbol_h1=float(np.mean(llr_h1)) if llr_h1.size else None,
        aborted_trials=aborted,
        bound_checks=_bound_checks(b, errors, hist, decodes, ph1_errors,
                                   ack_sends, ack_denied, deny_acked),
    )


def _bound_checks(trials, errors, epochs_hist, ph1_decodes, ph1_errors,
                  ack_sends, ack_denied, deny_acked) -> dict:
    """Empirical sanity bounds: error probability and epoch-count tail.
    epochs_hist[k] counts the trials that used k epochs; a deny is sent
    exactly when phase 1 errs, so ph1_errors also counts deny sends."""

    def se(p, n):
        return math.sqrt(max(p * (1.0 - p), 0.0) / n) if n else 0.0

    p_hat = ph1_errors / ph1_decodes if ph1_decodes else None
    p0_hat = ack_denied / ack_sends if ack_sends else None
    p1_hat = deny_acked / ph1_errors if ph1_errors else None
    out = {}
    applicable = all(v is not None and v > 0.0 for v in (p_hat, p0_hat, p1_hat))
    if applicable:
        denom = 1.0 - p_hat * p0_hat
        rhs = p_hat * p1_hat / denom
        dr_dp = p1_hat / (denom * denom)
        dr_dp1 = p_hat / denom
        dr_dp0 = p_hat * p_hat * p1_hat / (denom * denom)
        se_rhs = math.sqrt((dr_dp * se(p_hat, ph1_decodes)) ** 2
                           + (dr_dp1 * se(p1_hat, ph1_errors)) ** 2
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
            lhs = int(epochs_hist[k:].sum()) / trials
            rhs = repeat ** (k - 1)
            se_lhs = se(lhs, trials)
            se_rep = math.sqrt(se(p_hat, ph1_decodes) ** 2 + se(p0_hat, ack_sends) ** 2)
            se_rhs = (k - 1) * repeat ** (k - 2) * se_rep
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
