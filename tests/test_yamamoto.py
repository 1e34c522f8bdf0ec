"""Epoch-based variable-length scheme: config, decoding, verification, runs."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import fsmc
from fsmc import ChannelError, SchemeConfig
from fsmc import yamamoto_itoh as yi
from fsmc import rng as frng
from conftest import (make_bsc, make_random_channel, make_sparse_zero_error, make_z,
                      sparse_channel)

# frozen (see test_oracles)
BSC_D = 1.7577796618689758

# frozen small-run pin (first calibration run, n=20, 200 trials, seed 0)
SIM_PIN_MEAN_EPOCHS = 1.13
SIM_PIN_ERRORS = 2
SIM_PIN_MEAN_T = 22.599999999999998
SIM_PIN_LLR_H0 = 1.8135821908171963


def _bsc_scheme(n=20, rate=0.18, gamma=0.6, trials=200, seed=0, **kw):
    ch = make_bsc(0.1)
    cfg = SchemeConfig(rate=rate, gamma=gamma, n=n, trials=trials, seed=seed, **kw)
    return fsmc.build_scheme(ch, cfg)


# ---------------------------------------------------------------------------
# configuration arithmetic

def test_message_count_pins():
    assert SchemeConfig(rate=0.18, gamma=0.6, n=20).message_count == 20
    assert SchemeConfig(rate=0.18, gamma=0.6, n=40).message_count == 1097
    assert SchemeConfig(rate=0.18, gamma=0.6, n=80).message_count == 65536


def test_message_count_floor_guard():
    # 40 * 0.175 is 7 up to float slop; floor must not drop to 6
    assert SchemeConfig(rate=0.175, gamma=0.6, n=40).message_count == 1097
    # minimum of two messages even at tiny rates
    assert SchemeConfig(rate=1e-4, gamma=0.5, n=20).message_count == 2


def test_block_split_pins():
    cfg = SchemeConfig(rate=0.18, gamma=0.6, n=20)
    assert (cfg.n_hat, cfg.n_tilde) == (12, 8)
    cfg = SchemeConfig(rate=0.1, gamma=0.3, n=10)
    assert (cfg.n_hat, cfg.n_tilde) == (3, 7)
    # ceil slop guard: 0.6 * 35 = 21 exactly
    cfg = SchemeConfig(rate=0.1, gamma=0.6, n=35)
    assert cfg.n_hat == 21


def test_config_validation():
    with pytest.raises(ChannelError):
        SchemeConfig(rate=0.0, gamma=0.5, n=20)
    with pytest.raises(ChannelError):
        SchemeConfig(rate=0.1, gamma=1.0, n=20)
    with pytest.raises(ChannelError):
        SchemeConfig(rate=0.1, gamma=0.95, n=20)   # verify phase shorter than 2
    with pytest.raises(ChannelError):
        SchemeConfig(rate=0.1, gamma=0.5, n=20, trials=0)
    with pytest.raises(ChannelError):
        SchemeConfig(rate=0.1, gamma=0.5, n=20, confirm_threshold=math.nan)
    for rule in (math.inf, -math.inf):                 # accept nothing, or everything
        assert SchemeConfig(rate=0.1, gamma=0.5, n=20, confirm_threshold=rule).n_tilde == 10


def test_build_scheme_preconditions():
    ch = make_bsc(0.1)
    with pytest.raises(ChannelError):
        fsmc.build_scheme(ch, SchemeConfig(rate=0.5, gamma=0.6, n=20))  # rate >= C
    with pytest.raises(ChannelError):
        fsmc.build_scheme(ch, SchemeConfig(rate=0.18, gamma=0.4, n=20))  # gamma <= R/C


def test_threshold_defaults_to_quarter_of_divergence():
    scheme = _bsc_scheme()
    assert abs(scheme.confirm_threshold - (-BSC_D / 4.0)) < 1e-12
    custom = _bsc_scheme(confirm_threshold=-0.5)
    assert custom.confirm_threshold == -0.5


def test_zero_error_channel_uses_forbidden_transition_rule():
    """With D = +inf the accept level is +inf, set by build_scheme alone: a
    threshold given there is refused, not kept and ignored."""
    for ch in (make_z(), make_sparse_zero_error()):
        cap, exp = fsmc.capacity(ch), fsmc.burnashev_coefficient(ch)
        assert exp.D.is_inf
        cfg = SchemeConfig(rate=0.3 * cap.C, gamma=0.6, n=20)
        assert fsmc.build_scheme(ch, cfg, cap, exp).confirm_threshold == math.inf
        for threshold in (5.0, -1.0, 0.0, math.inf, -math.inf):
            cfg_t = dataclasses.replace(cfg, confirm_threshold=threshold)
            with pytest.raises(ChannelError, match="does not apply when D = \\+inf"):
                fsmc.build_scheme(ch, cfg_t, cap, exp)


# ---------------------------------------------------------------------------
# codebook

def test_codebook_deterministic_and_distributed():
    s1 = _bsc_scheme(seed=42)
    s2 = _bsc_scheme(seed=42)
    assert np.array_equal(s1.codebook, s2.codebook)
    s3 = _bsc_scheme(seed=43)
    assert not np.array_equal(s1.codebook, s3.codebook)
    cfg = s1.config
    assert s1.codebook.shape == (cfg.message_count, cfg.n_hat, 1)
    # inputs are drawn from the capacity-optimal per-state law (uniform here)
    frac = (s1.codebook == 1).mean()
    assert abs(frac - 0.5) < 0.1


def test_codebook_uses_dedicated_stream():
    """Trial streams and the codebook stream must not alias."""
    cfg = SchemeConfig(rate=0.18, gamma=0.6, n=20, seed=7)
    g_trial = frng.stream(7, 0)
    g_code = frng.stream(7, frng.CODEBOOK_STREAM)
    assert g_trial.random(4).tolist() != g_code.random(4).tolist()


# (channel, rate, n, seed, sha256 of the codebook bytes), recorded from the
# codebook drawn in blocks of 4096 codewords whatever their length
MULTI_STATE_CODEBOOKS = [
    ("isi", 0.15, 60, 11, "9cbd915b53f8b032e8b8851c2fc2af28d4b1b6f2b5fe366411ffa5cc73dc1911"),
    (1, 0.2, 40, 101, "dbf51bd18135f4c84c1a5af69bbc35aa681cd0d8e19adc687d0394d5d0dc7200"),
    (14, 0.08, 90, 114, "0e3f45807a637f7e3a40511f243d7234e59fbd3ce85d366a8771a5b1a0929b7d"),
    (18, 0.025, 280, 118, "f606ecf79aa5ec09ee32a56ee66967d3d0fae036f83a7b0e71838b01a184cb12"),
    (39, 0.16, 50, 139, "dbf7928176a5f87fda9bf6f849fd6ec8e8ad9ebfeace5f267de95355df410c85"),
]


@pytest.mark.parametrize("name, rate, n, seed, digest", MULTI_STATE_CODEBOOKS)
def test_multi_state_codebooks_are_pinned(monkeypatch, name, rate, n, seed, digest):
    """The two-state ISI example (8103 x 36 x 2) and sparse channels of 2 to
    8 states, two with three inputs: the pinned bytes at the default block
    budget and at budgets of one and of a few codewords per block."""
    ch = fsmc.make_example(fsmc.gamma_params(0.5)) if name == "isi" else sparse_channel(name)
    assert ch.n_states >= 2
    cap, exp = fsmc.capacity(ch), fsmc.burnashev_coefficient(ch)
    cfg = SchemeConfig(rate=rate, gamma=0.6, n=n, trials=1, seed=seed)
    for budget in (yi._SCORE_BLOCK, 1000, 1):
        monkeypatch.setattr(yi, "_SCORE_BLOCK", budget)
        cb = fsmc.build_scheme(ch, cfg, cap, exp).codebook
        assert cb.shape == (cfg.message_count, cfg.n_hat, ch.n_states) and cb.dtype == np.int8
        assert hashlib.sha256(cb.tobytes()).hexdigest() == digest, budget


def test_codebook_build_memory_is_bounded_by_the_score_block(monkeypatch):
    """The codebook is drawn in place, a block of at most _SCORE_BLOCK
    entries at a time: the build's traced peak is the M n_hat S int8 array
    plus one block's float64 uniforms and intp cells, and a third such
    block for the compare mask and numpy's 64 KB ufunc buffers; not a list of
    blocks, their concatenated copy and 4096-codeword temporaries."""
    ch = fsmc.make_example(fsmc.gamma_params(0.5))
    scheme = fsmc.build_scheme(ch, SchemeConfig(rate=0.15, gamma=0.6, n=60, trials=1, seed=11))
    monkeypatch.setattr(yi, "_SCORE_BLOCK", 1 << 14)
    tracemalloc.start()
    try:
        cb = scheme.codebook
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cb.shape[0] // (yi._SCORE_BLOCK // cb[0].size) >= 16       # blocks drawn
    assert peak <= cb.nbytes + 3 * 8 * yi._SCORE_BLOCK, (peak, cb.nbytes)


# ---------------------------------------------------------------------------
# data-phase decoding: exact maximum likelihood

def _brute_force_ml(scheme, states, cells):
    """The decode rule term by term for one trial: each codeword's
    left-to-right sum of scheme._logk terms on the visited states and the
    observed flat (next state, output) cells; strict > keeps the lowest index
    among the exact maxima."""
    logk = scheme._logk.tolist()
    best_w, best_ll = 0, -math.inf
    for w, word in enumerate(scheme.codebook.tolist()):
        ll = 0.0
        for t, (s, o) in enumerate(zip(states, cells)):
            ll += logk[s][word[t][s]][o]
        if ll > best_ll:
            best_w, best_ll = w, ll
    return best_w


def test_run_phase1_contract():
    for seed in range(4):
        ch = make_random_channel(seed, n_states=2, n_inputs=2, n_outputs=2)
        rate = 0.5 * fsmc.capacity(ch).C
        cfg = SchemeConfig(rate=rate, gamma=0.6, n=10, seed=seed)
        scheme = fsmc.build_scheme(ch, cfg)
        gen = frng.stream(seed, 1234)
        for _ in range(25):
            w = int(gen.integers(cfg.message_count))
            decoded, states = fsmc.run_phase1(scheme, w, gen, start_state=0)
            assert 0 <= decoded < cfg.message_count
            assert len(states) == cfg.n_hat + 1
        with pytest.raises(ChannelError):
            fsmc.run_phase1(scheme, cfg.message_count, gen)


def test_phase1_batch_is_exact_ml_on_enumerated_observations():
    """Drive _phase1_batch with controlled uniforms and verify the decision
    against brute-force likelihood over all codewords."""
    ch = make_random_channel(3, n_states=2, n_inputs=2, n_outputs=2)
    cfg = SchemeConfig(rate=0.3 * fsmc.capacity(ch).C, gamma=0.5, n=12, seed=9)
    scheme = fsmc.build_scheme(ch, cfg)
    gen = frng.stream(11, 5)
    B = 40
    w = gen.integers(cfg.message_count, size=B)
    s0 = gen.integers(2, size=B)
    u = gen.random((B, cfg.n_hat))
    decoded, s_end, ss = yi._phase1_batch(scheme, w, s0, u)
    # replay the sampling to recover the actual observations
    for b in range(B):
        s = int(s0[b])
        pairs, states = [], []
        for t in range(cfg.n_hat):
            x = int(scheme.codebook[w[b], t, s])
            flat_cdf = np.cumsum(ch.kernel[s, x].ravel())
            idx = int((flat_cdf <= u[b, t]).sum())
            idx = min(idx, int(np.nonzero(ch.kernel[s, x].ravel() > 0)[0][-1]))
            v, y = divmod(idx, ch.n_outputs)
            states.append(s)
            pairs.append((v, y))
            s = v
        assert states == [int(z) for z in ss[b]]
        assert s == int(s_end[b])
        expect = _brute_force_ml(scheme, states, [v * ch.n_outputs + y for v, y in pairs])
        assert int(decoded[b]) == expect


def test_phase1_paths_are_stored_use_by_use(monkeypatch):
    """_phase1_batch hands the decoder, and returns, (b, n_hat) paths whose
    uses are contiguous rows: the walk writes one use of every trial at once."""
    scheme = fsmc.build_scheme(make_z(), SchemeConfig(rate=0.2, gamma=0.6, n=30, seed=3))
    ss, obs, _ = _sampled_inputs(monkeypatch, scheme, 50, 3)
    gen = frng.stream(3, 77)
    w, s0 = gen.integers(scheme.config.message_count, size=50), np.zeros(50, dtype=np.int64)
    paths = yi._phase1_batch(scheme, w, s0, gen.random((50, scheme.config.n_hat)))[2]
    for a in (ss, obs, paths):
        assert a.shape == (50, scheme.config.n_hat) and a.T.flags.c_contiguous


def _loop_scores(scheme, ss, obs, w, table):
    """_exact_scores in plain Python: per row, table terms added left to right
    from the first (as cumsum does)."""
    tab, cb, out = table.tolist(), scheme.codebook.tolist(), []
    for states, cells, word in zip(ss.tolist(), obs.tolist(), w.tolist()):
        terms = [tab[s][cb[word][t][s]][o] for t, (s, o) in enumerate(zip(states, cells))]
        acc = terms[0]
        for v in terms[1:]:
            acc += v
        out.append(acc)
    return np.array(out, dtype=np.float64)


@pytest.mark.parametrize("n_hat, n, gamma", [(1, 4, 0.25), (2, 5, 0.4), (48, 80, 0.6)])
@pytest.mark.parametrize("ch", [make_z, lambda: sparse_channel(39)], ids=["z", "sparse-39"])
def test_exact_scores_are_left_to_right_float_sums(ch, n_hat, n, gamma):
    """Bit for bit the Python loop, on C-ordered paths and on paths stored use
    by use, for empty and non-empty batches, with _logk (whose impossible
    cells hold the -1e18 clamp) and with a table of clamps and values whose
    sum depends on the order of the additions."""
    ch = ch()
    rate = min(0.5 * gamma * fsmc.capacity(ch).C, 2.5 / n)       # a few messages
    cfg = SchemeConfig(rate=rate, gamma=gamma, n=n, seed=2)
    scheme = fsmc.build_scheme(ch, cfg)
    assert cfg.n_hat == n_hat and (scheme._logk == -1e18).any()
    gen = np.random.default_rng(n_hat)
    shape = scheme._logk.shape
    scale = 10.0 ** gen.integers(-3, 4, size=shape)
    table = np.where(gen.random(shape) < 0.2, -1e18, gen.normal(size=shape) * scale)
    for b in (0, 1, 37):
        ss = gen.integers(scheme._S, size=(b, n_hat))
        obs = gen.integers(scheme._S * scheme._Y, size=(b, n_hat))
        w = gen.integers(cfg.message_count, size=b)
        for tab in (None, table):
            want = _loop_scores(scheme, ss, obs, w, scheme._logk if tab is None else tab)
            for s_, o_ in ((ss, obs), (np.ascontiguousarray(ss.T).T, np.ascontiguousarray(obs.T).T)):
                got = yi._exact_scores(scheme, s_, o_, w, tab)
                assert got.shape == (b,) and got.tobytes() == want.tobytes(), (b, tab is None)


BLOCKS = (1, 2, 7, 256, None)                        # None: one block holds all


def _decode_in_blocks(monkeypatch, scheme, ss, obs, hint, m_blk, t_blk):
    """yi._decode with message blocks of m_blk codewords and trial blocks of
    t_blk trials (the trial block follows from _SCORE_BLOCK and the screen
    width, which _decode takes from _screen_width)."""
    w_total, k = scheme.codebook.shape[0], yi._screen_width(scheme, ss.shape[1])
    m = w_total if m_blk is None else m_blk
    t = ss.shape[0] if t_blk is None else t_blk
    with monkeypatch.context() as mp:
        mp.setattr(yi, "_MESSAGE_BLOCK", m)
        mp.setattr(yi, "_SCORE_BLOCK", t * max(min(m, w_total), k))
        return yi._decode(scheme, ss, obs, hint).tolist()


def _sampled_inputs(monkeypatch, scheme, trials, seed):
    """(ss, obs, sent) that _phase1_batch hands the decoder for one batch."""
    seen = []
    decode = yi._decode

    def spy(scheme_, *args):
        seen.append(args)
        return decode(scheme_, *args)

    with monkeypatch.context() as mp:
        mp.setattr(yi, "_decode", spy)
        gen = frng.stream(seed, 77)
        cfg = scheme.config
        w = gen.integers(cfg.message_count, size=trials)
        s0 = gen.integers(scheme._S, size=trials)
        yi._phase1_batch(scheme, w, s0, gen.random((trials, cfg.n_hat)))
    return seen[0]


def _tie_rich_bsc(gen, trials):
    """BSC(0.1) with six data uses and all 64 binary words plus 20 repeats in
    a random order: every observation has many equal-likelihood codewords."""
    scheme = _bsc_scheme(n=10, rate=0.05, gamma=0.6)
    n_hat = scheme.config.n_hat
    words = np.array([[(v >> t) & 1 for t in range(n_hat)] for v in range(64)])
    words = np.concatenate([words, words[gen.integers(64, size=20)]])
    scheme._codebook = words[gen.permutation(len(words))].astype(np.int8)[:, :, None]
    ss = np.zeros((trials, n_hat), dtype=np.int64)
    obs = gen.integers(2, size=(trials, n_hat))
    return scheme, ss, obs, gen.integers(len(words), size=trials)


def _tie_rich_long_bsc(gen, trials):
    """BSC(0.1) with 48 data uses, where screen sums and their float32
    rounding are largest: for each observed word, three codewords two flips
    away at different places and a copy of one of them, plus random words.
    The three tie in exact arithmetic, and their left-to-right float sums
    are sometimes equal and sometimes apart by rounding."""
    scheme = _bsc_scheme(n=80, rate=0.05, gamma=0.6)
    n_hat = scheme.config.n_hat
    obs = gen.integers(2, size=(trials, n_hat))
    words = []
    for t in range(trials):
        for _ in range(3):
            words.append(obs[t].copy())
            words[-1][gen.choice(n_hat, 2, replace=False)] ^= 1
        words.append(words[-3])
    words = np.concatenate([words, gen.integers(2, size=(40, n_hat))])
    scheme._codebook = words[gen.permutation(len(words))].astype(np.int8)[:, :, None]
    ss = np.zeros((trials, n_hat), dtype=np.int64)
    return scheme, ss, obs, gen.integers(len(words), size=trials)


def _sparse_by_input(seed, S, X, Y):
    """Random channel whose zero (next state, output) cells depend on the
    input, so an observation can rule out some inputs and not others; every
    input keeps s -> s+1 alive, so every policy's chain is irreducible."""
    gen = np.random.default_rng([seed, S, X, Y])
    k = (gen.random((S, X, S, Y)) + 0.05) * (gen.random((S, X, S, Y)) < 0.6)
    k[np.arange(S), :, (np.arange(S) + 1) % S, 0] += 0.2
    k /= k.sum(axis=(2, 3), keepdims=True)
    labels = lambda pre, m: tuple(f"{pre}{i}" for i in range(m))
    return fsmc.channel_from_arrays(labels("s", S), labels("x", X), labels("y", Y), k,
                                    np.full(S, 1.0 / S))


def _swapped_z():
    """make_z with its inputs swapped: output 1 rules out input 1."""
    return fsmc.channel_from_arrays(("s",), ("0", "1"), ("0", "1"),
                                    [[[[0.3, 0.7]], [[1.0, 0.0]]]], [1.0])


def _sampled_case(monkeypatch, ch, n, seed, trials=40):
    cfg = SchemeConfig(rate=0.3 * fsmc.capacity(ch).C, gamma=0.6, n=n, seed=seed)
    scheme = fsmc.build_scheme(ch, cfg)
    return (scheme, *_sampled_inputs(monkeypatch, scheme, trials, seed))


def test_decode_does_not_depend_on_block_size(monkeypatch):
    """Every combination of message and trial blocks decodes exactly as the
    pure-Python rule: on tie-rich BSC codebooks (at 6 and at 48 data uses),
    on random sparse ISI channels with two and three inputs (one and two
    indicator columns), and on Z both ways round, whose -1e18 cells
    (impossible transitions) never win.  In make_z output 1 rules out input
    0, so the clamped cell is in every codeword's common part and delta is
    positive; in the swapped Z it rules out input 1 and delta is negative."""
    gen = np.random.default_rng(8)
    sparse = _sparse_channel(0)
    cases = [_tie_rich_bsc(gen, 40), _tie_rich_bsc(gen, 40), _tie_rich_long_bsc(gen, 40)]
    for ch, cfg in ((sparse, SchemeConfig(rate=0.05, gamma=0.8, n=60, seed=2)),
                    (make_z(), SchemeConfig(rate=0.2, gamma=0.6, n=30, seed=3)),
                    (_swapped_z(), SchemeConfig(rate=0.2, gamma=0.6, n=30, seed=4))):
        scheme = fsmc.build_scheme(ch, cfg)
        cases.append((scheme, *_sampled_inputs(monkeypatch, scheme, 40, cfg.seed)))
    cases.append(_sampled_case(monkeypatch, _sparse_by_input(1, 3, 3, 2), 30, 5))
    for scheme in (cases[-3][0], cases[-2][0]):
        assert scheme.codebook.shape[0] == 403 and (scheme._logk == -1e18).any()
    assert cases[-1][0]._X == 3 and (cases[-1][0]._logk == -1e18).any()
    for scheme, ss, obs, hint in cases:
        want = [_brute_force_ml(scheme, st, oo) for st, oo in zip(ss.tolist(), obs.tolist())]
        for m_blk in BLOCKS:
            for t_blk in BLOCKS:
                got = _decode_in_blocks(monkeypatch, scheme, ss, obs, hint, m_blk, t_blk)
                assert got == want, (scheme.ch.n_states, scheme._X, m_blk, t_blk)
        assert (yi._exact_scores(scheme, ss, obs, np.array(want)) > -1e17).all()


def _decode_keeping(monkeypatch, scheme, ss, obs, hint, m_blk=None, t_blk=None):
    """_decode_in_blocks, and per trial the candidates that the screen handed
    to the exact rescoring (none if it left the trial one candidate)."""
    trial_of = {row.tobytes(): t for t, row in enumerate(np.concatenate([ss, obs], axis=1))}
    kept = [set() for _ in range(ss.shape[0])]
    rescore = yi._exact_scores

    def spy(scheme_, ss_, obs_, w, table=None):
        if table is None:                           # the rescoring, not the seed
            for row, c in zip(np.concatenate([ss_, obs_], axis=1), w.tolist()):
                kept[trial_of[row.tobytes()]].add(c)
        return rescore(scheme_, ss_, obs_, w, table)

    with monkeypatch.context() as mp:
        mp.setattr(yi, "_exact_scores", spy)
        return _decode_in_blocks(monkeypatch, scheme, ss, obs, hint, m_blk, t_blk), kept


def _all_scores(scheme, ss, obs):
    """The rule's score of every codeword for every trial, (trials, messages)."""
    trials, words = ss.shape[0], scheme.codebook.shape[0]
    return yi._exact_scores(scheme, np.repeat(ss, words, axis=0), np.repeat(obs, words, axis=0),
                            np.tile(np.arange(words), trials)).reshape(trials, words)


def test_decode_screen_keeps_every_exact_maximum(monkeypatch):
    """At 48 data uses, in every block combination, each trial's screen keeps
    every codeword whose rule score equals the trial's maximum: a trial with
    one exact maximum decodes to it, and a trial with several hands them all
    to the exact rescoring."""
    scheme, ss, obs, hint = _tie_rich_long_bsc(np.random.default_rng(5), 40)
    scores = _all_scores(scheme, ss, obs)
    maxima = [set(np.flatnonzero(row == row.max()).tolist()) for row in scores]
    near = (scores >= scores.max(axis=1, keepdims=True) - 1e-9).sum(axis=1)
    assert sum(len(m) > 1 for m in maxima) >= 5
    assert (near > np.array([len(m) for m in maxima])).sum() >= 5   # ties apart by rounding
    for m_blk in BLOCKS:
        for t_blk in BLOCKS:
            got, kept = _decode_keeping(monkeypatch, scheme, ss, obs, hint, m_blk, t_blk)
            for t, m in enumerate(maxima):
                assert got[t] == min(m), (t, m_blk, t_blk)
                assert len(m) == 1 or m <= kept[t], (t, m_blk, t_blk)


def test_decode_screen_rescores_only_near_maxima_on_z(monkeypatch):
    """Clamping the impossible cells keeps the screen's slack at the scale
    of the finite scores: on Z both ways round, every codeword handed to the
    exact rescoring scores within 1e-6 of its trial's maximum, so none with
    an impossible use, and some trials do have several."""
    for ch, seed in ((make_z(), 3), (_swapped_z(), 4)):
        scheme = fsmc.build_scheme(ch, SchemeConfig(rate=0.2, gamma=0.6, n=30, seed=seed))
        ss, obs, hint = _sampled_inputs(monkeypatch, scheme, 200, seed)
        scores = _all_scores(scheme, ss, obs)
        got, kept = _decode_keeping(monkeypatch, scheme, ss, obs, hint)
        assert got == np.argmax(scores, axis=1).tolist()
        assert sum(len(k) > 1 for k in kept) >= 5
        for t, k in enumerate(kept):
            assert (scores[t, sorted(k)] >= scores[t].max() - 1e-6).all(), (seed, t)


@pytest.mark.parametrize("eps, rescored", [(1e-6, 3), (1e-300, 7)])
def test_decode_screen_slack_is_set_per_trial(monkeypatch, eps, rescored):
    """Each trial's screen slack scales with the deltas on its own path, not
    with the largest delta: on a one-state channel whose input 0 reaches
    output 2 with probability eps, simulate at 65536 messages rescores 3
    candidates at eps = 1e-6 and 7 at eps = 1e-300, where one slack from
    n_hat * max|delta| rescored 603."""
    ch = fsmc.channel_from_arrays(("s",), ("0", "1"), ("a", "b", "c"),
                                  [[[[0.5, 0.5 - eps, eps]], [[0.3, 0.6, 0.1]]]], [1.0])
    scheme = fsmc.build_scheme(ch, SchemeConfig(rate=0.04, gamma=0.85, n=300, trials=20, seed=1))
    assert scheme.config.message_count == 65536
    counted = []
    rescore = yi._exact_scores

    def spy(scheme_, ss, obs, w, table=None):
        if table is None:                           # the rescoring, not the seed
            counted.append(len(w))
        return rescore(scheme_, ss, obs, w, table)

    monkeypatch.setattr(yi, "_exact_scores", spy)
    fsmc.simulate(scheme)
    assert sum(counted) == rescored


@pytest.mark.parametrize("seed", range(8))
def test_decode_matches_brute_force_on_random_sparse_channels(monkeypatch, seed):
    """Random channels of 1-4 states, 2-3 inputs and 2-3 outputs whose zero
    cells depend on the input (redrawn while the capacity is zero, since no
    positive rate runs there)."""
    gen = np.random.default_rng([seed, 29])
    while True:
        S, X, Y = int(gen.integers(1, 5)), int(gen.integers(2, 4)), int(gen.integers(2, 4))
        ch = _sparse_by_input(int(gen.integers(1 << 30)), S, X, Y)
        if fsmc.capacity(ch).C > 0.0:
            break
    scheme, ss, obs, hint = _sampled_case(monkeypatch, ch, 24, seed)
    want = [_brute_force_ml(scheme, st, oo) for st, oo in zip(ss.tolist(), obs.tolist())]
    assert yi._decode(scheme, ss, obs, hint).tolist() == want


def test_decode_ties_go_to_the_lowest_index(monkeypatch):
    """Copies of the one best codeword on both sides of message-block
    boundaries: the first copy wins, whichever copy seeds the screen."""
    scheme = _bsc_scheme(n=10, rate=0.05, gamma=0.6)
    gen = np.random.default_rng(3)
    best = np.array([1, 0, 1, 1, 0, 0])
    words = gen.integers(2, size=(16, 6))
    words[(words == best).all(axis=1)] ^= 1          # no accidental copies
    words[[5, 9, 13]] = best
    scheme._codebook = words.astype(np.int8)[:, :, None]
    ss = np.zeros((3, 6), dtype=np.int64)
    obs = np.tile(best, (3, 1))
    hint = np.array([13, 9, 0])
    for m_blk in BLOCKS:
        for t_blk in BLOCKS:
            got = _decode_in_blocks(monkeypatch, scheme, ss, obs, hint, m_blk, t_blk)
            assert got == [5, 5, 5], (m_blk, t_blk)


def test_simulate_memory_does_not_grow_with_trials():
    """The decoder works in fixed blocks: at 65536 messages simulate's traced
    peak is a few MB at 100 and at 1000 trials, apart by one score block
    (at most 4 MB, filled to 100 of its 256 rows at 100 trials) and the
    pool's uniforms and paths.  One trials x messages float64 score matrix
    alone would take 0.5 GB at 1000 trials."""
    ch = make_bsc(0.1)
    cap, exp = fsmc.capacity(ch), fsmc.burnashev_coefficient(ch)
    peaks = []
    for trials in (100, 1000):
        cfg = SchemeConfig(rate=0.18, gamma=0.6, n=80, trials=trials, seed=3)
        scheme = fsmc.build_scheme(ch, cfg, cap, exp)
        assert scheme.codebook.shape[0] == 65536     # drawn before tracing
        tracemalloc.start()
        try:
            fsmc.simulate(scheme)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 6.0, peaks
    assert max(peaks) < 32.0, peaks


def test_simulate_memory_per_trial_is_small():
    """Trials run in a fixed pool, so past it simulate keeps only the trial id,
    sent bit, LLR and decided bit of each trial-epoch (18 bytes, about 1.2
    epochs a trial here) and their sort at the end.  Holding every trial as a row grew about 600 bytes
    a trial on this example."""
    ch = fsmc.make_example(fsmc.gamma_params(0.5))
    cap, exp = fsmc.capacity(ch), fsmc.burnashev_coefficient(ch)
    counts, peaks = (20_000, 200_000), []
    for trials in counts:
        cfg = SchemeConfig(rate=0.15, gamma=0.6, n=20, trials=trials, seed=3)
        scheme = fsmc.build_scheme(ch, cfg, cap, exp)
        scheme.codebook                              # drawn before tracing
        tracemalloc.start()
        try:
            fsmc.simulate(scheme)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_trial = (peaks[1] - peaks[0]) / (counts[1] - counts[0])
    assert per_trial < 100.0, (peaks, per_trial)


# ---------------------------------------------------------------------------
# verification phase

def test_phase2_llr_lattice_on_bsc():
    """On the BSC the per-pair increments are +-ln 9, so every LLR must sit
    on that lattice and decisions must follow the threshold rule exactly."""
    scheme = _bsc_scheme()
    nt = scheme.config.n_tilde
    gen = frng.stream(0, 99)
    step = math.log(0.9 / 0.1)
    for bit in (0, 1):
        for _ in range(50):
            decided, llr, end = fsmc.run_phase2(scheme, bit, gen, start_state=0)
            k = llr / step
            assert abs(k - round(k)) < 1e-9
            assert abs(llr) <= (nt - 1) * step + 1e-9
            assert decided == (0 if llr / nt >= scheme.confirm_threshold else 1)


def _sparse_channel(seed):
    """Random 3-state channel with zero (next state, output) cells; the zeros
    depend on the state only, so D stays finite."""
    gen = np.random.default_rng(seed)
    k = gen.random((3, 2, 3, 2)) + 0.05
    k *= (gen.random((3, 1, 3, 2)) < 0.6)
    k[:, :, (np.arange(3) + 1) % 3, 0] += 0.2        # keep every row and the cycle alive
    k /= k.sum(axis=(2, 3), keepdims=True)
    return fsmc.channel_from_arrays(("a", "b", "c"), ("0", "1"), ("0", "1"), k,
                                    [1 / 3, 1 / 3, 1 / 3])


def test_phase2_one_trial_path_matches_batch_path():
    """run_phase2 and run_trial walk one trial over cells drawn for every
    state (_phase2_one); it must give _phase2_batch's end state, LLR bits and
    decision, also for uniforms at the ends of [0, 1), for thresholds that
    short phases straddle, and on sparse channels of up to 8 states and 3
    outputs whose LLR tables hold zero cells and +-inf."""
    channels = [make_random_channel(1), make_random_channel(2, n_states=3, n_outputs=3),
                _sparse_channel(0), _sparse_channel(1), make_z(), make_bsc(0.1),
                *(sparse_channel(seed) for seed in (8, 14, 39, 41))]
    top = 1.0 - 2.0 ** -53                           # the largest uniform
    for i, ch in enumerate(channels):
        cap, exp = fsmc.capacity(ch), fsmc.burnashev_coefficient(ch)
        for n, threshold in ((200, None), (4, -0.5), (4, 0.2), (4, 1.0)):
            cfg = SchemeConfig(rate=0.3 * cap.C, gamma=0.5, n=n, seed=i,
                               confirm_threshold=None if exp.D.is_inf else threshold)
            scheme = fsmc.build_scheme(ch, cfg, cap, exp)
            gen = frng.stream(i, n)
            rows = [gen.random(cfg.n_tilde) for _ in range(40)]
            rows += [np.zeros(cfg.n_tilde), np.full(cfg.n_tilde, top)]
            for u in rows:
                bit, s0 = int(gen.integers(2)), int(gen.integers(ch.n_states))
                decided, s_end, llr = yi._phase2_batch(scheme, np.array([bit]),
                                                       np.array([s0]), u[None, :])
                want = (int(decided[0]), float(llr[0]), int(s_end[0]))
                got = yi._phase2_one(scheme, bit, s0, u)
                assert repr(got) == repr(want), (i, n, threshold)


def _forbidden_cell_rule(ch, exp, bit, s, u):
    """The zero-error verify rule as first written, recomputed from the kernel:
    play f_bit and accept iff a (next state, output) cell that the deny map f1
    cannot produce was seen before the last step; returns (decided, end state)."""
    maps, seen = (exp.f0, exp.f1), False
    for t, ut in enumerate(u):
        p = ch.kernel[s, maps[bit][s]].ravel()
        cell = min(int((np.cumsum(p) <= ut).sum()), int(np.flatnonzero(p > 0.0)[-1]))
        v, y = divmod(cell, ch.n_outputs)
        seen = seen or (t < len(u) - 1 and ch.kernel[s, exp.f1[s], v, y] == 0.0)
        s = v
    return (0 if seen else 1), s


def test_zero_error_rule_is_the_llr_test_at_infinity():
    """With D = +inf both verify paths accept exactly when the forbidden-cell
    rule does, also at the uniforms 0 and 1 - 2^-53."""
    channels = [make_z()] + [make_sparse_zero_error(seed) for seed in range(4)]
    top = 1.0 - 2.0 ** -53
    decisions = set()
    for i, ch in enumerate(channels):
        cap, exp = fsmc.capacity(ch), fsmc.burnashev_coefficient(ch)
        assert exp.D.is_inf
        for n in (4, 7, 60):
            cfg = SchemeConfig(rate=0.3 * cap.C, gamma=0.5, n=n, seed=i)
            scheme = fsmc.build_scheme(ch, cfg, cap, exp)
            gen = frng.stream(i, n)
            rows = [gen.random(cfg.n_tilde) for _ in range(60)]
            rows += [np.zeros(cfg.n_tilde), np.full(cfg.n_tilde, top)]
            for u in rows:
                for bit in (0, 1):
                    for s0 in range(ch.n_states):
                        want = _forbidden_cell_rule(ch, exp, bit, s0, u.tolist())
                        decided, s_end, _ = yi._phase2_batch(scheme, np.array([bit]),
                                                             np.array([s0]), u[None, :])
                        one = yi._phase2_one(scheme, bit, s0, u.tolist())
                        assert (int(decided[0]), int(s_end[0])) == want, (i, n, bit)
                        assert (one[0], one[2]) == want, (i, n, bit)
                        decisions.add((bit, want[0]))
    assert decisions == {(0, 0), (0, 1), (1, 1)}


def test_phase2_zero_error_never_acks_denials():
    ch = make_z()
    scheme = fsmc.build_scheme(ch, SchemeConfig(rate=0.15, gamma=0.6, n=20))
    gen = frng.stream(1, 7)
    for _ in range(200):
        decided, llr, _ = fsmc.run_phase2(scheme, 1, gen, start_state=0)
        assert decided == 1          # a true deny can never look like an ack


def test_run_trial_traces_are_complete():
    scheme = _bsc_scheme()
    gen = frng.stream(0, 3)
    traces, decoded, aborted = fsmc.run_trial(scheme, 5, gen)
    assert not aborted
    assert traces[-1].decided_bit == 0
    for t in traces[:-1]:
        assert t.decided_bit == 1
    assert all(t.epoch == i for i, t in enumerate(traces))


def test_run_trial_is_its_phases_in_turn():
    """run_trial runs run_phase1 then run_phase2 on one generator, epoch after
    epoch with the state carried over: the same traces and result as that
    loop written out, and the generator left at the same next draw."""
    channels = [make_bsc(0.1), make_z(), make_sparse_zero_error(),
                fsmc.make_example(fsmc.gamma_params(0.5))]
    outcomes = set()
    for i, ch in enumerate(channels):
        cap, exp = fsmc.capacity(ch), fsmc.burnashev_coefficient(ch)
        for n, threshold, max_epochs in ((20, None, 64), (6, 0.3, 3)):
            cfg = SchemeConfig(rate=0.4 * cap.C, gamma=0.6, n=n, seed=i, max_epochs=max_epochs,
                               confirm_threshold=None if exp.D.is_inf else threshold)
            scheme = fsmc.build_scheme(ch, cfg, cap, exp)
            for k in range(25):
                start, w = (None if k % 2 else k % ch.n_states), k % cfg.message_count
                gen, ref = frng.stream(i, k), frng.stream(i, k)
                got = fsmc.run_trial(scheme, w, gen, start)
                traces, s = [], start
                for epoch in range(max_epochs):
                    decoded, states = fsmc.run_phase1(scheme, w, ref, s)
                    sent = int(decoded != w)
                    decided, llr, s = fsmc.run_phase2(scheme, sent, ref, states[-1])
                    traces.append(yi.EpochTrace(epoch, decoded, sent == 0, sent, decided, llr))
                    if decided == 0:
                        break
                assert repr(got) == repr((traces, decoded, decided != 0)), (i, n, k)
                assert gen.random() == ref.random()
                outcomes.add((got[2], len(got[0]) > 1))
    assert outcomes == {(False, False), (False, True), (True, True)}


def test_run_trial_rejects_out_of_range_message():
    scheme = _bsc_scheme()
    for w in (-1, scheme.config.message_count):
        with pytest.raises(ChannelError):
            fsmc.run_trial(scheme, w, frng.stream(0, 0))


BAD_STARTS = (-1, 2, 1.7, True, np.int64(-1), "1")
BAD_MESSAGES = (True, 1.5, -1, 20, np.float64(1.0), None)
BAD_INDICES = ([(entry, "start", v) for entry in ("phase1", "phase2", "trial") for v in BAD_STARTS]
               + [(entry, "message", v) for entry in ("phase1", "trial") for v in BAD_MESSAGES])


@pytest.mark.parametrize("entry, kind, bad", BAD_INDICES)
def test_single_trial_entry_points_take_only_integer_indices_in_range(entry, kind, bad):
    """run_phase1, run_phase2 and run_trial refuse a message index or start
    state that is not an integer (bools too) or lies outside [0, count) with
    ChannelError, and take numpy integers as the ints they equal."""
    ch = fsmc.make_example(fsmc.gamma_params(0.5))           # two states, 20 messages
    scheme = fsmc.build_scheme(ch, SchemeConfig(rate=0.15, gamma=0.6, n=20))
    assert (ch.n_states, scheme.config.message_count) == (2, 20)
    run = {"phase1": lambda w, s: fsmc.run_phase1(scheme, w, frng.stream(0, 1), s),
           "phase2": lambda w, s: fsmc.run_phase2(scheme, 1, frng.stream(0, 1), s),
           "trial": lambda w, s: fsmc.run_trial(scheme, w, frng.stream(0, 1), s)}[entry]
    assert repr(run(np.int64(3), np.int64(1))) == repr(run(3, 1))
    with pytest.raises(ChannelError, match="must be an integer in"):
        run(bad, 1) if kind == "message" else run(3, bad)


# ---------------------------------------------------------------------------
# full simulation

def test_simulate_frozen_pin():
    rep = fsmc.simulate(_bsc_scheme())
    assert rep.trials == 200
    assert rep.mean_epochs == SIM_PIN_MEAN_EPOCHS
    assert rep.error_count == SIM_PIN_ERRORS
    assert rep.mean_T == SIM_PIN_MEAN_T
    assert abs(rep.mean_llr_per_symbol_h0 - SIM_PIN_LLR_H0) < 1e-12


def test_simulate_deterministic():
    r1 = fsmc.simulate(_bsc_scheme())
    r2 = fsmc.simulate(_bsc_scheme())
    assert r1.to_json_dict() == r2.to_json_dict()


def test_simulate_trace_sink_ordering():
    rows = []
    fsmc.simulate(_bsc_scheme(trials=50), trace_sink=lambda i, t: rows.append((i, t)))
    keys = [(i, t.epoch) for i, t in rows]
    assert keys == sorted(keys)
    assert {i for i, _ in rows} == set(range(50))


def test_simulate_abort_counts_as_error():
    # a confirm threshold beyond the largest possible |LLR|/n_tilde can never
    # be met, so every trial aborts at max_epochs
    scheme = _bsc_scheme(trials=20, confirm_threshold=10.0, max_epochs=3)
    rep = fsmc.simulate(scheme)
    assert rep.aborted_trials == 20
    assert rep.error_count == 20
    assert rep.mean_epochs == 3.0


def test_simulate_zero_error_channel():
    ch = make_z()
    scheme = fsmc.build_scheme(ch, SchemeConfig(rate=0.15, gamma=0.6, n=20,
                                                trials=500, seed=0))
    rep = fsmc.simulate(scheme)
    assert rep.error_count == 0
    assert rep.aborted_trials == 0
    assert rep.phase2_type1_rate in (None, 0.0)


def test_simulate_empirical_rate_definition():
    rep = fsmc.simulate(_bsc_scheme())
    assert abs(rep.empirical_rate - math.log(20) / rep.mean_T) < 1e-12


def test_wilson_interval():
    lo, hi = yi._wilson_ci(0, 100)
    assert abs(lo) < 1e-12 and 0.0 < hi < 0.05
    lo2, hi2 = yi._wilson_ci(50, 100)
    assert lo2 < 0.5 < hi2


def test_bound_checks_structure():
    rep = fsmc.simulate(_bsc_scheme(trials=400))
    bc = rep.bound_checks
    assert "pebound" in bc and "geometric_domination" in bc
    pe = bc["pebound"]
    assert set(pe) >= {"applicable", "pass"}
    if pe["applicable"]:
        assert set(pe) >= {"lhs", "rhs", "slack"}
    for rec in bc["geometric_domination"]:
        assert set(rec) >= {"k", "lhs", "rhs", "pass"}
    assert [rec["k"] for rec in bc["geometric_domination"]] == [2, 3, 4]
