"""The array-native simulate path against a per-trial-generator oracle.

The oracle is the straightforward loop: one numpy Philox generator per
trial, 2 uniforms up front, then n per epoch, an EpochTrace per epoch and
the report reduced from the sorted trace list.  Each epoch decodes all
active trials in one batch, where simulate steps a pool of trials that are
at different epochs; the decode rule does not depend on batch shape, so
reports must agree exactly.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

import fsmc
from fsmc import SchemeConfig
from fsmc import rng as frng
from fsmc import yamamoto_itoh as yi
from conftest import make_random_channel, make_z


def oracle_simulate(scheme):
    """(SimReport, [(trial, EpochTrace)]) from per-trial generators."""
    cfg = scheme.config
    b, w_total = cfg.trials, cfg.message_count
    gens = [frng.stream(cfg.seed, k) for k in range(b)]
    first = np.stack([g.random(2) for g in gens])
    w = np.minimum((first[:, 0] * w_total).astype(np.int64), w_total - 1)
    s = yi._draw_initial(scheme, first[:, 1])
    active = np.ones(b, dtype=bool)
    epochs_used = np.zeros(b, dtype=np.int64)
    final_decoded = np.full(b, -1, dtype=np.int64)
    traces = []
    for epoch in range(cfg.max_epochs):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        u = np.stack([gens[i].random(cfg.n) for i in idx])
        decoded, s_mid, _ = yi._phase1_batch(scheme, w[idx], s[idx], u[:, :cfg.n_hat])
        sent = (decoded != w[idx]).astype(np.int64)
        decided, s_end, llr = yi._phase2_batch(scheme, sent, s_mid, u[:, cfg.n_hat:])
        for j, i in enumerate(idx):
            traces.append((int(i), yi.EpochTrace(epoch, int(decoded[j]), bool(sent[j] == 0),
                                                 int(sent[j]), int(decided[j]),
                                                 float(llr[j]))))
        committed = decided == 0
        final_decoded[idx[committed]] = decoded[committed]
        epochs_used[idx[committed]] = epoch + 1
        active[idx[committed]] = False
        s[idx] = s_end
    epochs_used[active] = cfg.max_epochs
    traces.sort(key=lambda item: (item[0], item[1].epoch))

    ts = [t for _, t in traces]
    decodes = len(ts)
    ph1_errors = sum(t.sent_bit for t in ts)
    ack_denied = sum(1 for t in ts if t.sent_bit == 0 and t.decided_bit == 1)
    deny_acked = sum(1 for t in ts if t.sent_bit == 1 and t.decided_bit == 0)
    ack_sends, deny_sends = decodes - ph1_errors, ph1_errors
    llr_h0 = [t.llr / (cfg.n_tilde - 1) for t in ts if t.sent_bit == 0]
    llr_h1 = [t.llr / (cfg.n_tilde - 1) for t in ts if t.sent_bit == 1]
    errors = int(((final_decoded != w) | active).sum())
    mean_epochs = float(epochs_used.mean())
    mean_t = cfg.n * mean_epochs
    epochs_hist = np.bincount(epochs_used, minlength=cfg.max_epochs + 1)
    report = yi.SimReport(
        trials=b, mean_epochs=mean_epochs, mean_T=mean_t,
        empirical_rate=math.log(w_total) / mean_t,
        error_count=errors, p_e_hat=errors / b, p_e_ci=yi._wilson_ci(errors, b),
        phase1_error_rate=ph1_errors / decodes if decodes else None,
        phase2_type0_rate=ack_denied / ack_sends if ack_sends else None,
        phase2_type1_rate=deny_acked / deny_sends if deny_sends else None,
        mean_llr_per_symbol_h0=float(np.mean(llr_h0)) if llr_h0 else None,
        mean_llr_per_symbol_h1=float(np.mean(llr_h1)) if llr_h1 else None,
        aborted_trials=int(active.sum()),
        bound_checks=yi._bound_checks(b, errors, epochs_hist, decodes, ph1_errors,
                                      ack_sends, ack_denied, deny_acked))
    return report, traces


def _assert_same(scheme):
    rows = []
    rep = fsmc.simulate(scheme, trace_sink=lambda i, t: rows.append((i, t)))
    want, want_rows = oracle_simulate(scheme)
    # repr compares floats bit for bit and keeps nan == nan
    assert repr(rep.to_json_dict()) == repr(want.to_json_dict())
    assert repr(rows) == repr(want_rows)
    plain = fsmc.simulate(scheme)                    # no sink: same report
    assert repr(plain.to_json_dict()) == repr(want.to_json_dict())
    return rep


def _random_scheme(seed, trials, **kw):
    ch = make_random_channel(seed, n_states=2 + seed % 2, n_inputs=2, n_outputs=2 + seed % 3)
    cfg = SchemeConfig(rate=0.5 * fsmc.capacity(ch).C, gamma=0.6, n=12, trials=trials,
                       seed=seed, **kw)
    return fsmc.build_scheme(ch, cfg)


@pytest.mark.parametrize("trials", [1, 7, 1000])
@pytest.mark.parametrize("chunk", [frng._CHUNK_BLOCKS, 8])
def test_random_channels_match_oracle(monkeypatch, trials, chunk):
    monkeypatch.setattr(frng, "_CHUNK_BLOCKS", chunk)   # 8: two trials per Philox pass
    for seed in range(3):
        _assert_same(_random_scheme(seed, trials))


def test_random_channel_chunk_straddled_by_trials(monkeypatch):
    monkeypatch.setattr(frng, "_CHUNK_BLOCKS", 256)   # 4 blocks a trial: 1000 = 15 * 64 + 40
    _assert_same(_random_scheme(4, 1000))


@pytest.mark.parametrize("trials", [1, 7, 1000])
def test_zero_error_channel_matches_oracle(monkeypatch, trials):
    monkeypatch.setattr(frng, "_CHUNK_BLOCKS", 30)    # epoch 0 reads 6 blocks: 5 trials a pass
    scheme = fsmc.build_scheme(make_z(), SchemeConfig(rate=0.15, gamma=0.6, n=20,
                                                      trials=trials, seed=3))
    assert scheme.confirm_threshold == math.inf
    _assert_same(scheme)


@pytest.mark.parametrize("trials", [7, 1000])
def test_forced_aborts_match_oracle(trials):
    """A threshold no LLR can reach sends every trial to max_epochs."""
    rep = _assert_same(_random_scheme(1, trials, confirm_threshold=50.0, max_epochs=4))
    assert rep.aborted_trials == trials
    assert rep.mean_epochs == 4.0


def test_some_aborts_match_oracle():
    """A threshold between the hypotheses' drifts: trials commit at mixed epochs
    and a few run out."""
    scheme = _random_scheme(2, 1000, confirm_threshold=0.0, max_epochs=2)
    rep = _assert_same(scheme)
    assert 0 < rep.aborted_trials < 1000


# -- the trial pool ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _sparse_isi_channel(seed):
    """(channel, capacity, exponent) of a random channel with zero cells and
    ISI.  Both inputs share each state's support, so every divergence is
    finite, and the support holds the cycle s -> s+1 (mod S), so every chain
    is irreducible (periodic when the cycle is all it holds); random weights
    on it make the next state depend on the input."""
    gen = np.random.default_rng([seed, 7])
    S, Y = 2 + seed % 3, 2 + seed % 2
    support = gen.random((S, 1, S, Y)) < 0.4
    support[np.arange(S), :, (np.arange(S) + 1) % S] = True
    k = (gen.random((S, 2, S, Y)) + 0.05) * support
    k /= k.sum(axis=(2, 3), keepdims=True)
    lab = lambda pre, m: tuple(f"{pre}{i}" for i in range(m))
    ch = fsmc.channel_from_arrays(lab("s", S), lab("x", 2), lab("y", Y), k, np.full(S, 1.0 / S))
    return ch, fsmc.capacity(ch), fsmc.burnashev_coefficient(ch)


def _sparse_isi_scheme(seed, trials, n=12, **kw):
    ch, cap, exp = _sparse_isi_channel(seed)
    cfg = SchemeConfig(rate=0.5 * cap.C, gamma=0.6, n=n, trials=trials, seed=seed, **kw)
    return fsmc.build_scheme(ch, cfg, cap, exp)


POOL_TRIALS = [(1, 1), (1, 3), (2, 1), (2, 5), (7, 6), (7, 7), (7, 8), (7, 40)]


@pytest.mark.parametrize("pool,trials", POOL_TRIALS)
def test_pool_on_sparse_isi_channels(monkeypatch, pool, trials):
    monkeypatch.setattr(yi, "_POOL", pool)
    for seed in range(3):
        _assert_same(_sparse_isi_scheme(seed, trials))


@pytest.mark.parametrize("pool,trials", POOL_TRIALS)
def test_pool_on_zero_error_channel(monkeypatch, pool, trials):
    monkeypatch.setattr(yi, "_POOL", pool)
    scheme = fsmc.build_scheme(make_z(), SchemeConfig(rate=0.15, gamma=0.6, n=20,
                                                      trials=trials, seed=3))
    _assert_same(scheme)


@pytest.mark.parametrize("pool,trials", POOL_TRIALS)
def test_pool_with_forced_aborts(monkeypatch, pool, trials):
    """Every trial holds its row for max_epochs steps."""
    monkeypatch.setattr(yi, "_POOL", pool)
    rep = _assert_same(_sparse_isi_scheme(1, trials, confirm_threshold=50.0, max_epochs=3))
    assert rep.aborted_trials == trials


@pytest.mark.parametrize("pool,trials", POOL_TRIALS)
def test_pool_at_odd_n(monkeypatch, pool, trials):
    """At odd n the epoch windows 2 + e n fall on every residue mod 4, so one
    step reads rows at different positions within their Philox blocks."""
    monkeypatch.setattr(yi, "_POOL", pool)
    for seed in range(2):
        _assert_same(_sparse_isi_scheme(seed, trials, n=13, confirm_threshold=0.0,
                                        max_epochs=5))
