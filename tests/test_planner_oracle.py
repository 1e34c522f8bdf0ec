"""The polynomial planner against the enumerations it replaced.

The oracles are the former exhaustive paths, kept verbatim in spirit: the
Assumption 1 check walks all X^S deterministic maps in lexicographic order
and runs a Kosaraju SCC pass on each induced chain; the exponent coefficient
scans all X^(2S) map pairs, valuing each pair as (mu * terms).sum(axis=1)
with one stacked stationary solve over every f0, and keeps the first strict
maximum in lexicographic (f0, f1) order.  The planner must reproduce them
bit for bit on random sparse channels up to the former 10^6 caps.

The capacity ascent's oracle is the former probe evaluation: every
finite-difference probe built whole, sanitized and valued by the former
one-channel J(pi).  Row-only probes on a stack of channels must give the
same bits, and so must a stacked ascent and one ascent per channel.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import re
import time

import numpy as np
import pytest

import fsmc
from fsmc import ChannelError
from fsmc import cli as fcli
from fsmc.channel import s_marginal
from fsmc.costs import kl_divergence
from conftest import sparse_channel

N_CHANNELS = 1200


# ---------------------------------------------------------------------------
# oracles

def _sccs(adj):
    """Strongly connected components, iterative Kosaraju."""
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


def oracle_assumption1(ch):
    """(ok, every reducible map in lexicographic order)."""
    S, X = ch.n_states, ch.n_inputs
    ps = s_marginal(ch)
    violators = []
    for f in itertools.product(range(X), repeat=S):
        q = ps[np.arange(S), f, :]
        adj = [list(np.nonzero(q[i] > 0.0)[0]) for i in range(S)]
        if len(_sccs(adj)) != 1:
            violators.append(f)
    return (not violators), violators


def _kl_tables(ch):
    """Pairwise per-state KLs between input corners, plus infinity witnesses."""
    S, X = ch.n_states, ch.n_inputs
    fin = np.zeros((S, X, X))
    inf = np.zeros((S, X, X), dtype=bool)
    wit = {}
    for s in range(S):
        for x0 in range(X):
            for x1 in range(X):
                val = kl_divergence(ch.kernel[s, x0], ch.kernel[s, x1])
                if val.is_inf:
                    inf[s, x0, x1] = True
                    p0, p1 = ch.kernel[s, x0], ch.kernel[s, x1]
                    v, y = np.argwhere((p0 > 0.0) & (p1 == 0.0))[0]
                    wit[(s, x0, x1)] = (int(v), int(y))
                else:
                    fin[s, x0, x1] = val.value
    return fin, inf, wit


def oracle_burnashev(ch):
    """(D, f0, f1, per-state terms, finite submax, witness) for an irreducible channel."""
    S, X = ch.n_states, ch.n_inputs
    fin, inf, wit = _kl_tables(ch)
    maps = np.array(list(itertools.product(range(X), repeat=S)), dtype=int)
    n_maps = maps.shape[0]
    ps = s_marginal(ch)
    state_idx = np.arange(S)
    best_val, best_pair = -math.inf, None
    best_fin_val = -math.inf
    mus = fsmc.stationary_measure(ps[state_idx, maps])
    for i in range(n_maps):
        f0 = maps[i]
        mu = mus[i]
        kl_slice = fin[state_idx[None, :], f0[None, :], maps]
        inf_slice = inf[state_idx[None, :], f0[None, :], maps]
        vals = (mu[None, :] * kl_slice).sum(axis=1)
        has_inf = inf_slice.any(axis=1)
        vals_ext = np.where(has_inf, math.inf, vals)
        j = int(np.argmax(vals_ext))
        if vals_ext[j] > best_val:
            best_val, best_pair = float(vals_ext[j]), (i, j)
        finite_vals = np.where(has_inf, -math.inf, vals)
        jf = int(np.argmax(finite_vals))
        if finite_vals[jf] > best_fin_val:
            best_fin_val = float(finite_vals[jf])
    i, j = best_pair
    f0, f1 = tuple(int(v) for v in maps[i]), tuple(int(v) for v in maps[j])
    mu = mus[i]
    terms = np.empty(S)
    witness = None
    for s in range(S):
        if inf[s, f0[s], f1[s]]:
            terms[s] = math.inf
            if witness is None:
                v, y = wit[(s, f0[s], f1[s])]
                witness = {"state": s, "next_state": v, "output": y}
        else:
            terms[s] = mu[s] * fin[s, f0[s], f1[s]]
    return best_val, f0, f1, terms, best_fin_val, witness


# ---------------------------------------------------------------------------
# random sparse channels

def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def _cli_stdout(cmd, path):
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = fcli.main([cmd, str(path)])
    return rc, buf.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def cases():
    """(channel, Assumption 1 oracle, exponent oracle or None when reducible)."""
    out = []
    for seed in range(N_CHANNELS):
        ch = sparse_channel(seed)
        a1 = oracle_assumption1(ch)
        out.append((ch, a1, oracle_burnashev(ch) if a1[0] else None))
    return out


def test_generator_covers_the_cases(cases):
    kinds = dict.fromkeys(("reducible", "inf", "finite", "tie", "identical", "rounding"), 0)
    for ch, (ok, _), _ in cases:
        fin, inf, _ = _kl_tables(ch)
        if not ok:
            kinds["reducible"] += 1
            continue
        kinds["inf" if inf.any() else "finite"] += 1
        same = (ch.kernel[:, :, None] == ch.kernel[:, None, :]).all(axis=(3, 4))
        kinds["tie"] += int((same.sum() > same.shape[0] * same.shape[1]))
        kinds["identical"] += int(same.all() and ch.n_states > 1)
        ps = s_marginal(ch)
        gap = np.abs(ps[:, :, None] - ps[:, None, :]).max(axis=3)
        kinds["rounding"] += int(((gap > 0.0) & (gap < 1e-12)).any())
    assert min(kinds.values()) >= 20, kinds


def test_is_irreducible_matches_scc():
    gen = np.random.default_rng(17)
    for trial in range(400):
        n = int(gen.integers(1, 8))
        q = gen.random((n, n)) * (gen.random((n, n)) < gen.uniform(0.1, 0.7))
        q[np.arange(n), gen.integers(0, n, size=n)] += 0.1
        adj = [list(np.nonzero(q[i] > 0.0)[0]) for i in range(n)]
        assert fsmc.is_irreducible(q / q.sum(axis=1, keepdims=True)) == (len(_sccs(adj)) == 1)


def test_assumption1_matches_enumeration(cases):
    for seed, (ch, (want_ok, want), _) in enumerate(cases):
        ok, violators = fsmc.check_assumption1(ch)
        assert ok == want_ok, seed
        assert violators == want[:1], seed
        assert all(type(x) is int for f in violators for x in f)


def test_burnashev_matches_enumeration(cases):
    for seed, (ch, (ok, violators), want) in enumerate(cases):
        if not ok:
            with pytest.raises(ChannelError, match=re.escape(str(violators[0]))):
                fsmc.burnashev_coefficient(ch)
            continue
        d, f0, f1, terms, submax, witness = want
        res = fsmc.burnashev_coefficient(ch)
        assert _bits(res.D.to_float()) == _bits(d), seed
        assert (res.f0, res.f1) == (f0, f1), seed
        assert all(type(x) is int for x in res.f0 + res.f1)
        assert _bits(res.per_state_terms) == _bits(terms), seed
        assert _bits(res.diagnostics["finite_submax_nats"]) == _bits(submax), seed
        assert res.diagnostics["witness"] == witness, seed
        assert isinstance(res.diagnostics["pairs_scanned"], int)
        assert res.diagnostics["policy_iterations"] >= 1


@pytest.mark.parametrize("tiny_input", [0, 1])
def test_absorbed_terms_keep_the_first_pair(tiny_input):
    """At state 1 the inputs differ by 1e-10, so their KLs (about 4e-20) vanish
    when added to D: the first pair by lexicographic order must win, not the
    per-state maximum."""
    k = np.zeros((2, 2, 2, 2))
    k[0, 0] = [[0.3, 0.2], [0.4, 0.1]]
    k[0, 1] = [[0.1, 0.4], [0.2, 0.3]]
    k[1, :] = 0.25
    k[1, tiny_input, 0] = [0.25 + 1e-10, 0.25 - 1e-10]
    ch = fsmc.channel_from_arrays(("a", "b"), ("0", "1"), ("u", "v"), k, [0.5, 0.5])
    fin = _kl_tables(ch)[0]
    assert 0.0 < fin[1].max() < 1e-19
    d, f0, f1, terms, _, _ = oracle_burnashev(ch)
    res = fsmc.burnashev_coefficient(ch)
    assert (res.f0, res.f1) == (f0, f1) and (f0[1], f1[1]) == (0, 0)
    assert _bits(res.D.to_float()) == _bits(d)
    assert _bits(res.per_state_terms) == _bits(terms)


def test_cli_stdout_matches_enumeration(cases, tmp_path, monkeypatch):
    """validate and burnashev print the same bytes with the oracles patched in."""
    paths = []
    for seed, (ch, _, _) in enumerate(cases[:300]):
        path = tmp_path / f"c{seed}.json"
        fsmc.save_channel(ch, path)
        paths.append(path)
    fast = [(_cli_stdout("validate", p), _cli_stdout("burnashev", p)) for p in paths]
    monkeypatch.setattr(fcli, "check_assumption1", oracle_assumption1)
    monkeypatch.setattr(fcli, "burnashev_coefficient", _oracle_result)
    slow = [(_cli_stdout("validate", p), _cli_stdout("burnashev", p)) for p in paths]
    assert fast == slow


def _oracle_result(ch):
    ok, violators = oracle_assumption1(ch)
    if not ok:
        raise ChannelError(f"reducible policy chain, e.g. deterministic map {violators[0]}")
    d, f0, f1, terms, submax, witness = oracle_burnashev(ch)
    dv = fsmc.ExtReal.infinity() if math.isinf(d) else fsmc.ExtReal(d)
    return fsmc.BurnashevResult(dv, f0, f1, terms,
                                {"finite_submax_nats": submax, "witness": witness})


# ---------------------------------------------------------------------------
# past the former caps

def _cycle_channel(S, seed, identical=False, closed=None):
    """Binary-input channel on S states with s -> s+1 under both inputs, sparse
    otherwise; closed=(A, x) makes input x keep the state set A closed."""
    gen = np.random.default_rng(seed)
    k = (gen.random((S, 2, S, 2)) + 0.05) * (gen.random((S, 2, S, 2)) < 0.35)
    k[np.arange(S), :, (np.arange(S) + 1) % S, 0] += 0.5
    if closed is not None:
        members, x = closed
        out = np.setdiff1d(np.arange(S), members)
        k[np.ix_(members, [x], out)] = 0.0
        k[members[-1], x, members[0], 0] += 0.5
    if identical:
        k[:, 1] = k[:, 0]
    k /= k.sum(axis=(2, 3), keepdims=True)
    lab = lambda pre, m: tuple(f"{pre}{i}" for i in range(m))
    return fsmc.channel_from_arrays(lab("s", S), ("0", "1"), ("u", "v"), k, np.full(S, 1.0 / S))


def _per_f0_oracle(ch):
    """max over all X^S confirm maps of sum_s mu_f0(s) max_x1 KL, one f0 at a time."""
    S, X = ch.n_states, ch.n_inputs
    fin, _, _ = _kl_tables(ch)
    g = fin.max(axis=2)
    maps = np.array(list(itertools.product(range(X), repeat=S)))
    mus = fsmc.stationary_measure(s_marginal(ch)[np.arange(S), maps])
    return float((mus * g[np.arange(S), maps]).sum(axis=1).max())


def test_twelve_states_past_the_pair_cap(tmp_path):
    """No ISI, sparse output laws: D = +inf and capacity solves per state."""
    gen = np.random.default_rng(3)
    S = 12
    t = (gen.random((S, S)) + 0.05) * (gen.random((S, S)) < 0.35)
    t[np.arange(S), (np.arange(S) + 1) % S] += 0.5
    w = (gen.random((S, 2, 2)) + 0.05) * (gen.random((S, 2, 2)) < 0.6)
    w[:, :, 0] += 0.1
    k = t[:, None, :, None] * w[:, :, None, :]
    k /= k.sum(axis=(2, 3), keepdims=True)
    lab = lambda pre, m: tuple(f"{pre}{i}" for i in range(m))
    ch = fsmc.channel_from_arrays(lab("s", S), ("0", "1"), ("u", "v"), k, np.full(S, 1.0 / S))
    res = fsmc.burnashev_coefficient(ch)
    assert res.D.is_inf
    assert _bits(res.diagnostics["finite_submax_nats"]) == _bits(_per_f0_oracle(ch))
    path = tmp_path / "g12.json"
    fsmc.save_channel(ch, path)
    for cmd in ("burnashev", "reliability"):
        rc, out, err = _cli_stdout(cmd, path)
        assert rc == 0, err
        assert out


def test_twelve_states_finite_d():
    gen = np.random.default_rng(11)
    S = 12
    k = gen.random((S, 2, S, 2)) + 0.05
    k *= gen.random((S, 1, S, 2)) < 0.4          # one support per state: finite KLs
    k[np.arange(S), :, (np.arange(S) + 1) % S, 0] += 0.5
    k /= k.sum(axis=(2, 3), keepdims=True)
    lab = lambda pre, m: tuple(f"{pre}{i}" for i in range(m))
    ch = fsmc.channel_from_arrays(lab("s", S), ("0", "1"), ("u", "v"), k, np.full(S, 1.0 / S))
    res = fsmc.burnashev_coefficient(ch)
    assert res.D.is_finite
    assert _bits(res.D.to_float()) == _bits(_per_f0_oracle(ch))


def test_validate_twenty_states_fast(tmp_path):
    irr = _cycle_channel(20, 7)
    members = np.array([4, 5, 6])
    red = _cycle_channel(20, 7, closed=(members, 1))
    for ch, want in ((irr, None), (red, tuple(int(s in members) for s in range(20)))):
        path = tmp_path / "c20.json"
        fsmc.save_channel(ch, path)
        t0 = time.perf_counter()
        rc, out, err = _cli_stdout("validate", path)
        assert time.perf_counter() - t0 < 0.5
        ok, violators = fsmc.check_assumption1(ch)
        if want is None:
            assert rc == 0 and ok and violators == []
        else:
            assert rc == 1 and not ok
            assert violators == [want]
            assert f"reducible under deterministic map {want}" in err
            q = fsmc.induced_matrix(ch, fsmc.StationaryPolicy.deterministic(want, 2))
            assert not fsmc.is_irreducible(q)


def test_twenty_identical_inputs_tie_everywhere():
    ch = _cycle_channel(20, 9, identical=True)
    t0 = time.perf_counter()
    res = fsmc.burnashev_coefficient(ch)
    assert time.perf_counter() - t0 < 0.5
    assert res.D.to_float() == 0.0
    assert res.f0 == res.f1 == (0,) * 20
    assert res.diagnostics["pairs_scanned"] < 100


# ---------------------------------------------------------------------------
# capacity ascent: row-only probes on stacked channels

def oracle_value(kernel, pi):
    """The former one-channel J(pi) for pi (B, S, X), rows sanitized first."""
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum(axis=-1, keepdims=True)
    plnp = np.where(kernel > 0.0, kernel * np.log(np.maximum(kernel, 1e-300)), 0.0)
    q = np.einsum("bsx,sxvy->bsvy", pi, kernel)
    lnq = np.log(np.maximum(q, 1e-300))
    plnq = np.einsum("sxvy,bsvy->bsx", kernel, lnq)
    inner = plnp.sum(axis=(2, 3))[None, :, :] - plnq
    c = np.where(pi > 0.0, pi * inner, 0.0).sum(axis=2)
    mu = fsmc.stationary_measure(np.einsum("bsx,sxv->bsv", pi, kernel.sum(axis=3)))
    return (mu * c).sum(axis=1)


def oracle_probe_values(kernel, pi, fd):
    """Every central-difference probe of pi (B, S, X) built whole: entry (s, x)
    moved by +fd, then by -fd; valued as (S, X, 2, B)."""
    B, S, X = pi.shape
    probes = np.repeat(pi[None], 2 * S * X, axis=0).reshape(S, X, 2, B, S, X)
    for s in range(S):
        for x in range(X):
            probes[s, x, 0, :, s, x] += fd
            probes[s, x, 1, :, s, x] -= fd
    return oracle_value(kernel, probes.reshape(-1, S, X)).reshape(S, X, 2, B)


def _isi_kernel(gen, S, X, Y):
    """Sparse kernel, about 30% zero cells, in which every map keeps s -> s+1."""
    k = (gen.random((S, X, S, Y)) + 0.05) * (gen.random((S, X, S, Y)) >= 0.3)
    k[np.arange(S), :, (np.arange(S) + 1) % S, gen.integers(0, Y)] += 0.3
    return k / k.sum(axis=(2, 3), keepdims=True)


def _starts_on_faces(gen, S, X):
    """The ascent's starts plus points with zero and below-fd entries, where
    the -fd probe is clipped."""
    face = gen.random((6, S, X)) * (gen.random((6, S, X)) < 0.5)
    face[gen.random((6, S, X)) < 0.2] = 5e-7
    face[:, :, 0] += 1e-3
    face /= face.sum(axis=2, keepdims=True)
    return np.concatenate([fsmc.planner._starting_points(S, X), face])


@pytest.mark.parametrize("seed", range(12))
def test_probe_values_match_full_probes(seed):
    gen = np.random.default_rng([seed, 41])
    X = 2 + seed % 2
    S = int(gen.integers(2, 15))
    Y = int(gen.integers(1, 4))
    kernels = np.stack([_isi_kernel(gen, S, X, Y) for _ in range(3)])
    pi = np.stack([_starts_on_faces(gen, S, X) for _ in range(3)])
    assert ((pi > 0.0) & (pi < 1e-6)).any() and (pi == 0.0).any()
    ev = fsmc.planner._Evaluator(kernels)
    got = ev.probe_values(pi, 1e-6)
    assert _bits(ev.value(pi)) == _bits([oracle_value(k, p) for k, p in zip(kernels, pi)])
    for g in range(3):
        assert _bits(got[g]) == _bits(oracle_probe_values(kernels[g], pi[g], 1e-6)), (seed, g)


def _same_capacity(a, b):
    return (_bits(a.C) == _bits(b.C)
            and _bits(a.optimal_policy.matrix()) == _bits(b.optimal_policy.matrix())
            and _bits(a.ergodic_measure) == _bits(b.ergodic_measure)
            and a.solver_diagnostics == b.solver_diagnostics)


def test_stacked_sweep_capacities_match_single_ascents(monkeypatch):
    """The sweep's channels stop at different iterations; each leaves the
    stack when it stops, so the stack probes a channel once per iteration
    before its own stop and matches the single ascents bit for bit."""
    chs = [fsmc.make_example(fsmc.gamma_params(0.02 * k)) for k in range(1, 50)]
    singles = [fsmc.capacity(ch) for ch in chs]
    stops = [r.solver_diagnostics["iterations"] for r in singles
             if r.solver_diagnostics["method"] == "multistart_projected_ascent"]
    assert len(set(stops)) >= 5 and max(stops) < 600
    probed = []
    probe = fsmc.planner._Evaluator.probe_values
    with monkeypatch.context() as mp:
        mp.setattr(fsmc.planner._Evaluator, "probe_values",
                   lambda ev, pi, fd: probed.append(pi.shape[0]) or probe(ev, pi, fd))
        assert all(map(_same_capacity, fsmc.planner._capacities(chs), singles))
    assert sum(probed) == sum(stop - 1 for stop in stops)
    monkeypatch.setattr(fsmc.planner, "_STACK", 5)
    assert all(map(_same_capacity, fsmc.planner._capacities(chs[::-1]), singles[::-1]))


def test_mixed_stack_matches_single_ascents():
    """Several shapes, no-ISI channels among ISI ones, and ISI channels of one
    shape that stop at different iterations, stacked in both orders."""
    chs = [sparse_channel(seed) for seed in (1, 5, 8, 12, 14, 17, 18, 22, 45, 49, 51, 53, 55)]
    singles = [fsmc.capacity(ch) for ch in chs]
    stops = {}
    for ch, r in zip(chs, singles):
        if r.solver_diagnostics["method"] == "multistart_projected_ascent":
            stops.setdefault(ch.kernel.shape, set()).add(r.solver_diagnostics["iterations"])
    assert len(stops) >= 4 and sum(len(v) > 1 for v in stops.values()) >= 3
    assert any(r.solver_diagnostics["method"] == "per_state_fixed_point" for r in singles)
    assert all(map(_same_capacity, fsmc.planner._capacities(chs), singles))
    assert all(map(_same_capacity, fsmc.planner._capacities(chs[::-1]), singles[::-1]))
