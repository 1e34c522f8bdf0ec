"""Acceptance gate: ten end-to-end criteria, one test (one pass/fail line) each.

Every test checks its claim at the stated numeric tolerance and asserts its
own wall-clock budget.  Monte-Carlo criteria fix the package-default seed 0,
so every number here is reproducible bit-for-bit.
"""

from __future__ import annotations

import math
import pathlib
import subprocess
import sys
import time

import numpy as np

import fsmc
from fsmc import rng as frng
from fsmc.channel import InputDist, StationaryPolicy
from fsmc.occupation import ControlGrid, azuma_tail_check, lp_average_cost
from fsmc.yamamoto_itoh import SchemeConfig

from conftest import make_bsc, make_random_channel, make_z, write_channel

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _report(num: int, budget: float, elapsed: float, msg: str) -> None:
    print(f"criterion {num:02d}: PASS ({elapsed:.1f}s / budget {budget:.0f}s) — {msg}")
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


def _h(q: float) -> float:
    return -q * math.log(q) - (1.0 - q) * math.log(1.0 - q)


def _dkl(a: float, b: float) -> float:
    return a * math.log(a / b) + (1.0 - a) * math.log((1.0 - a) / (1.0 - b))


# ---------------------------------------------------------------------------
# 1. symmetric closed forms and the interleaving comparison

def test_criterion_01_symmetric_closed_forms():
    t0 = time.perf_counter()
    p = fsmc.symmetric_params()           # p_g=0.001, p_b=0.1, all halves
    ch = fsmc.make_example(p)

    c = fsmc.capacity(ch).C
    c_expected = math.log(2.0) - 0.5 * _h(0.001) - 0.5 * _h(0.1)
    assert abs(c - c_expected) < 1e-5

    d = fsmc.burnashev_coefficient(ch).D.to_float()
    d_expected = 0.5 * _dkl(0.001, 0.999) + 0.5 * _dkl(0.1, 0.9)
    assert abs(d - d_expected) < 1e-9

    c_full, c_int, d_full, d_int = fsmc.interleaving_gap(p)
    assert c_full > c_int
    assert d_full > d_int

    _report(1, 5.0, time.perf_counter() - t0,
            f"C={c:.6f} (closed form, |err|<1e-5), D={d:.6f} (|err|<1e-9), "
            f"C>C_interleaved and D>D_interleaved strictly")


# ---------------------------------------------------------------------------
# 2. ISI capacity solver vs exhaustive grid oracle

def test_criterion_02_solver_vs_grid_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(1, 10):
        gamma = k / 10.0
        ch = fsmc.make_example(fsmc.gamma_params(gamma))
        solver = fsmc.capacity(ch).C
        oracle = fsmc.capacity_grid_oracle(ch, 400)
        gap = abs(solver - oracle)
        worst = max(worst, gap)
        assert gap <= 1e-4, f"gamma={gamma}: solver {solver} vs oracle {oracle}"
    _report(2, 120.0, time.perf_counter() - t0,
            f"9 grid points, worst |solver-oracle| = {worst:.2e} <= 1e-4")


# ---------------------------------------------------------------------------
# 3. default parameter sweep reproduces the example family's curve shapes

def test_criterion_03_sweep_curve_properties():
    t0 = time.perf_counter()
    rows = fsmc.sweep_gamma()       # defaults: step 0.01, 99 rows
    assert len(rows) == 99

    # (a) the optimal policy is within 0.02 of uniform at gamma = 0.7
    at07 = next(r for r in rows if abs(r["gamma"] - 0.7) < 1e-12)
    assert abs(at07["piG_1"] - 0.5) <= 0.02
    assert abs(at07["piB_1"] - 0.5) <= 0.02

    # (b) D is minimized at gamma = 0.7, where the four deterministic-f0
    #     divergence curves all coincide
    dmin = min(rows, key=lambda r: r["D_nats"])
    assert abs(dmin["gamma"] - 0.7) < 1e-12
    kls = [at07[k] for k in ("klf00", "klf01", "klf10", "klf11")]
    assert max(kls) - min(kls) < 1e-9

    # (c) below 0.7 the policy favors input 1 in both states, more strongly
    #     in state B
    for r in rows:
        if r["gamma"] < 0.7 - 1e-12:
            assert r["piG_1"] > 0.5
            assert r["piB_1"] > 0.5
            assert r["piB_1"] > r["piG_1"]

    _report(3, 120.0, time.perf_counter() - t0,
            f"99-point sweep: uniform at 0.7 (±{max(abs(at07['piG_1'] - 0.5), abs(at07['piB_1'] - 0.5)):.1e}), "
            f"argmin D at {dmin['gamma']:.2f}, KL spread {max(kls) - min(kls):.1e}, "
            f"input-1 bias below 0.7 in both states")


# ---------------------------------------------------------------------------
# 4. occupation-measure LP equals the divergence enumeration

def test_criterion_04_lp_equals_enumeration():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        ch = make_random_channel(seed, n_states=2 + seed % 2, floor=0.05)
        res = fsmc.burnashev_coefficient(ch)
        assert not res.D.is_inf          # positive kernels keep D finite
        grid = ControlGrid.corners(ch.n_inputs)
        g = np.array([[fsmc.div_cost(ch, s, u)[0].to_float()
                       for u in grid.points]
                      for s in range(ch.n_states)])
        value, _ = lp_average_cost(ch, g, grid)
        gap = abs(value - res.D.to_float())
        worst = max(worst, gap)
        assert gap < 1e-9, f"seed={seed}: LP {value} vs enumeration {res.D}"
    _report(4, 30.0, time.perf_counter() - t0,
            f"10 random ergodic channels, worst |LP - enumeration| = {worst:.1e} < 1e-9")


# ---------------------------------------------------------------------------
# 5. occupation-measure concentration across channels and policy classes

def test_criterion_05_azuma_tail_checks():
    t0 = time.perf_counter()
    channels = [
        ("bsc", make_bsc(0.1)),
        ("two-state", fsmc.make_example(fsmc.gamma_params(0.5))),
        ("random-3-state", make_random_channel(5, n_states=3)),
    ]
    checked = 0
    for name, ch in channels:
        n_s, n_x = ch.n_states, ch.n_inputs
        mixed = [InputDist(np.array([0.3, 0.7])),
                 InputDist(np.array([0.8, 0.2])),
                 InputDist.uniform(n_x)]
        grid = ControlGrid.with_points(n_x, mixed)
        stationary = StationaryPolicy.deterministic(
            tuple(s % n_x for s in range(n_s)), n_x)
        randomized = StationaryPolicy(tuple(mixed[s % 3] for s in range(n_s)))
        rows = mixed[:2]

        def history_dependent(states, outputs, rows=rows):
            return rows[outputs[-1] % 2] if outputs else rows[0]

        for pol in (stationary, randomized, history_dependent):
            out = azuma_tail_check(ch, pol, grid, n=500, eps=0.2,
                                   trials=2000, seed=0)
            assert out["pass"] is True, (name, out)
            checked += 1
    assert checked == 9
    _report(5, 60.0, time.perf_counter() - t0,
            "9/9 tail checks pass at n=500, eps=0.2, trials=2000")


# ---------------------------------------------------------------------------
# 6. scheme mechanics on the BSC: epochs shrink, finite-n bounds hold

def test_criterion_06_scheme_mechanics():
    t0 = time.perf_counter()
    means = []
    pe_applicable = []
    for n in (20, 40, 80):
        cfg = SchemeConfig(rate=0.18, gamma=0.6, n=n, trials=10_000, seed=0)
        rep = fsmc.simulate(fsmc.build_scheme(make_bsc(0.1), cfg))
        means.append(rep.mean_epochs)

        pe = rep.bound_checks["pebound"]
        assert pe["pass"] is True, (n, pe)
        pe_applicable.append(pe["applicable"])
        for rec in rep.bound_checks["geometric_domination"]:
            if rec["k"] <= 3 and rec["applicable"]:
                assert rec["pass"] is True, (n, rec)

    # retransmissions become rarer as the block grows; the sampled sequence
    # at the default seed decreases strictly and ends near 1
    assert means[0] > means[1] > means[2]
    assert means[2] < 1.05
    # the error-probability bound must actually bind somewhere, not hold
    # vacuously everywhere
    assert any(pe_applicable)

    _report(6, 180.0, time.perf_counter() - t0,
            f"mean_epochs {means[0]:.4f} > {means[1]:.4f} > {means[2]:.4f} -> 1; "
            f"geometric domination k<=3 and error bound within 3 SE at all n")


# ---------------------------------------------------------------------------
# 7. confirmation-phase LLR drift equals D

def test_criterion_07_llr_drift_equals_d():
    t0 = time.perf_counter()
    cases = [("bsc", make_bsc(0.1)),
             ("two-state", fsmc.make_example(fsmc.gamma_params(0.5)))]
    summaries = []
    for name, ch in cases:
        res = fsmc.burnashev_coefficient(ch)
        d = res.D.to_float()
        q = fsmc.induced_matrix(
            ch, StationaryPolicy.deterministic(res.f0, ch.n_inputs))
        start_cdf = np.cumsum(fsmc.stationary_measure(q))

        scheme = fsmc.build_scheme(
            ch, SchemeConfig(rate=0.0005, gamma=0.5, n=4000, trials=500,
                             seed=0))
        n_tilde = scheme.config.n_tilde
        assert n_tilde == 2000

        vals = np.empty(500)
        for k in range(500):
            gen = frng.stream(0, k)
            s0 = min(int((start_cdf <= gen.random()).sum()), ch.n_states - 1)
            _, llr, _ = fsmc.run_phase2(scheme, 0, gen, start_state=s0)
            vals[k] = llr / (n_tilde - 1)

        se = vals.std(ddof=1) / math.sqrt(len(vals))
        gap = abs(vals.mean() - d)
        assert gap <= 3.0 * se, (name, vals.mean(), d, se)
        summaries.append(f"{name}: |mean-D|={gap:.1e} <= 3SE={3 * se:.1e}")
    _report(7, 60.0, time.perf_counter() - t0, "; ".join(summaries))


# ---------------------------------------------------------------------------
# 8. zero-error regime when D is infinite

def test_criterion_08_zero_error_regime():
    t0 = time.perf_counter()
    ch = make_z()
    assert fsmc.burnashev_coefficient(ch).D.is_inf
    for n in (20, 40):
        cfg = SchemeConfig(rate=0.15, gamma=0.6, n=n, trials=10_000, seed=0)
        rep = fsmc.simulate(fsmc.build_scheme(ch, cfg))
        assert rep.error_count == 0, (n, rep.error_count)
        assert rep.aborted_trials == 0
    _report(8, 60.0, time.perf_counter() - t0,
            "error_count = 0 at both n in {20, 40} over 10^4 trials each")


# ---------------------------------------------------------------------------
# 9. scope statement: what Monte Carlo cannot reach, and what stands in

def test_criterion_09_validation_scope_statement():
    t0 = time.perf_counter()
    text = README.read_text()
    assert "not reproducible at desk scale" in text
    assert "LLR-drift" in text
    _report(9, 5.0, time.perf_counter() - t0,
            "the asymptotic trade-off -log(p_e)/E[T] -> E_B(R) involves error "
            "probabilities of order exp(-n*E_B) that no feasible Monte Carlo "
            "run can observe, and is not reproducible at desk scale; the "
            "finite-n bound checks and the LLR-drift identity (criteria 6-8) "
            "plus the exact closed-form and oracle checks of C and D "
            "(criteria 1-2) stand in as the operational validation")


# ---------------------------------------------------------------------------
# 10. CLI determinism: repeated runs and serial-vs-parallel agree byte-for-byte

def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    bsc = write_channel(tmp_path, make_bsc(0.1), "bsc.json")
    example = write_channel(tmp_path, fsmc.make_example(fsmc.gamma_params(0.5)),
                            "example.json")
    commands = [
        ("validate", str(example)),
        ("capacity", str(bsc)),
        ("burnashev", str(bsc)),
        ("reliability", str(bsc), "--points", "10"),
        ("simulate", str(bsc), "--rate", "0.18", "--gamma", "0.6",
         "--n", "20", "--trials", "500", "--seed", "0"),
        ("sweep-example", "--gamma-step", "0.1"),
        ("azuma", str(example), "--trials", "200", "--seed", "0"),
    ]
    for cmd in commands:
        outs = []
        for jobs in ("1", "1", "8"):     # two serial runs, then parallel
            proc = subprocess.run(
                [sys.executable, "-m", "fsmc.cli", *cmd, "--jobs", jobs],
                capture_output=True)
            assert proc.returncode == 0, (cmd, jobs, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], f"{cmd[0]}: rerun differs"
        assert outs[0] == outs[2], f"{cmd[0]}: --jobs 8 differs"
    _report(10, 120.0, time.perf_counter() - t0,
            f"{len(commands)} commands byte-identical across reruns and "
            f"--jobs 1 vs 8")
