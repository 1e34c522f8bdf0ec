"""Tests of the benchmark itself: its checks pass on fresh seeds at reduced
size and reject deliberately corrupted outputs.

    python3 -m pytest perfbench -q

Seeds 9001-9010 were not used while the checks were developed.
"""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import fsmc  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

FRESH_SEEDS = range(9001, 9011)
SMALL = "0.02"
KNOWN_FAULTS = {"plan": {"reliability:g12"}}     # exits 1: map-pair enumeration cap


def one_round(name, seed, tmp_path, monkeypatch):
    monkeypatch.setenv(workloads.SCALE_ENV, SMALL)
    wl = workloads.WORKLOADS[name]()
    wl.setup(str(tmp_path), seed)
    rnd = workloads.Round()
    wl.round(rnd)
    return wl, rnd


@pytest.mark.parametrize("seed", FRESH_SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass_on_fresh_seeds(name, seed, tmp_path, monkeypatch):
    _, rnd = one_round(name, seed, tmp_path, monkeypatch)
    attempted, failed, problems = run.evaluate([rnd, rnd])
    assert problems == []
    failing = {r.name for r in rnd.records if r.failed_status}
    assert failing == KNOWN_FAULTS.get(name, set())
    assert (attempted, failed) == (2 * len(rnd.records), 2 * len(failing))


@pytest.fixture(scope="module")
def plan_round(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    try:
        yield one_round("plan", 9001, tmp_path_factory.mktemp("plan"), mp)
    finally:
        mp.undo()


def recheck(rnd, name, mutate):
    recs = {r.name: r for r in rnd.records}
    bad = mutate(recs[name])
    recs[name] = bad
    return rnd.checks[name](bad, recs)


def edit_json(rec, change):
    doc = json.loads(rec.out)
    change(doc)
    return dataclasses.replace(rec, out=json.dumps(doc))


def test_checks_accept_unchanged_outputs(plan_round):
    _, rnd = plan_round
    for name in ("burnashev:a4", "validate:r5", "lp:d8", "reliability:sym", "capacity:f14"):
        assert recheck(rnd, name, lambda r: r) == []


def test_d_moved_by_1e6_is_rejected(plan_round):
    _, rnd = plan_round

    def shift(doc):
        doc["D_nats"] += 1e-6
    assert recheck(rnd, "burnashev:a4", lambda r: edit_json(r, shift))


def test_reducible_channel_reported_ergodic_is_rejected(plan_round):
    _, rnd = plan_round

    def claim(doc):
        doc["assumption1"], doc["violating_map"] = True, None
    assert recheck(rnd, "validate:r5", lambda r: edit_json(r, claim))


def test_lp_value_and_reliability_shifts_are_rejected(plan_round):
    _, rnd = plan_round
    assert recheck(rnd, "lp:d8", lambda r: dataclasses.replace(
        r, value=(r.value[0] + 1e-6, r.value[1])))

    def bump(rec):
        lines = rec.out.split("\n")
        r, e = lines[3].split(",")
        lines[3] = f"{r},{float(e) * (1 + 1e-6):.9g}"
        return dataclasses.replace(rec, out="\n".join(lines))
    assert recheck(rnd, "reliability:sym", bump)


def test_capacity_not_matching_its_policy_is_rejected(plan_round):
    _, rnd = plan_round

    def lower(doc):
        doc["C_nats"] -= 1e-6
    assert recheck(rnd, "capacity:f14", lambda r: edit_json(r, lower))


def test_wilson_bound_shifted_is_rejected(tmp_path, monkeypatch):
    _, rnd = one_round("mc-batch", 9002, tmp_path, monkeypatch)
    rec = rnd.records[0]
    rep = json.loads(rec.out)
    args = (rep, 20, 0.6, 0.15, rep["trials"])
    assert ref.report_problems(*args) == []
    rep["p_e_ci"][1] += 1e-6
    assert any("Wilson" in p for p in ref.report_problems(*args))


def replay_inputs(path, trials, seed):
    k, initial = workloads._load_kernel(path)
    cfg = fsmc.SchemeConfig(rate=0.15, gamma=0.6, n=20, trials=trials, seed=seed)
    scheme = fsmc.build_scheme(fsmc.load_channel(path), cfg)
    traces = {}
    fsmc.simulate(scheme, trace_sink=lambda t, tr: traces.setdefault(t, []).append(
        [tr.epoch, tr.decoded, tr.phase1_correct, tr.sent_bit, tr.decided_bit, tr.llr]))
    meta = {"n": 20, "n_hat": cfg.n_hat, "message_count": cfg.message_count, "seed": seed,
            "max_epochs": cfg.max_epochs}
    return (ref.Sampler(k, initial), scheme.codebook, scheme.exponent_result.f0,
            scheme.exponent_result.f1, meta, ref.divergence(k)), traces


def test_non_ml_decoded_message_is_rejected(tmp_path):
    path = str(tmp_path / "two_state.json")
    workloads.inputs.write_channel(path, workloads.inputs.gamma_example(0.5), [0.5, 0.5])
    args, traces = replay_inputs(path, 30, 9003)
    assert ref.replay_trials(*args, traces, 30) == []
    smp, codebook, _, _, meta, _ = args
    # rebuild trial 0's first data phase to find a codeword that is not ML
    gen = ref.philox(9003, 0)
    first = gen.random(2)
    w = min(int(first[0] * meta["message_count"]), meta["message_count"] - 1)
    s = smp.initial(first[1])
    u = gen.random(meta["n"])
    path_cells = []
    for t in range(meta["n_hat"]):
        c = smp.cell(s, int(codebook[w, t, s]), float(u[t]))
        path_cells.append((s, c))
        s = c // smp.Y
    scores = ref.ml_scores(smp, codebook, path_cells)
    worse = int(np.argmin(scores))
    assert scores[worse] < scores.max() - 1e-9
    traces[0][0][1] = worse
    problems = ref.replay_trials(*args, traces, 30)
    assert any("decoded" in p for p in problems)


def test_llr_moved_is_rejected(tmp_path):
    path = str(tmp_path / "two_state.json")
    workloads.inputs.write_channel(path, workloads.inputs.gamma_example(0.5), [0.5, 0.5])
    args, traces = replay_inputs(path, 10, 9004)
    traces[1][0][5] += 1e-6
    assert any("llr" in p for p in ref.replay_trials(*args, traces, 10))


def test_later_round_must_repeat_the_first(tmp_path, monkeypatch):
    _, rnd = one_round("mc-decode", 9005, tmp_path, monkeypatch)
    other = workloads.Round(records=[dataclasses.replace(rnd.records[0], out=rnd.records[0].out
                                                         .replace("1", "2", 1))])
    attempted, failed, problems = run.evaluate([rnd, other])
    assert (attempted, failed) == (2, 1) and problems


def test_traced_counts_repeat_and_tracer_uninstalls(tmp_path, monkeypatch):
    monkeypatch.setenv(workloads.SCALE_ENV, SMALL)
    wl = workloads.SinglePath()
    wl.setup(str(tmp_path), 9006)
    original = fsmc.planner.capacity
    t = tracer.Tracer()
    t.install()
    try:
        assert fsmc.planner.capacity is not original
        assert fsmc.yamamoto_itoh.capacity is fsmc.planner.capacity   # copied name wrapped too
        t.spans_on = True
        for r in range(2):
            t.round = r
            wl.round(workloads.Round())
    finally:
        t.uninstall()
    assert fsmc.planner.capacity is original
    per = t.per_round()
    counts = [{k: v[0] for k, v in per[r]["fn"].items()} for r in range(2)]
    assert counts[0] == counts[1]
    assert counts[0]["yamamoto_itoh.run_phase2"] == 2 * wl.PHASES
    assert counts[0]["occupation.simulate_trajectory"] == 2 * wl.azuma_trials
    m = tracer.layer_metrics(t, [0, 1], {})
    assert m["yamamoto_itoh.run_phase2_calls"][0] == 2 * wl.PHASES
    assert m["planner.capacity_calls"][0] == 2
    for r in range(2):
        mods = per[r]["mod"]
        assert all(v[2] <= v[1] + 1e-9 for v in mods.values())      # self within inclusive


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ("run.py", "workloads.py", "reference.py", "inputs.py", "tracer.py"):
        (bench / f).write_bytes(open(os.path.join(HERE, f), "rb").read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "plan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
