"""The three benchmark workloads: seeded inputs, one round of calls, checks.

A round is a closed sequence of calls, each starting when the last returns,
and every round of a run makes the same calls.  Calls go through
`fsmc.cli.main` where a subcommand exists and through the public library
otherwise; names are looked up on the `fsmc` modules at call time so that a
traced run sees every call.  Each call may carry a check, run on the first
round after the timed part; later rounds must reproduce the first round's
output exactly.
"""
from __future__ import annotations

import io
import json
import math
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import inputs
import reference as ref

SCALE_ENV = "PERFBENCH_SCALE"      # test-only shrink factor for trial counts


def _scaled(n: int, floor: int = 1) -> int:
    scale = float(os.environ.get(SCALE_ENV, "1"))
    return max(floor, int(round(n * scale)))


@dataclass
class Record:
    name: str
    rc: int | None = None
    out: str = ""
    err: str = ""
    value: object = None
    error: str | None = None          # exception raised by the call
    expect_rc: int = 0
    seconds: float = 0.0              # wall time of the call

    @property
    def failed_status(self) -> bool:
        return self.error is not None or self.rc != self.expect_rc


@dataclass
class Round:
    """Runs one round's calls and keeps what each returned."""

    records: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    keys: dict = field(default_factory=dict)

    def op(self, name, thunk, check=None, expect_rc=0, key=None):
        rec = Record(name, expect_rc=expect_rc)
        t0 = time.perf_counter()
        try:
            rec.rc, rec.out, rec.err, rec.value = thunk()
        except Exception as exc:            # any raise is a failed operation
            rec.error = f"{type(exc).__name__}: {exc}"
        rec.seconds = time.perf_counter() - t0
        self.records.append(rec)
        if check is not None:
            self.checks[name] = check
        if key is not None:
            self.keys[name] = key
        return rec.value


def cli(*argv):
    """Thunk running `fsmc <argv>` in-process with stdout and stderr captured."""
    import fsmc.cli
    argv = [str(a) for a in argv]

    def thunk():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = fsmc.cli.main(argv)
        return rc, out.getvalue(), err.getvalue(), None
    return thunk


def lib(fn):
    def thunk():
        return 0, "", "", fn()
    return thunk


def _load_kernel(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return np.asarray(doc["kernel"], dtype=np.float64), np.asarray(doc["initial"])


# ---------------------------------------------------------------------------
# simulate workloads

def _sim_args(path, c):
    return ("simulate", path, "--rate", c["rate"], "--gamma", c["gamma"], "--n", c["n"],
            "--trials", c["trials"], "--seed", c["seed"], "--jobs", 1)


def _scheme_problems(k, scheme, closed=None):
    """Planner results inside a built scheme against own computations."""
    problems = []
    d_ref = ref.divergence(k)
    d_prog = scheme.exponent_result.D.to_float()
    if not ref.close(d_prog, d_ref, rel=1e-9, abs_=1e-12):
        problems.append(f"D {d_prog} != brute force {d_ref}")
    pi = scheme.capacity_result.optimal_policy.matrix()
    c_ref = float(ref.policy_values(k, pi[None])[0])
    if not ref.close(scheme.capacity_result.C, c_ref, rel=1e-9, abs_=1e-12):
        problems.append(f"C {scheme.capacity_result.C} != own evaluation {c_ref}")
    if closed is not None:
        c_cf, d_cf = closed
        if not ref.close(scheme.capacity_result.C, c_cf, rel=1e-9, abs_=1e-12):
            problems.append(f"C {scheme.capacity_result.C} != closed form {c_cf}")
        if not ref.close(d_prog, d_cf, rel=1e-9, abs_=1e-12):
            problems.append(f"D {d_prog} != closed form {d_cf}")
    cb = scheme.codebook
    for s in range(k.shape[0]):
        used = np.bincount(cb[:, :, s].ravel().astype(np.int64), minlength=k.shape[1])
        if np.any((used > 0) & (pi[s] <= 0.0)):
            problems.append(f"codebook uses inputs outside the policy support in state {s}")
        n = cb.shape[0] * cb.shape[1]
        se = np.sqrt(pi[s] * (1.0 - pi[s]) / n)
        if np.any(np.abs(used / n - pi[s]) > 6.0 * se + 1e-12):
            problems.append(f"codebook input frequencies {used / n} far from policy {pi[s]}")
    return problems, d_ref


def _zero_error_problems(rep, codebook):
    """With D = +inf a wrong message is never confirmed, so every error is a
    trial that ran out of epochs; that happens only to a message whose
    codeword is duplicated in the random codebook (the same seed draws the
    same codebook whatever the trial count)."""
    problems = []
    if rep["error_count"] != rep["aborted_trials"]:
        problems.append(f"{rep['error_count'] - rep['aborted_trials']} undetected errors "
                        "on a zero-error channel")
    flat = codebook.reshape(codebook.shape[0], -1)
    if rep["aborted_trials"] and len(np.unique(flat, axis=0)) == len(flat):
        problems.append(f"{rep['aborted_trials']} aborted trials with no duplicate codeword")
    return problems


def simulate_check(path, c, replay_trials, closed=None, zero_errors=False, bsc_p=None):
    """Check a simulate report and replay the configuration's first trials."""

    def check(rec, recs):
        import fsmc
        rep = json.loads(rec.out)
        problems = ref.report_problems(rep, c["n"], c["gamma"], c["rate"], c["trials"])
        k, initial = _load_kernel(path)
        if bsc_p is not None and rep["mean_llr_per_symbol_h0"] is not None:
            a = math.log((1.0 - bsc_p) / bsc_p)
            d_cf = ref.bsc_divergence(bsc_p)
            n_h0 = ref.epochs_total(rep) * (1.0 - rep["phase1_error_rate"])
            se = math.sqrt(4.0 * bsc_p * (1.0 - bsc_p) * a * a / ((rep["n_tilde"] - 1) * n_h0))
            if abs(rep["mean_llr_per_symbol_h0"] - d_cf) > 5.0 * se:
                problems.append(f"H0 mean LLR {rep['mean_llr_per_symbol_h0']} not within 5 SE "
                                f"({se:.3g}) of D = {d_cf}")
        # separate untimed call: same configuration, fewer trials, traced
        cfg = fsmc.SchemeConfig(rate=c["rate"], gamma=c["gamma"], n=c["n"],
                                trials=replay_trials, seed=c["seed"])
        scheme = fsmc.build_scheme(fsmc.load_channel(path), cfg)
        traces = {}
        fsmc.simulate(scheme, trace_sink=lambda t, tr: traces.setdefault(t, []).append(
            (tr.epoch, tr.decoded, tr.phase1_correct, tr.sent_bit, tr.decided_bit, tr.llr)))
        more, d_ref = _scheme_problems(k, scheme, closed)
        problems += more
        if zero_errors:
            problems += _zero_error_problems(rep, scheme.codebook)
        meta = {"n": c["n"], "n_hat": cfg.n_hat, "message_count": cfg.message_count,
                "seed": c["seed"], "max_epochs": cfg.max_epochs}
        problems += ref.replay_trials(ref.Sampler(k, initial), scheme.codebook,
                                      scheme.exponent_result.f0, scheme.exponent_result.f1,
                                      meta, d_ref, traces, replay_trials)
        return problems
    return check


class McBatch:
    """Many short trials: per-trial stream setup and per-epoch work dominate."""

    name = "mc-batch"
    simulates = True

    def setup(self, work, seed):
        self.ex = os.path.join(work, "two_state.json")
        self.z = os.path.join(work, "z.json")
        inputs.write_channel(self.ex, inputs.gamma_example(0.5), [0.5, 0.5])
        inputs.write_channel(self.z, inputs.z_kernel(), [1.0])
        base = {"rate": 0.15, "gamma": 0.6, "n": 20, "seed": seed}
        self.c_ex = dict(base, trials=_scaled(100_000))
        self.c_z = dict(base, trials=_scaled(10_000))

    def round(self, rnd: Round):
        rnd.op("simulate:two-state", cli(*_sim_args(self.ex, self.c_ex)),
               check=simulate_check(self.ex, self.c_ex, 400))
        rnd.op("simulate:z", cli(*_sim_args(self.z, self.c_z)),
               check=simulate_check(self.z, self.c_z, 400, zero_errors=True))


class McDecode:
    """Few trials against 65536 codewords: the phase-1 ML decoder dominates."""

    name = "mc-decode"
    simulates = True

    def setup(self, work, seed):
        self.p = 0.1
        self.bsc = os.path.join(work, "bsc.json")
        inputs.write_channel(self.bsc, inputs.bsc_kernel(self.p), [1.0])
        self.c = {"rate": 0.18, "gamma": 0.6, "n": 80, "seed": seed,
                  "trials": _scaled(2000, floor=50)}

    def round(self, rnd: Round):
        closed = (ref.bsc_capacity(self.p), ref.bsc_divergence(self.p))
        rnd.op("simulate:bsc", cli(*_sim_args(self.bsc, self.c)),
               check=simulate_check(self.bsc, self.c, 40, closed=closed, bsc_p=self.p))


# ---------------------------------------------------------------------------
# single-trial workload

def _history_policy(rows):
    def policy(states, outputs):
        return rows[outputs[-1] % 2] if outputs else rows[0]
    return policy


class SinglePath:
    """Long verification phases one trial at a time, plus a history-dependent
    concentration check: per-step overhead of the single-trial paths.  Its
    calls are part of each `plan` round, where no batch path runs either."""

    N_TILDE = 1000
    PHASES = 40                          # per channel; the drift check's SE needs them
    MIXED = ((0.3, 0.7), (0.8, 0.2))

    def setup(self, work, seed):
        self.seed = seed
        self.paths = {"bsc": os.path.join(work, "bsc.json"),
                      "two-state": os.path.join(work, "two_state.json")}
        self.kernels = {"bsc": (inputs.bsc_kernel(0.1), [1.0]),
                        "two-state": (inputs.gamma_example(0.5), [0.5, 0.5])}
        for name, (k, initial) in self.kernels.items():
            inputs.write_channel(self.paths[name], k, initial)
        self.azuma_trials = _scaled(200, floor=100)

    def _starts(self, name, start_cdf):
        """Per phase: its Philox stream, positioned after the start-state draw."""
        base = 1_000_000 * (1 + sorted(self.paths).index(name))
        for j in range(self.PHASES):
            gen = ref.philox(self.seed, base + j)
            s0 = min(int(np.searchsorted(start_cdf, gen.random(), side="right")),
                     len(start_cdf) - 1)
            yield j, gen, s0

    def round(self, rnd: Round):
        import fsmc
        for name, path in self.paths.items():
            ch = rnd.op(f"load:{name}", lib(lambda: fsmc.load_channel(path)))
            cfg = fsmc.SchemeConfig(rate=0.0005, gamma=0.5, n=2 * self.N_TILDE, trials=1,
                                    seed=self.seed)
            scheme = rnd.op(f"scheme:{name}", lib(lambda: fsmc.build_scheme(ch, cfg)),
                            check=self._scheme_check(name),
                            key=lambda sc: (sc.capacity_result.C, sc.exponent_result.D.to_float(),
                                            sc.exponent_result.f0, sc.exponent_result.f1))
            for j, gen, s0 in self._starts(name, self._start_cdf(name, scheme)):
                last = j == self.PHASES - 1
                rnd.op(f"phase2:{name}:{j}",
                       lib(lambda: fsmc.run_phase2(scheme, 0, gen, start_state=s0)),
                       check=self._drift_check(name) if last else None,
                       key=lambda v: v)
            rnd.op(f"azuma:{name}", lib(lambda: self._azuma(fsmc, ch)),
                   check=self._azuma_check(name), key=lambda v: sorted(v.items()))

    def _azuma(self, fsmc, ch):
        rows = [fsmc.InputDist(np.array(r)) for r in self.MIXED]
        grid = fsmc.ControlGrid.with_points(ch.n_inputs, rows + [fsmc.InputDist.uniform(ch.n_inputs)])
        return fsmc.azuma_tail_check(ch, _history_policy(rows), grid, n=500, eps=0.2,
                                     trials=self.azuma_trials, seed=self.seed)

    def _start_cdf(self, name, scheme):
        """Stationary law of the confirm map f0, by the benchmark's own solve."""
        if scheme is None:
            return np.array([1.0])
        k, _ = self.kernels[name]
        f0 = np.asarray(scheme.exponent_result.f0)
        mu = ref.stationary(ref.state_kernel(k)[np.arange(k.shape[0]), f0, :])
        return np.cumsum(mu)

    def _scheme_check(self, name):
        def check(rec, recs):
            return _scheme_problems(self.kernels[name][0], rec.value)[0]
        return check

    def _drift_check(self, name):
        def check(rec, recs):
            k, initial = self.kernels[name]
            scheme = recs[f"scheme:{name}"].value
            f0 = np.asarray(scheme.exponent_result.f0)
            f1 = np.asarray(scheme.exponent_result.f1)
            d_ref = ref.divergence(k)
            smp = ref.Sampler(k, initial)
            problems, vals = [], []
            for j, gen, s0 in self._starts(name, self._start_cdf(name, scheme)):
                r = recs[f"phase2:{name}:{j}"]
                if r.failed_status:
                    continue
                decided, llr, s_end = r.value
                ref_llr, _, ref_end = ref.phase2_replay(smp, f0, f0, f1, s0,
                                                        gen.random(self.N_TILDE))
                if not ref.close(llr, ref_llr, rel=1e-9, abs_=1e-9) or s_end != ref_end:
                    problems.append(f"phase {j}: (llr, end) ({llr}, {s_end}) != replay "
                                    f"({ref_llr}, {ref_end})")
                stat = ref_llr / self.N_TILDE
                want = 0 if stat >= -d_ref / 4.0 else 1
                if decided != want and abs(stat + d_ref / 4.0) > 1e-9:
                    problems.append(f"phase {j}: decided {decided}, threshold rule gives {want}")
                vals.append(llr / (self.N_TILDE - 1))
            if len(vals) >= 2:
                vals = np.asarray(vals)
                se = vals.std(ddof=1) / math.sqrt(len(vals))
                if abs(vals.mean() - d_ref) > 5.0 * se:
                    problems.append(f"LLR drift {vals.mean()} not within 5 SE ({se:.3g}) "
                                    f"of D = {d_ref}")
            return problems
        return check

    def _azuma_check(self, name):
        def check(rec, recs):
            k, initial = self.kernels[name]
            X = k.shape[1]
            grid = np.vstack([np.eye(X), np.array(self.MIXED), np.full(X, 1.0 / X)])
            first = X                     # index of MIXED[0]; MIXED[1] follows it

            def choose(s, last_y):
                return np.where(last_y < 0, first, first + (last_y % 2))
            counts = ref.occupation_violations(k, initial, grid, 500, 0.2,
                                               self.azuma_trials, self.seed, choose)
            return ref.azuma_problems(rec.value, k.shape[0], 500, 0.2, self.azuma_trials,
                                      counts)
        return check


# ---------------------------------------------------------------------------
# planner workload

@dataclass
class Chan:
    name: str
    path: str
    ops: tuple


class Plan:
    """Analysis commands on seeded sparse ISI channels, then the single-trial
    paths of `SinglePath`; no batch is simulated."""

    name = "plan"
    simulates = False
    # (name, states, inputs, outputs, kind, commands)
    SPECS = (
        ("a4", 4, 2, 2, "finite", ("validate", "burnashev", "lp", "azuma")),
        ("b4", 4, 3, 2, "finite", ("validate", "burnashev", "lp")),
        ("c6", 6, 2, 3, "sparse", ("validate", "capacity", "burnashev", "reliability", "azuma")),
        ("d8", 8, 2, 2, "finite", ("validate", "burnashev", "lp")),
        ("e9", 9, 2, 2, "sparse", ("validate", "burnashev")),
        ("f14", 14, 2, 2, "sparse", ("validate", "capacity")),
        ("g12", 12, 2, 2, "no-isi", ("capacity", "reliability")),
        ("r5", 5, 2, 2, "reducible", ("validate",)),
        ("r10", 10, 2, 2, "reducible", ("validate",)),
    )
    SWEEP = ("sweep-example", "--jobs", 2, "--gamma-step", 0.02, "--pg", 0.001, "--pb", 0.1,
             "--alpha0", 0.7, "--beta0", 0.3)

    def setup(self, work, seed):
        self.seed = seed
        self.kernels, self.chans, self._ergodic_memo = {}, [], {}
        sym = os.path.join(work, "sym.json")
        k = inputs.symmetric_example()
        inputs.write_channel(sym, k, [0.5, 0.5])
        self.kernels["sym"] = (k, np.array([0.5, 0.5]))
        self.chans.append(Chan("sym", sym, ("validate", "capacity", "burnashev", "reliability",
                                            "azuma", "lp")))
        for i, (name, S, X, Y, kind, ops) in enumerate(self.SPECS):
            gen = inputs.rng_for(seed, 7, i)
            if kind == "reducible":
                k, init = inputs.reducible_kernel(gen, S, X, Y)
            elif kind == "no-isi":
                k, init = inputs.no_isi_kernel(gen, S, X, Y)
            else:
                k, init = inputs.sparse_isi_kernel(gen, S, X, Y, finite_d=kind == "finite")
            path = os.path.join(work, f"{name}.json")
            inputs.write_channel(path, k, init)
            self.kernels[name] = (k, init)
            self.chans.append(Chan(name, path, ops))
        # cost table for the average-cost LP: g(s, x) = max_x1 KL, finite here
        self.lp_cost = {c.name: ref.corner_gain(self.kernels[c.name][0])
                        for c in self.chans if "lp" in c.ops}
        self.single = SinglePath()
        self.single.setup(work, seed)

    def _ergodic(self, name):
        if name not in self._ergodic_memo:
            k, _ = self.kernels[name]
            self._ergodic_memo[name] = bool(ref.map_irreducible(k, ref.all_maps(*k.shape[:2])).all())
        return self._ergodic_memo[name]

    def round(self, rnd: Round):
        import fsmc
        for c in self.chans:
            for cmd in c.ops:
                name = f"{cmd}:{c.name}"
                if cmd == "validate":
                    rnd.op(name, cli("validate", c.path), check=self._validate_check(c.name),
                           expect_rc=lambda name=c.name: 0 if self._ergodic(name) else 1)
                elif cmd == "lp":
                    g = self.lp_cost[c.name]
                    rnd.op(name, lib(lambda: fsmc.lp_average_cost(
                        fsmc.load_channel(c.path), g, fsmc.ControlGrid.corners(g.shape[1]))),
                        check=self._lp_check(c.name),
                        key=lambda v: (v[0], v[1].weights.tobytes()))
                elif cmd == "azuma":
                    rnd.op(name, cli("azuma", c.path, "--seed", self.seed),
                           check=self._azuma_check(c.name))
                else:
                    rnd.op(name, cli(cmd, c.path), check=getattr(self, f"_{cmd}_check")(c.name))
        rnd.op("sweep-example", cli(*self.SWEEP), check=self._sweep_check)
        self.single.round(rnd)

    # -- checks -------------------------------------------------------------

    def _validate_check(self, name):
        def check(rec, recs):
            k, _ = self.kernels[name]
            S, X, _, Y = k.shape
            doc = json.loads(rec.out)
            maps = ref.all_maps(S, X)
            irr = ref.map_irreducible(k, maps)
            problems = []
            if doc["assumption1"] != bool(irr.all()):
                problems.append(f"assumption1 {doc['assumption1']} but closure says {irr.all()}")
            if doc["violating_map"] is not None:
                f = np.array([[int(lbl[1:]) for lbl in doc["violating_map"]]])
                if ref.map_irreducible(k, f)[0]:
                    problems.append(f"violating map {doc['violating_map']} is irreducible")
            ps = ref.state_kernel(k)
            no_isi = float((ps.max(axis=1) - ps.min(axis=1)).max()) <= 1e-12
            ach = k.max(axis=1) > 0.0
            floor = k.min(axis=1)
            lam = np.array([floor[s][ach[s]].min() for s in range(S)])
            z = int((k.max(axis=(0, 1)) > 0.0).sum())
            if (doc["states"], doc["inputs"], doc["outputs"], doc["z_size"], doc["no_isi"]) != \
                    (S, X, Y, z, no_isi):
                problems.append(f"structure {doc} != ({S}, {X}, {Y}, z={z}, no_isi={no_isi})")
            if not (ref.close(doc["lambda"], lam.min()) and all(
                    ref.close(a, b) for a, b in zip(doc["lambda_per_state"], lam))):
                problems.append(f"lambda {doc['lambda_per_state']} != {lam.tolist()}")
            return problems
        return check

    def _capacity_value(self, name, doc):
        k, _ = self.kernels[name]
        pi = np.asarray(doc["policy"], dtype=np.float64)
        pi = pi / pi.sum(axis=1, keepdims=True)
        return k, pi, float(ref.policy_values(k, pi[None])[0])

    def _capacity_check(self, name):
        def check(rec, recs):
            doc = json.loads(rec.out)
            k, pi, own = self._capacity_value(name, doc)
            S, X = k.shape[:2]
            c = doc["C_nats"]
            problems = []
            if not ref.close(c, own, rel=0.0, abs_=1e-8):
                problems.append(f"C {c} != own evaluation of the policy {own}")
            mu = ref.stationary(np.einsum("sx,sxv->sv", pi, ref.state_kernel(k)))
            if not np.allclose(doc["ergodic_measure"], mu, rtol=0.0, atol=1e-8):
                problems.append(f"ergodic measure {doc['ergodic_measure']} != {mu.tolist()}")
            uniform = float(ref.policy_values(k, np.full((1, S, X), 1.0 / X))[0])
            det = float(ref.deterministic_values(k).max())
            if c < max(uniform, det) - 1e-9 or c > math.log(X) + 1e-9:
                problems.append(f"C {c} below uniform {uniform} / maps {det} or above ln|X|")
            if name == "sym":
                p_g, p_b = 0.001, 0.1
                cf = 0.5 * (ref.bsc_capacity(p_g) + ref.bsc_capacity(p_b))
                if not ref.close(c, cf):
                    problems.append(f"C {c} != closed form {cf}")
            return problems
        return check

    def _burnashev_check(self, name):
        def check(rec, recs):
            k, _ = self.kernels[name]
            doc = json.loads(rec.out)
            d = float(doc["D_nats"])
            d_ref = ref.divergence(k)
            problems = []
            if not ref.close(d, d_ref):
                problems.append(f"D {d} != brute force {d_ref}")
            f0 = [int(lbl[1:]) for lbl in doc["f0"]]
            f1 = [int(lbl[1:]) for lbl in doc["f1"]]
            pair = ref.pair_value(k, f0, f1)
            if not ref.close(pair, d_ref):
                problems.append(f"pair ({f0}, {f1}) reaches {pair}, not D = {d_ref}")
            terms = [float(t) for t in doc["per_state_terms"]]
            if math.isfinite(d_ref):
                if not ref.close(sum(terms), d_ref):
                    problems.append(f"per-state terms sum to {sum(terms)}, not {d_ref}")
            else:
                w = doc["witness"]
                s, v, y = int(w["state"][1:]), int(w["next_state"][1:]), int(w["output"][1:])
                if not (k[s, f0[s], v, y] > 0.0 and k[s, f1[s], v, y] == 0.0):
                    problems.append(f"witness {w} does not separate f0 from f1")
            if name == "sym":
                cf = 0.5 * (ref.bsc_divergence(0.001) + ref.bsc_divergence(0.1))
                if not ref.close(d, cf):
                    problems.append(f"D {d} != closed form {cf}")
            return problems
        return check

    def _reliability_check(self, name):
        def check(rec, recs):
            k, _ = self.kernels[name]
            cap = recs.get(f"capacity:{name}")
            if cap is None or cap.failed_status:
                return ["no capacity reference for this channel"]
            c = self._capacity_value(name, json.loads(cap.out))[2]
            d_ref = ref.divergence(k)
            lines = rec.out.strip().split("\n")
            problems = [] if lines[0] == "R_nats,EB_nats" else [f"header {lines[0]!r}"]
            rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
            if len(rows) != 20:
                problems.append(f"{len(rows)} rates printed, not 20")
            for i, (r, e) in enumerate(rows, start=1):
                # rates are C i/21, so D (1 - R/C) is D (1 - i/21)
                if not ref.close(r, c * i / 21.0):
                    problems.append(f"rate {r} != C * {i}/21 with C = {c}")
                want = math.inf if math.isinf(d_ref) else d_ref * (1.0 - i / 21.0)
                if not ref.close(e, want):
                    problems.append(f"E_B({r}) = {e} != D (1 - R/C) = {want}")
            return problems
        return check

    def _azuma_check(self, name):
        def check(rec, recs):
            k, initial = self.kernels[name]
            S, X = k.shape[:2]
            grid = np.vstack([np.eye(X), np.full(X, 1.0 / X)])
            counts = ref.occupation_violations(k, initial, grid, 500, 0.2, 1000, self.seed,
                                               lambda s, y: np.full(s.shape, X))
            return ref.azuma_problems(json.loads(rec.out), S, 500, 0.2, 1000, counts)
        return check

    def _lp_check(self, name):
        def check(rec, recs):
            k, _ = self.kernels[name]
            value, eta = rec.value
            d_ref = ref.divergence(k)
            problems = []
            if not ref.close(value, d_ref, rel=1e-9, abs_=1e-12):
                problems.append(f"LP value {value} != D = {d_ref}")
            w = np.asarray(eta.weights)
            flow = np.einsum("jk,jks->s", w, ref.state_kernel(k))
            if abs(w.sum() - 1.0) > 1e-9 or np.abs(w.sum(axis=1) - flow).max() > 1e-9:
                problems.append("LP occupation measure is not stationary")
            if not ref.close(float((w * self.lp_cost[name]).sum()), value, rel=1e-9):
                problems.append("LP value does not match its occupation measure")
            return problems
        return check

    def _sweep_check(self, rec, recs):
        lines = rec.out.strip().split("\n")
        cols = lines[0].split(",")
        problems = []
        if len(lines) - 1 != 49:
            problems.append(f"{len(lines) - 1} sweep rows, not 49")
        for ln in lines[1:]:
            row = dict(zip(cols, (float(v) for v in ln.split(","))))
            k = inputs.gamma_example(row["gamma"])
            maps, per_f0 = ref.divergence_by_f0(k)
            if not ref.close(row["D_nats"], per_f0.max()):
                problems.append(f"gamma {row['gamma']}: D {row['D_nats']} != {per_f0.max()}")
            for m, v in zip(maps, per_f0):
                if not ref.close(row[f"klf{m[0]}{m[1]}"], v):
                    problems.append(f"gamma {row['gamma']}: klf{m[0]}{m[1]} != {v}")
            pi = np.array([[[1.0 - row["piG_1"], row["piG_1"]], [1.0 - row["piB_1"], row["piB_1"]]]])
            own = float(ref.policy_values(k, pi)[0])
            uniform = float(ref.policy_values(k, np.full((1, 2, 2), 0.5))[0])
            if not ref.close(row["C_nats"], own, rel=0.0, abs_=1e-8) or row["C_nats"] < uniform - 1e-9:
                problems.append(f"gamma {row['gamma']}: C {row['C_nats']} vs policy value {own}, "
                                f"uniform {uniform}")
        return problems


WORKLOADS = {w.name: w for w in (McBatch, McDecode, Plan)}
