"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
./src).  Each run starts fresh interpreters: a few that only set up (to
time set-up) and one that sets up, repeats the workload's round for the
given seconds, then checks the outputs.  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

BLAS runs single-threaded; with the program's own --jobs threads this keeps
the busy threads within the two cores of the reference machine.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
# BLAS single-threaded; one malloc arena, since per-thread arenas made peak
# RSS jump by 12% between runs of the same inputs when --jobs threads ran.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "MALLOC_ARENA_MAX": "1"}
WORKLOADS = ("mc-batch", "mc-decode", "plan")
SETUP_PROBES = 6
DEADLINE_S = 170.0


def clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can
    # be compared with the parent's launch time.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "setup", "measure"), default="main",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# child processes

def child_setup(args):
    """Import the program and write the workload's inputs; return timings."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = clock()
    import fsmc.cli                                       # noqa: F401
    import_s = clock() - t0
    if not os.path.realpath(fsmc.cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"fsmc imported from {fsmc.cli.__file__}, not from this checkout")
    import workloads
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(work, args.seed & (2**63 - 1))
    return wl, work, import_s


def run_rounds(wl, rounds, stop_at, tracer=None):
    """Whole rounds until the clock passes stop_at (at least one); the new ones."""
    import workloads
    first = len(rounds)
    while len(rounds) == first or clock() < stop_at:
        if tracer is not None:
            tracer.round = len(rounds)
        rnd = workloads.Round()
        wl.round(rnd)
        rounds.append(rnd)
    return rounds[first:]


def round_time(rounds) -> float:
    """Time for one round's calls: each call's median over the rounds, summed.

    Every round makes the same calls in the same order.  Each call's median
    comes from whichever round was typical for it, so the sum follows the
    machine's speed over the whole run rather than during one round, and a
    slow spell is left out call by call.  The benchmark's own work between
    calls is not counted."""
    return sum(statistics.median(col) for col in
               zip(*([rec.seconds for rec in rnd.records] for rnd in rounds)))


def evaluate(rounds):
    """Operation counts and check outcomes; checks run on the first round."""
    for rnd in rounds:
        for rec in rnd.records:
            if callable(rec.expect_rc):
                rec.expect_rc = rec.expect_rc()
    first = {rec.name: rec for rec in rounds[0].records}
    attempted = failed = 0
    problems = []
    for i, rnd in enumerate(rounds):
        for rec in rnd.records:
            attempted += 1
            bad = rec.failed_status
            if bad:
                if i == 0:
                    detail = rec.error or rec.err.strip() or f"exit status {rec.rc}"
                    print(f"perfbench: {rec.name} failed: {detail}", file=sys.stderr)
            elif i == 0:
                check = rounds[0].checks.get(rec.name)
                try:
                    found = check(rec, first) if check else []
                except Exception as exc:          # a crashing check is a failed check
                    found = [f"check raised {type(exc).__name__}: {exc}"]
                if found:
                    bad = True
                    problems += [f"{rec.name}: {p}" for p in found]
            else:
                ref = first.get(rec.name)
                key = rounds[0].keys.get(rec.name)
                same = ref is not None and (rec.rc, rec.out) == (ref.rc, ref.out) and (
                    key is None or ref.failed_status or key(rec.value) == key(ref.value))
                if not same:
                    bad = True
                    problems.append(f"{rec.name}: round {i} output differs from round 0")
            failed += bad
    return attempted, failed, problems


def traced_metrics(args, wl, rounds, setup_done, import_s):
    """Half the run untraced, half traced; per-layer figures per round."""
    import tracer as tr
    plain = run_rounds(wl, rounds, setup_done + args.seconds / 2.0)
    t = tr.Tracer()
    t.install()
    try:
        first = len(rounds)
        t.spans_on = True
        traced = run_rounds(wl, rounds, setup_done + args.seconds, t)
        t.spans_on = False
        if wl.simulates:
            # tracemalloc slows simulate several-fold, so its peak comes from
            # one extra round whose times are not used
            t.memory_on = True
            run_rounds(wl, rounds, 0.0)
            t.memory_on = False
    finally:
        t.uninstall()
    extra = report_counts(rounds[first])
    extra["cli.import_s"] = (import_s, "s")
    extra["trace.overhead_s"] = (round_time(traced) - round_time(plain), "s")
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    t.write(os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}"))
    return tr.layer_metrics(t, list(range(first, first + len(traced))), extra)


def child_measure(args):
    wl, work, import_s = child_setup(args)
    setup_done = clock()
    rounds = []
    try:
        if args.trace:
            metrics = traced_metrics(args, wl, rounds, setup_done, import_s)
        else:
            run_rounds(wl, rounds, setup_done + args.seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"wall_s": (round_time(rounds), "s"), "peak_rss_mb": (peak_mb, "MB")}
        t0 = clock()
        attempted, failed, problems = evaluate(rounds)
        print(f"perfbench: checks took {clock() - t0:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems[:20]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps({"setup_done": setup_done, "rounds": len(rounds),
                      "correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def report_counts(rnd) -> dict:
    """Per-round bases read from the simulate reports, and CLI output size."""
    epochs = uses = scores = 0
    out_bytes = 0
    for rec in rnd.records:
        out_bytes += len(rec.out.encode())
        if rec.name.startswith("simulate:") and rec.rc == 0:
            rep = json.loads(rec.out)
            e = int(round(rep["mean_epochs"] * rep["trials"]))
            epochs += e
            uses += e * (rep["n_hat"] + rep["n_tilde"])
            scores += e * rep["message_count"]
    return {"yamamoto_itoh.epochs": (epochs, "count"),
            "yamamoto_itoh.channel_uses": (uses, "count"),
            "yamamoto_itoh.decode_scores": (scores, "count"),
            "cli.stdout_bytes": (out_bytes, "bytes")}


# ---------------------------------------------------------------------------
# parent

def spawn(args, role, timeout):
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, **CHILD_ENV)
    start = clock()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                          timeout=max(1.0, timeout))
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {role} process exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {role} process printed nothing")
    doc = json.loads(lines[-1])
    return doc, doc["setup_done"] - start


def main(argv=None):
    args = parse(argv)
    if args.role == "setup":
        work = child_setup(args)[1]
        done = clock()
        shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"setup_done": done}))
        return 0
    if args.role == "measure":
        child_measure(args)
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "fsmc", "cli.py")):
        raise SystemExit("perfbench: no program source at src/fsmc; run from a checkout root")
    began = clock()
    samples = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            samples.append(spawn(args, "setup", 60.0)[1])
    doc, setup_s = spawn(args, "measure", DEADLINE_S - (clock() - began))
    samples.append(setup_s)
    metrics = doc["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    print(f"perfbench: {args.workload} seed {args.seed}: {doc['rounds']} rounds, "
          f"{doc['attempted']} operations, {doc['failed']} failed", file=sys.stderr)
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
