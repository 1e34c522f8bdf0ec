"""Command-line front end.

Payloads (JSON or CSV) go to stdout, diagnostics to stderr; every float is
printed with 9 significant digits and infinities render as "+inf"/"-inf".
Exit status is 0 exactly when no error occurred.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .channel import ChannelError, InputDist, StationaryPolicy, load_channel, \
    achievable_pairs, is_no_isi, lambda_values
from .costs import ExtReal
from .ergodic import check_assumption1
from .gallery import sweep_gamma
from .occupation import ControlGrid, azuma_tail_check
from .planner import burnashev_coefficient, capacity, capacity_grid_oracle, \
    reliability_curve
from .yamamoto_itoh import SchemeConfig, build_scheme, simulate

LN2 = math.log(2.0)


def _fmt(x) -> str:
    """One float, 9 significant digits; infinities as quoted-string tokens."""
    x = float(x)
    if math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return "%.9g" % x


def _dump(obj, indent=0) -> str:
    """Deterministic JSON with 9-significant-digit numbers."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x) or math.isnan(x):
            return json.dumps(_fmt(x))
        return _fmt(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, ExtReal):
        return _dump(obj.to_float())
    if isinstance(obj, np.ndarray):
        return _dump(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + _dump(v, indent + 2) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + _dump(v, indent + 2)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit_json(obj):
    sys.stdout.write(_dump(obj) + "\n")


def _load(args):
    return load_channel(args.channel, renormalize=getattr(args, "renormalize", False))


# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    ch = _load(args)
    lam, per_state = lambda_values(ch)
    ok, violators = check_assumption1(ch)
    doc = {
        "states": ch.n_states,
        "inputs": ch.n_inputs,
        "outputs": ch.n_outputs,
        "no_isi": is_no_isi(ch),
        "lambda": lam,
        "lambda_per_state": [float(v) for v in per_state],
        "z_size": len(achievable_pairs(ch)),
        "assumption1": ok,
        "violating_map": None if ok else [ch.input_labels[x] for x in violators[0]],
    }
    _emit_json(doc)
    if not ok:
        print(f"error: reducible under deterministic map {violators[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_capacity(args) -> int:
    ch = _load(args)
    unit, suffix = (LN2, "bits") if args.bits else (1.0, "nats")
    if args.grid is not None:
        val = capacity_grid_oracle(ch, args.grid)
        _emit_json({f"C_oracle_{suffix}": val / unit, "resolution": args.grid})
        return 0
    res = capacity(ch)
    _emit_json({
        f"C_{suffix}": res.C / unit,
        "policy": res.optimal_policy.matrix(),
        "ergodic_measure": res.ergodic_measure,
        "diagnostics": res.solver_diagnostics,
    })
    return 0


def cmd_burnashev(args) -> int:
    ch = _load(args)
    unit, suffix = (LN2, "bits") if args.bits else (1.0, "nats")
    res = burnashev_coefficient(ch)
    witness = res.diagnostics.get("witness")
    if witness is not None:
        witness = {
            "state": ch.state_labels[witness["state"]],
            "next_state": ch.state_labels[witness["next_state"]],
            "output": ch.output_labels[witness["output"]],
        }
    _emit_json({
        f"D_{suffix}": res.D.to_float() / unit if res.D.is_finite else math.inf,
        "f0": [ch.input_labels[x] for x in res.f0],
        "f1": [ch.input_labels[x] for x in res.f1],
        "per_state_terms": [t / unit for t in res.per_state_terms],
        f"finite_submax_{suffix}": res.diagnostics["finite_submax_nats"] / unit,
        "witness": witness,
    })
    return 0


def cmd_reliability(args) -> int:
    ch = _load(args)
    unit, suffix = (LN2, "bits") if args.bits else (1.0, "nats")
    res_c = capacity(ch)
    res_d = burnashev_coefficient(ch)
    curve = reliability_curve(res_c.C, res_d.D, args.points)
    sys.stdout.write(f"R_{suffix},EB_{suffix}\n")
    for r, e in curve:
        sys.stdout.write(f"{_fmt(r / unit)},{_fmt(e.to_float() / unit)}\n")
    return 0


def cmd_simulate(args) -> int:
    ch = _load(args)
    cfg = SchemeConfig(rate=args.rate, gamma=args.gamma, n=args.n, trials=args.trials,
                       seed=args.seed, confirm_threshold=args.threshold,
                       max_epochs=args.max_epochs)
    scheme = build_scheme(ch, cfg)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("trial,epoch,decoded,correct,sent_bit,decided_bit,llr\n")

            def sink(trial, tr):
                fh.write(f"{trial},{tr.epoch},{tr.decoded},{int(tr.phase1_correct)},"
                         f"{tr.sent_bit},{tr.decided_bit},{_fmt(tr.llr)}\n")
            report = simulate(scheme, trace_sink=sink)
    else:
        report = simulate(scheme)
    doc = report.to_json_dict()
    doc["message_count"] = cfg.message_count
    doc["n_hat"] = cfg.n_hat
    doc["n_tilde"] = cfg.n_tilde
    _emit_json(doc)
    return 0


def cmd_sweep_example(args) -> int:
    rows = sweep_gamma(p_g=args.pg, p_b=args.pb, alpha0=args.alpha0, beta0=args.beta0,
                       gamma_step=args.gamma_step)
    cols = ["gamma", "C_nats", "piG_1", "piB_1", "D_nats",
            "klf00", "klf01", "klf10", "klf11"]
    sys.stdout.write(",".join(cols) + "\n")
    for row in rows:
        sys.stdout.write(",".join(_fmt(row[c]) for c in cols) + "\n")
    return 0


def cmd_azuma(args) -> int:
    ch = _load(args)
    uni = InputDist.uniform(ch.n_inputs)
    grid = ControlGrid.with_points(ch.n_inputs, [uni])
    policy = StationaryPolicy.uniform(ch.n_states, ch.n_inputs)
    doc = azuma_tail_check(ch, policy, grid, args.n, args.eps, args.trials, args.seed)
    _emit_json(doc)
    return 0


# ---------------------------------------------------------------------------

@functools.cache                     # parse_args leaves the parser as it found it
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fsmc",
        description="Capacity, error exponents, and variable-length coding "
                    "simulation for finite-state channels with state feedback.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, channel=True):
        if channel:
            sp.add_argument("channel", help="path to a channel JSON file")
            sp.add_argument("--renormalize", action="store_true",
                            help="repair row sums off by at most 1e-6")
        sp.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored, for scripts that pass it; one thread runs all")

    sp = sub.add_parser("validate", help="check a channel file and report its structure")
    add_common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("capacity", help="feedback capacity and optimal policy")
    add_common(sp)
    sp.add_argument("--bits", action="store_true", help="report bits instead of nats")
    sp.add_argument("--grid", type=int, default=None, metavar="N",
                    help="brute-force oracle at lattice resolution N instead of the solver")
    sp.set_defaults(func=cmd_capacity)

    sp = sub.add_parser("burnashev", help="divergence coefficient and best map pair")
    add_common(sp)
    sp.add_argument("--bits", action="store_true")
    sp.set_defaults(func=cmd_burnashev)

    sp = sub.add_parser("reliability", help="CSV reliability curve E(R) = D(1 - R/C)")
    add_common(sp)
    sp.add_argument("--points", type=int, default=20)
    sp.add_argument("--bits", action="store_true")
    sp.set_defaults(func=cmd_reliability)

    sp = sub.add_parser("simulate", help="Monte-Carlo run of the two-phase scheme")
    add_common(sp)
    sp.add_argument("--rate", type=float, required=True, help="message rate, nats/use")
    sp.add_argument("--gamma", type=float, required=True, help="data-phase fraction")
    sp.add_argument("--n", type=int, required=True, help="channel uses per epoch")
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threshold", type=float, default=None,
                    help="accept threshold on LLR/n_tilde (default -D/4; refused when D = +inf)")
    sp.add_argument("--max-epochs", type=int, default=64)
    sp.add_argument("--trace", metavar="FILE", default=None,
                    help="write a per-epoch CSV trace")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep-example", help="CSV sweep of the two-state example family")
    add_common(sp, channel=False)
    sp.add_argument("--pg", type=float, default=0.001)
    sp.add_argument("--pb", type=float, default=0.1)
    sp.add_argument("--alpha0", type=float, default=0.7)
    sp.add_argument("--beta0", type=float, default=0.3)
    sp.add_argument("--gamma-step", type=float, default=0.01)
    sp.set_defaults(func=cmd_sweep_example)

    sp = sub.add_parser("azuma", help="concentration check for empirical occupation measures")
    add_common(sp)
    sp.add_argument("--n", type=int, default=500)
    sp.add_argument("--eps", type=float, default=0.2)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_azuma)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ChannelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
