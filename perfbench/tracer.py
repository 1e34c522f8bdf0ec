"""Span tracer for the traced benchmark run.

Wraps every public module-level function of each fsmc module in every
namespace that binds it (`from .ergodic import ...` copies names, so patching
the defining module alone would miss calls), plus the first access of
`Scheme.codebook`.  Spans are kept in memory and written out when the run
ends.  A span's self time is its duration minus the time its child spans on
the same thread cover.
"""
from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
import time
import tracemalloc
import types
from collections import defaultdict

LAYERS = ("rng", "channel", "ergodic", "costs", "planner", "yamamoto_itoh", "occupation",
          "gallery", "cli")
CODEBOOK = "yamamoto_itoh.Scheme.codebook"
SIMULATE = "yamamoto_itoh.simulate"


class Tracer:
    def __init__(self):
        self.names = []                 # function index -> "module.function"
        self.spans = []                 # (id, round, fn, start, end, self, parent, thread)
        self.counters = defaultdict(int)   # (round, name) -> count harvested from results
        self.peaks = []                 # tracemalloc peak bytes per simulate call
        self.round = 0
        self.spans_on = False
        self.memory_on = False
        self._ids = itertools.count()
        self._tls = threading.local()
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"fsmc.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for name, mod in list(sys.modules.items()):
            if name != "fsmc" and not name.startswith("fsmc."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))
        scheme = sys.modules["fsmc.yamamoto_itoh"].Scheme
        prop = scheme.__dict__["codebook"]
        timed = self._wrap(prop.fget, CODEBOOK)

        def first_access(obj):
            # only the first access draws the codebook; later ones are lookups
            return timed(obj) if obj._codebook is None else prop.fget(obj)
        scheme.codebook = property(first_access, doc=prop.__doc__)
        self._restore.append((scheme, "codebook", prop))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def _wrap(self, fn, qualname):
        fid = len(self.names)
        self.names.append(qualname)
        tracer = self
        harvest = {"planner.capacity": _ascent, "planner.burnashev_coefficient": _pairs}.get(qualname)
        is_sim = qualname == SIMULATE

        def wrapper(*args, **kwargs):
            if is_sim and tracer.memory_on:
                return tracer._measure_memory(fn, args, kwargs)
            if not tracer.spans_on:
                return fn(*args, **kwargs)
            stack = getattr(tracer._tls, "stack", None)
            if stack is None:
                stack = tracer._tls.stack = []
            span = next(tracer._ids)
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append((span, tracer.round, fid, start, end,
                                     end - start - frame[1], parent, threading.get_ident()))
            if harvest is not None:
                for key, count in harvest(result):
                    tracer.counters[(tracer.round, key)] += count
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _measure_memory(self, fn, args, kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    # -- summaries ----------------------------------------------------------

    def per_round(self):
        """{round: {"fn": {name: [calls, inclusive, self]}, "mod": {...}}}."""
        index = {s[0]: s for s in self.spans}
        out = {}
        for span, rnd, fid, start, end, own, parent, _ in self.spans:
            name = self.names[fid]
            module = name.split(".")[0]
            r = out.setdefault(rnd, {"fn": defaultdict(lambda: [0, 0.0, 0.0]),
                                     "mod": defaultdict(lambda: [0, 0.0, 0.0])})
            dur = end - start
            f = r["fn"][name]
            f[0] += 1
            f[2] += own
            p = index.get(parent)
            if p is None or self.names[p[2]] != name:
                f[1] += dur                      # inclusive time without recursion
            m = r["mod"][module]
            m[0] += 1
            m[2] += own
            if p is None or self.names[p[2]].split(".")[0] != module:
                m[1] += dur
        return out

    def write(self, path_prefix):
        """Spans as CSV and per-module/per-function totals as JSON."""
        with open(path_prefix + ".spans.csv", "w", encoding="utf-8") as fh:
            fh.write("span,round,function,start_s,end_s,self_s,parent,thread\n")
            for span, rnd, fid, start, end, own, parent, thread in self.spans:
                fh.write(f"{span},{rnd},{self.names[fid]},{start:.9f},{end:.9f},{own:.9f},"
                         f"{parent},{thread}\n")
        rounds = self.per_round()
        doc = {str(r): {kind: {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                               for k, v in sorted(d[kind].items())}
                        for kind in ("mod", "fn")}
               for r, d in sorted(rounds.items())}
        doc["counters"] = {f"{r}:{k}": v for (r, k), v in sorted(self.counters.items())}
        doc["simulate_peaks_bytes"] = self.peaks
        with open(path_prefix + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


def _ascent(result):
    diag = result.solver_diagnostics
    if diag.get("method") == "multistart_projected_ascent":
        yield "planner.ascent_iterations", int(diag["iterations"])


def _pairs(result):
    yield "planner.pairs_scanned", int(result.diagnostics["pairs_scanned"])


def layer_metrics(tracer: Tracer, traced_rounds, extra_counts) -> dict:
    """Per-layer figures per round: counts from the first traced round,
    times as the median over traced rounds."""
    rounds = tracer.per_round()
    first = traced_rounds[0]

    def fn_field(rnd, name, i):
        return rounds.get(rnd, {"fn": {}})["fn"].get(name, [0, 0.0, 0.0])[i]

    def mod_field(rnd, name, i):
        return rounds.get(rnd, {"mod": {}})["mod"].get(name, [0, 0.0, 0.0])[i]

    def med(get):
        return statistics.median(get(r) for r in traced_rounds)

    m = {}
    for layer in ("rng", "yamamoto_itoh", "occupation", "ergodic", "planner", "costs", "channel",
                  "cli"):
        m[f"{layer}.self_s"] = (med(lambda r: mod_field(r, layer, 2)), "s")
    calls = ("rng.stream", "yamamoto_itoh.run_phase2", "occupation.simulate_trajectory",
             "ergodic.check_assumption1", "ergodic.is_irreducible", "ergodic.stationary_measure",
             "planner.capacity", "planner.burnashev_coefficient", "costs.kl_divergence",
             "costs.mi_cost", "channel.s_marginal")
    for name in calls:
        m[f"{name}_calls"] = (fn_field(first, name, 0), "count")
    for name in ("yamamoto_itoh.simulate", "yamamoto_itoh.run_phase2",
                 "occupation.lp_average_cost", "occupation.azuma_tail_check",
                 "gallery.sweep_gamma"):
        m[f"{name}_s"] = (med(lambda r: fn_field(r, name, 1)), "s")
    m["yamamoto_itoh.codebook_s"] = (med(lambda r: fn_field(r, CODEBOOK, 1)), "s")
    for key in ("planner.ascent_iterations", "planner.pairs_scanned"):
        m[key] = (tracer.counters.get((first, key), 0), "count")
    m["yamamoto_itoh.simulate_peak_mb"] = (max(tracer.peaks, default=0) / 2**20, "MB")
    for key, (value, unit) in extra_counts.items():
        m[key] = (value, unit)
    return m
