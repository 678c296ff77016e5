"""Span tracing around plethyra's public entry points, from outside the program.

``Tracer.install()`` replaces each traced function with a wrapper in every
plethyra module that binds it (``coefficients`` holds its own ``g_sym``,
``h_eps``, ``character`` and ``plethysm_powersum``), and ``uninstall()``
puts the originals back.  Entry points record one span each: name, start,
end and the index of the parent span.  The hot inner operators record a call
count and total time per (name, parent span) instead.  Spans stay in memory
and are written out once, at the end.

A span's self time is its duration minus the time its child spans and
aggregated children cover.  Cache counters come from the ``lru_cache``
statistics, read before and after the timed region, so cached functions run
unwrapped.
"""

from __future__ import annotations

import sys
from time import perf_counter

from plethyra import cli, coefficients, diagrams, partitions, schur_weyl, symfunc, verify


def _nonzero(tracer, result):
    tracer.count("symfunc.g_sym.nonzero", 1 if result else 0)


def _powersum_terms(tracer, result):
    tracer.count("symfunc.powersum_terms", len(result.terms))


def _action_nnz(tracer, result):
    tracer.count("schur_weyl.action_nnz", result.nnz())


def _v0_size(tracer, result):
    tracer.count("diagrams.v0_basis.size", len(result))


def _verify_seconds(tracer, results):
    for res in results:
        tracer.count(f"verify.{res.name}.s", res.seconds)


# (module, function name, span name, result hook)
SPANS = [
    (symfunc, "g_sym", "symfunc.g_sym", _nonzero),
    (symfunc, "plethysm", "symfunc.plethysm", None),
    (symfunc, "plethysm_powersum", "symfunc.plethysm_powersum", None),
    (symfunc, "powersum_to_schur", "symfunc.powersum_to_schur", None),
    (coefficients, "ramified_branching", "coefficients.ramified_branching", None),
    (coefficients, "plethysm_coefficient", "coefficients.plethysm_coefficient", None),
    (coefficients, "stable_plethysm", "coefficients.stable_plethysm", None),
    (schur_weyl, "faithfulness_rank", "schur_weyl.faithfulness_rank", None),
    (schur_weyl, "diagram_action", "schur_weyl.diagram_action", _action_nnz),
    (schur_weyl, "check_commute", "schur_weyl.check_commute", None),
    (schur_weyl, "sym_action", "schur_weyl.sym_action", None),
    (schur_weyl, "ramified_action", "schur_weyl.ramified_action", None),
    (diagrams, "compose", "diagrams.compose", None),
    (diagrams, "ramified_compose", "diagrams.ramified_compose", None),
    (diagrams, "v0_basis", "diagrams.v0_basis", _v0_size),
    (diagrams, "dq_dimension_check", "diagrams.dq_dimension_check", None),
    (partitions, "marked_partitions", "partitions.marked_partitions", None),
    (partitions, "stable_two_row_gf", "partitions.stable_two_row_gf", None),
    (verify, "run_suite", "verify.run_suite", _verify_seconds),
    (cli, "dispatch", "cli.dispatch", None),
]

# (class, method names, aggregate name, result hook)
HOT = [
    (symfunc.SchurPoly, ("__mul__", "__rmul__"), "symfunc.schur_mul", None),
    (symfunc.PowerSumPoly, ("__mul__", "__rmul__"), "symfunc.powersum_mul", _powersum_terms),
    (schur_weyl.SparseExactMatrix, ("__matmul__",), "schur_weyl.matmul", None),
]

# name -> lru_cache-wrapped function whose statistics are read
CACHES = {
    "symfunc.lr_coefficient": symfunc.lr_coefficient,
    "symfunc.schur_times_schur": symfunc._schur_times_schur,
    "symfunc.generalized_lr": symfunc.generalized_lr,
    "symfunc.h_eps": symfunc.h_eps,
    "symfunc.character": symfunc.character,
    "coefficients.plethysm_expansion": coefficients._plethysm_expansion,
}


def cache_stats() -> dict:
    """{name: [hits, misses, entries]}, with all ``partitions`` caches summed."""
    out = {name: list(fn.cache_info()[:2]) + [fn.cache_info().currsize]
           for name, fn in CACHES.items()}
    total = [0, 0, 0]
    for fn in vars(partitions).values():
        if callable(fn) and hasattr(fn, "cache_info"):
            info = fn.cache_info()
            total = [total[0] + info.hits, total[1] + info.misses, total[2] + info.currsize]
    out["partitions"] = total
    return out


def cache_delta(before: dict, after: dict) -> dict:
    """Hits and misses during the timed region; entries at its end."""
    return {name: [after[name][0] - before[name][0], after[name][1] - before[name][1],
                   after[name][2]] for name in after}


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self.stack = []
        self.hot = {}     # (name, parent index) -> [calls, seconds]
        self.counts = {}
        self._undo = []

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name, func, hook=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook:
                hook(self, result)
            return result

        return wrapper

    def aggregate(self, name, func, hook=None):
        hot, stack = self.hot, self.stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = func(*args, **kwargs)
            elapsed = perf_counter() - start
            key = (name, stack[-1] if stack else -1)
            rec = hot.get(key)
            if rec is None:
                hot[key] = [1, elapsed]
            else:
                rec[0] += 1
                rec[1] += elapsed
            if hook:
                hook(self, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "plethyra" or name.startswith("plethyra."))]
        for module, attr, name, hook in SPANS:
            original = getattr(module, attr)
            wrapped = self.span(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        for cls, methods, name, hook in HOT:
            wrapped = self.aggregate(name, getattr(cls, methods[0]), hook)
            for method in methods:
                self._patch(cls, method, wrapped)
        for suite in verify.SUITES.values():
            for i, (label, func) in enumerate(suite):
                suite[i] = (label, self.span(f"verify.{label}", func))
                self._undo.append((suite, i, (label, func)))

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, list):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def summary(self) -> dict:
        """Calls and self time per name, counters, and the total root time."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (_, parent), (_, seconds) in self.hot.items():
            if parent >= 0:
                child[parent] += seconds
        calls, self_s, root_s = {}, {}, 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            if parent < 0:
                root_s += end - start
        for (name, parent), (n, seconds) in self.hot.items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + seconds
            if parent < 0:
                root_s += seconds
        return {"calls": calls, "self_s": self_s, "counts": dict(self.counts),
                "root_s": root_s}

    def raw(self) -> dict:
        return {"spans": self.spans,
                "aggregates": [[name, parent, n, s] for (name, parent), (n, s) in self.hot.items()]}


def merge(summaries: list) -> dict:
    """Sum several processes' summaries (cache entries are summed too)."""
    out = {"calls": {}, "self_s": {}, "counts": {}, "root_s": 0.0, "cache": {}}
    for summ in summaries:
        for key in ("calls", "self_s", "counts"):
            for name, value in summ[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["root_s"] += summ["root_s"]
        for name, vals in summ["cache"].items():
            old = out["cache"].get(name, [0, 0, 0])
            out["cache"][name] = [a + b for a, b in zip(old, vals)]
    return out


def merge_raw(raws: list) -> dict:
    """Concatenate several processes' spans, shifting parent indices."""
    spans, aggregates = [], []
    for raw in raws:
        offset = len(spans)
        spans.extend([n, s, e, p + offset if p >= 0 else -1] for n, s, e, p in raw["spans"])
        aggregates.extend([n, p + offset if p >= 0 else -1, c, t]
                          for n, p, c, t in raw["aggregates"])
    return {"spans": spans, "aggregates": aggregates}


def layer_metrics(summ: dict, traced_wall_s: float) -> dict:
    """Per-layer metrics from a (merged) summary.  ``cli.*`` and
    ``trace.overhead_ratio`` need the untraced run and are added by run.py."""
    calls, self_s, counts, cache = summ["calls"], summ["self_s"], summ["counts"], summ["cache"]

    def hit_ratio(name):
        hits, misses, _ = cache[name]
        return hits / (hits + misses) if hits + misses else 0.0

    out = {}
    for name in ("symfunc.lr_coefficient", "symfunc.character"):
        out[f"{name}.calls"] = cache[name][0] + cache[name][1]
        out[f"{name}.hit_ratio"] = hit_ratio(name)
        out[f"{name}.entries"] = cache[name][2]
    for name in ("symfunc.schur_times_schur", "symfunc.generalized_lr", "symfunc.h_eps",
                 "coefficients.plethysm_expansion"):
        out[f"{name}.hit_ratio"] = hit_ratio(name)
    for name in ("symfunc.schur_mul", "symfunc.g_sym", "symfunc.powersum_mul",
                 "coefficients.ramified_branching", "coefficients.plethysm_coefficient",
                 "schur_weyl.diagram_action", "schur_weyl.matmul",
                 "diagrams.compose", "diagrams.ramified_compose"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("symfunc.plethysm_powersum", "symfunc.powersum_to_schur",
                 "schur_weyl.faithfulness_rank", "schur_weyl.check_commute",
                 "diagrams.v0_basis"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    g_calls = calls.get("symfunc.g_sym", 0)
    out["symfunc.g_sym.nonzero_ratio"] = (
        counts.get("symfunc.g_sym.nonzero", 0) / g_calls if g_calls else 0.0)
    for name in ("symfunc.powersum_terms", "schur_weyl.action_nnz", "diagrams.v0_basis.size"):
        out[name] = counts.get(name, 0)
    out["partitions.cache_entries"] = cache["partitions"][2]
    for label, _ in verify.ACCEPTANCE_CHECKS:
        out[f"verify.{label}.s"] = counts.get(f"verify.{label}.s", 0.0)
    out["trace.self_coverage"] = (sum(self_s.values()) / traced_wall_s
                                  if traced_wall_s else 0.0)
    return out
