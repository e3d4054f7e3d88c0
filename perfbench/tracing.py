"""Layer spans and call counts recorded from outside ``oomid``.

``Tracer.installed()`` replaces, for the duration of a ``with`` block, the
names that ``oomid.bench``, ``oomid.exact`` and ``oomid.oom_solve`` resolve
at call time, plus a few methods, by thin wrappers.  Span wrappers record
(item, name, parent span, start, end) in memory; count wrappers only count
calls at the ``oom_solve`` -> ``values``/``sets`` boundary, where millions
of calls make spans too costly.  Only the traced process installs them.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import random
import statistics
import time
from collections import Counter
from pathlib import Path

ROOT_SPAN = "bench.run_experiment"
# (module or class path, attribute, span name); one name may be wrapped twice
SPANS = [
    ("oomid.bench", "run_experiment", ROOT_SPAN),
    ("oomid.bench", "write_results_csv", "bench.write_results_csv"),
    ("oomid.bench", "generate", "generator.generate"),
    ("oomid.bench", "solve_exact", "exact.solve_exact"),
    ("oomid.exact", "solve_exact", "exact.solve_exact"),
    ("oomid.bench", "convert", "convert.convert"),
    ("oomid.bench", "elim_oom_id", "oom_solve.elim_oom_id"),
    ("oomid.exact.PolicyEvaluator", "__init__", "exact.policy_evaluator"),
    ("oomid.exact.PolicyEvaluator", "evaluate", "exact.evaluate"),
    ("oomid.oom_solve.PolicySet", "count", "oom_solve.count"),
    ("oomid.oom_solve.PolicySet", "sample", "oom_solve.sample"),
]
COUNTS = [
    ("oomid.oom_solve", "scale", "sets.scale"),
    ("oomid.oom_solve", "sum_sets", "sets.sum_sets"),
    ("oomid.oom_solve", "max_sets", "sets.max_sets"),
    ("oomid.oom_solve", "set_dominates", "sets.set_dominates"),
    ("oomid.oom_solve", "mul", "values.mul"),
    ("oomid.oom_solve", "add", "values.add"),
]
TIMED_LAYERS = [
    "exact.evaluate",
    "exact.policy_evaluator",
    "exact.solve_exact",
    "oom_solve.elim_oom_id",
    "oom_solve.sample",
    "oom_solve.count",
    "convert.convert",
    "generator.generate",
    "bench.write_results_csv",
]
CALLED_LAYERS = ["exact.evaluate", "oom_solve.elim_oom_id"]
CALCULUS_OPS = [
    "values.mul",
    "values.add",
    "sets.scale",
    "sets.sum_sets",
    "sets.max_sets",
    "sets.set_dominates",
]

UNITS = {
    **{f"{name}.s": "s/item" for name in TIMED_LAYERS},
    **{f"{name}.calls": "calls/item" for name in CALLED_LAYERS},
    **{f"{name}.calls": "calls/item" for _, _, name in COUNTS},
    "bench.run_experiment.self_s": "s/item",
    "ordering.induced_width.p50": "vars",
    "ordering.induced_width.max": "vars",
    **{f"{name}.ops_per_s": "ops/s" for name in CALCULUS_OPS},
    "trace.item_s": "s/item",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


def _resolve(path: str):
    obj = __import__(path.partition(".")[0])
    for part in path.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (item, name, parent index, start, end)
        self.counts: Counter[str] = Counter()
        self.item: int | None = None
        self._stack: list[int] = []

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (self.item, name, parent, start, end)

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for wraps, table in ((self._span, SPANS), (self._count, COUNTS)):
                for path, attr, name in table:
                    owner = _resolve(path)
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wraps(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self, items: int, item_seconds: float) -> dict[str, float]:
        """Per-item layer times and counts, and the share of item time covered.

        Coverage counts the outermost span of every layer except
        ``run_experiment`` itself, whose own time is reported as ``self_s``.
        """
        totals: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        child_time: Counter[int] = Counter()
        for item, name, parent, start, end in self.spans:
            totals[name] += end - start
            calls[name] += 1
            if parent is not None:
                child_time[parent] += end - start
        root_self = covered = 0.0
        for index, (_, name, parent, start, end) in enumerate(self.spans):
            if name == ROOT_SPAN:
                root_self += end - start - child_time[index]
            elif parent is None or self.spans[parent][1] == ROOT_SPAN:
                covered += end - start
        out = {f"{name}.s": totals[name] / items for name in TIMED_LAYERS}
        out.update({f"{name}.calls": calls[name] / items for name in CALLED_LAYERS})
        out.update({f"{name}.calls": self.counts[name] / items for _, _, name in COUNTS})
        out["bench.run_experiment.self_s"] = root_self / items
        out["trace.item_s"] = item_seconds / items
        out["trace.coverage"] = covered / item_seconds
        return out

    def write(self, path: Path) -> None:
        keys = ("item", "name", "parent", "start", "end")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": dict(self.counts)}, fh)


def calculus_microbench(seed: int, length: int = 4000, repeats: int = 9) -> dict[str, float]:
    """Operations per second of the six calculus operations the solver calls.

    Operands are drawn from the acceptance window: signs +, - and +- with
    orders -4..4, plus zero; sets are canonical sets of one to four of them.
    """
    from oomid import sets, values

    rng = random.Random(seed)
    window = [values.OOMValue(s, o) for s in values.Sign for o in range(-4, 5)]
    window.append(values.ZERO)
    scalers = [v for v in window if v.sign is values.Sign.PLUS] + [values.ZERO]

    def rand_set():
        return sets.canonicalize([rng.choice(window) for _ in range(rng.randint(1, 4))])

    value_pairs = [(rng.choice(window), rng.choice(window)) for _ in range(length)]
    scale_pairs = [(rng.choice(scalers), rand_set()) for _ in range(length)]
    set_pairs = [(rand_set(), rand_set()) for _ in range(length)]
    operands = {
        "values.mul": (values.mul, value_pairs),
        "values.add": (values.add, value_pairs),
        "sets.scale": (sets.scale, scale_pairs),
        "sets.sum_sets": (sets.sum_sets, set_pairs),
        "sets.max_sets": (sets.max_sets, set_pairs),
        "sets.set_dominates": (sets.set_dominates, set_pairs),
    }
    rates: dict[str, list[float]] = {name: [] for name in CALCULUS_OPS}
    gc.collect()
    # interleaved passes: a slow spell of the machine spreads over all operations
    for _ in range(repeats):
        for name in CALCULUS_OPS:
            op, pairs = operands[name]
            start = time.perf_counter()
            for a, b in pairs:
                op(a, b)
            rates[name].append(len(pairs) / (time.perf_counter() - start))
    return {f"{name}.ops_per_s": statistics.median(r) for name, r in rates.items()}
