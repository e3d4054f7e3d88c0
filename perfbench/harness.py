"""Benchmark worker: runs one workload in this process and prints a JSON report.

``run.py`` starts this file in a fresh interpreter with the numeric thread
pools pinned to one thread; it is not meant to be started by hand.  The
worker imports ``oomid`` from the checkout's ``src/`` and drives only its
public API.  Three modes:

* ``--setup-only``: do the workload's set-up, report its time and exit;
* timed (``--trace 0``): run items for ``--seconds`` with no tracing;
* traced (``--trace 1``): run the calculus microbenchmarks, then run each
  item twice, untraced and with layer wrappers installed.

The last line of standard output is one JSON report that ``run.py`` turns
into the benchmark's result line and result file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"  # result files and the per-item CSV

EPSILONS = (0.5, 0.05, 0.005)
PAPER_SIZES = (25, 35, 45)
SAMPLES = 100
EXACT_SIZE = 80
# run_experiment derives its instance's generator seed this way
INSTANCE_SEED_FACTOR = 1_000_003
# cost bands handed out low/high alternately, so any prefix keeps the mix
# even; the second half swaps each pair, because the utility class
# alternates along a size's stream and each class should meet every band
BAND_ORDER = (0, 7, 3, 4, 1, 6, 2, 5, 7, 0, 4, 3, 6, 1, 5, 2)
# tail percentile per workload: it leaves at least ten items above it in a
# run of BENCHMARK.json's length even in a slow spell of the reference
# machine; exact-solve keeps p95 below the qualifying p97, which spread more
# between seeds (see README.md)
TAIL_PERCENTILE = {"paper-grid": 75, "exact-solve": 95}
# exact-solve diagrams generated at set-up; a run cycles through them
EXACT_POOL = 300
EVAL_TOLERANCE = 1e-9
TRACED_SHARE = 0.75  # of --seconds a traced run spends on item pairs


def params(n: int, utility_class: str, seed: int = 0):
    """The generator settings of ``oomid bench``: 5 decisions, k = p = 2."""
    from oomid.generator import GeneratorParams

    return GeneratorParams(
        n_c=n - 5, n_d=5, k=2, p=2, r=5, a=5, utility_class=utility_class, seed=seed
    )


# ---------------------------------------------------------------------------
# instance selection


def elimination_cells(diagram) -> int:
    """Table cells met when eliminating along a legal min-fill ordering.

    The benchmark's own estimate of a diagram's solve cost, used only to
    stratify inputs.  It is computed here rather than through
    ``oomid.ordering`` so that a change to the program cannot change which
    inputs the benchmark draws.
    """
    from oomid.diagram import Kind

    size = {v.id: len(v.domain) for v in diagram.variables}
    adj: dict[str, set[str]] = {v: set() for v in size}
    scopes = [c.scope for c in diagram.cpts] + [u.scope for u in diagram.utilities]
    scopes += [(d,) + tuple(ps) for d, ps in diagram.information_sets.items()]
    for scope in scopes:
        for a in scope:
            adj[a].update(b for b in scope if b != a)

    # blocks in elimination order: never observed, last decision, ..., first
    chance = {v.id for v in diagram.variables if v.kind is Kind.CHANCE}
    seen: set[str] = set()
    blocks: list[set[str]] = []
    for d in diagram.decision_order:
        revealed = (set(diagram.information_sets.get(d, ())) & chance) - seen
        blocks += [revealed, {d}]
        seen |= revealed
    blocks.append(chance - seen)

    def fill(v: str) -> int:
        nb = list(adj[v])
        return sum(1 for i, a in enumerate(nb) for b in nb[i + 1 :] if b not in adj[a])

    cells = 0
    for block in reversed(blocks):
        while block:
            v = min(block, key=lambda x: (fill(x), x))
            block.remove(v)
            nb = adj.pop(v)
            cells += size[v] * math.prod(size[u] for u in nb)
            for a in nb:
                adj[a].discard(v)
                adj[a].update(nb - {a})
    return cells


class InstanceStream:
    """Instance seeds of one size, drawn in sequence from the workload seed.

    ``strata.json`` holds, per size, eight narrow bands of the population's
    ``elimination_cells``, one around the middle of each cost octile.  Each
    candidate seed is kept if its cost falls in a band, and seeds are handed
    out so that every eight consecutive instances hold one from each band.
    The population's range of easy and hard instances is kept, while the
    run-to-run spread that a few dozen independent draws would show, within
    an octile as well as between octiles, is removed.
    """

    def __init__(self, n: int, workload_seed: int, bands: list[list[int]]):
        self.n = n
        self.bands = bands
        self.base = (workload_seed * 1000 + n) * 100_000
        self.drawn = 0
        self.handed = 0
        self.queues: list[deque[int]] = [deque() for _ in bands]

    def band(self, cells: int) -> int | None:
        for k, (lo, hi) in enumerate(self.bands):
            if lo <= cells <= hi:
                return k
        return None

    def next(self) -> int:
        from oomid.generator import generate

        want = BAND_ORDER[self.handed % len(BAND_ORDER)]
        self.handed += 1
        while not self.queues[want]:
            seed = self.base + self.drawn
            self.drawn += 1
            # the utility class only changes signs, not the structure
            diagram = generate(params(self.n, "P", seed * INSTANCE_SEED_FACTOR))
            k = self.band(elimination_cells(diagram))
            if k is not None:
                self.queues[k].append(seed)
        return self.queues[want].popleft()


# ---------------------------------------------------------------------------
# items


@dataclass(frozen=True)
class Item:
    utility_class: str
    n: int
    epsilon: float | None  # None for exact-solve items
    samples: int
    seed: int  # run_experiment's seed, or the generator seed for exact-solve

    @property
    def key(self) -> str:
        if self.epsilon is None:
            return f"{self.utility_class}/{self.n}/{self.seed}"
        return f"{self.utility_class}/{self.n}/{self.epsilon:g}/s{self.samples}/{self.seed}"


class ExperimentWorkload:
    """Items that are one ``run_experiment`` call plus its CSV, as ``oomid compare``."""

    name = "paper-grid"

    def __init__(self, workload_seed: int, strata: dict[str, list[list[int]]]):
        # (class, n, eps), visited round-robin with sizes interleaved
        self.cells = [(c, n, e) for e in EPSILONS for c in "PM" for n in PAPER_SIZES]
        self.streams = {n: InstanceStream(n, workload_seed, strata[str(n)]) for n in PAPER_SIZES}
        self.items: list[Item] = []
        self.csv_path = RESULTS / f"{self.name}.csv"

    def item(self, i: int) -> Item:
        while len(self.items) <= i:
            cls, n, eps = self.cells[len(self.items) % len(self.cells)]
            self.items.append(Item(cls, n, eps, SAMPLES, self.streams[n].next()))
        return self.items[i]

    def run(self, item: Item):
        from oomid import bench

        results = bench.run_experiment(
            params(item.n, item.utility_class),
            [item.epsilon],
            s=item.samples,
            instances=1,
            seed=item.seed,
        )
        bench.write_results_csv(results, self.csv_path)
        return results

    def check(self, item: Item, results) -> str:
        """Digest of the CSV bytes; raises if the row breaks an invariant."""
        if len(results) != 1:
            raise AssertionError(f"expected one result row, got {len(results)}")
        r = results[0]
        tol = EVAL_TOLERANCE * max(1.0, abs(r.v))
        problems = []
        if r.sample_count != item.samples:
            problems.append(f"{r.sample_count} samples, expected {item.samples}")
        if r.policy_count < 1:
            problems.append(f"policy count {r.policy_count}")
        if not r.v_med <= r.v_max <= r.v + tol:
            problems.append(f"v_med {r.v_med}, v_max {r.v_max}, MEU {r.v}")
        if not (r.eta_med + EVAL_TOLERANCE >= r.eta_max >= 0 and math.isfinite(r.eta_med)):
            problems.append(f"eta_med {r.eta_med}, eta_max {r.eta_max}")
        if problems:
            raise AssertionError("; ".join(problems))
        return hashlib.sha256(self.csv_path.read_bytes()).hexdigest()

    def diagram(self, item: Item):
        from oomid.generator import generate

        return generate(params(item.n, item.utility_class, item.seed * INSTANCE_SEED_FACTOR))


class ExactWorkload:
    """Items that are ``solve_exact`` then ``evaluate_policy`` on a generated pool."""

    name = "exact-solve"

    def __init__(self, workload_seed: int):
        from oomid.generator import generate

        base = (workload_seed * 1000 + EXACT_SIZE) * 100_000
        self.pool = [Item("PM"[j % 2], EXACT_SIZE, None, 0, base + j) for j in range(EXACT_POOL)]
        self.diagrams = {
            item.seed: generate(params(item.n, item.utility_class, item.seed))
            for item in self.pool
        }

    def item(self, i: int) -> Item:
        return self.pool[i % len(self.pool)]

    def diagram(self, item: Item):
        return self.diagrams[item.seed]

    def run(self, item: Item):
        from oomid import exact

        diagram = self.diagram(item)
        solution = exact.solve_exact(diagram)
        return solution, exact.evaluate_policy(diagram, solution.policy)

    def check(self, item: Item, out) -> str:
        solution, value = out
        meu = solution.meu
        if abs(value - meu) > EVAL_TOLERANCE * max(1.0, abs(meu)):
            raise AssertionError(f"evaluate_policy gives {value!r}, MEU is {meu!r}")
        rules = solution.policy.rules
        text = f"{meu:.6f}|" + json.dumps({d: list(rules[d].actions) for d in sorted(rules)})
        return hashlib.sha256(text.encode()).hexdigest()


def make_workload(name: str, seed: int):
    if name == "exact-solve":
        return ExactWorkload(seed)
    if name == "paper-grid":
        return ExperimentWorkload(seed, json.loads((BENCH_DIR / "strata.json").read_text()))
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("paper-grid", "exact-solve")


# ---------------------------------------------------------------------------
# running


@dataclass
class Record:
    index: int
    key: str
    seconds: float
    digest: str | None = None
    error: str | None = None


def run_items(workload, indices, pins: dict[str, str]) -> list[Record]:
    """Time each item, then check its output; failures are recorded, not raised."""
    records = []
    for i in indices:
        item = workload.item(i)
        record = Record(i, item.key, 0.0)
        start = time.perf_counter()
        try:
            out = workload.run(item)
            record.seconds = time.perf_counter() - start
            record.digest = workload.check(item, out)
        except Exception as exc:  # an item failure is a measurement, not a crash
            record.seconds = record.seconds or time.perf_counter() - start
            record.error = f"{type(exc).__name__}: {exc}"
        pinned = pins.get(item.key)
        if record.error is None and pinned is not None and pinned != record.digest:
            record.error = f"digest {record.digest} differs from pinned {pinned}"
        records.append(record)
    return records


def run_for(workload, seconds: float, pins: dict[str, str]) -> list[Record]:
    """Run consecutive items until ``seconds`` of wall time have passed."""
    records: list[Record] = []
    deadline = time.monotonic() + seconds
    i = 0
    while not records or time.monotonic() < deadline:
        records += run_items(workload, [i], pins)
        i += 1
    return records


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(1, math.ceil(q / 100 * len(sorted_values))) - 1]


def timing_summary(name: str, records: list[Record]) -> dict:
    times = sorted(r.seconds for r in records)
    q = TAIL_PERCENTILE[name]
    return {
        "items_per_s": len(times) / sum(times),
        "item_s_p50": statistics.median(times),
        "item_s_tail": nearest_rank(times, q),
        "tail_percentile": q,
        "items": len(times),
        "items_above_tail": len(times) - math.ceil(q / 100 * len(times)),
    }


def load_pins(name: str, seed: int) -> dict[str, str]:
    if seed != 0:
        return {}
    return json.loads((BENCH_DIR / "pins.json").read_text()).get(name, {})


def import_program() -> None:
    """Import ``oomid`` from this checkout's sources, never from elsewhere."""
    if not (SRC / "oomid" / "__init__.py").is_file():
        raise SystemExit(f"oomid sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import oomid

    if Path(oomid.__file__).resolve().parent != (SRC / "oomid").resolve():
        raise SystemExit(f"imported oomid from {oomid.__file__}, not from {SRC}")


def traced_run(workload, seconds: float, pins: dict[str, str], seed: int):
    """Microbenchmarks, then each item run untraced and traced back to back.

    The two runs of an item alternate in order, so that a drift in machine
    speed does not show up as tracing overhead.
    """
    import tracing
    from oomid import ordering

    calculus = tracing.calculus_microbench(seed)
    tracer = tracing.Tracer()
    untraced: list[Record] = []
    traced: list[Record] = []
    deadline = time.monotonic() + TRACED_SHARE * seconds

    def run_traced(i: int) -> list[Record]:
        tracer.item = i
        with tracer.installed():
            return run_items(workload, [i], pins)

    i = 0
    while not traced or time.monotonic() < deadline:
        if i % 2:
            traced += run_traced(i)
            untraced += run_items(workload, [i], pins)
        else:
            untraced += run_items(workload, [i], pins)
            traced += run_traced(i)
        i += 1
    for before, after in zip(untraced, traced):
        if after.error is None and after.digest != before.digest:
            after.error = f"traced output {after.digest} differs from untraced {before.digest}"
    tracer.write(RESULTS / f"{workload.name}-seed{seed}.spans.json")

    item_seconds = sum(r.seconds for r in traced)
    layer = tracer.layer_metrics(len(traced), item_seconds)
    layer["trace.overhead"] = item_seconds / sum(r.seconds for r in untraced) - 1
    widths = []
    for item in {r.key: workload.item(r.index) for r in untraced}.values():
        diagram = workload.diagram(item)
        widths.append(ordering.induced_width(diagram, ordering.legal_ordering(diagram)))
    layer["ordering.induced_width.p50"] = statistics.median(widths)
    layer["ordering.induced_width.max"] = max(widths)
    layer.update(calculus)
    return untraced + traced, layer


def run_digest(records: list[Record]) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.key} {r.digest or r.error}\n".encode())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launch-time", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    import numpy

    RESULTS.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed)
    pins = load_pins(args.workload, args.seed)
    workload.item(0)  # the first item's inputs are part of set-up
    setup_s = time.monotonic() - args.launch_time
    report: dict = {"setup_s": setup_s, "numpy": numpy.__version__}
    if not args.setup_only:
        # warm-up: the first item's lazy imports and first-call costs are
        # neither set-up nor item time; item 0 runs again, timed, below
        run_items(workload, [0], pins)
        if args.trace:
            records, layer = traced_run(workload, args.seconds, pins, args.seed)
            report["per_layer"] = layer
        else:
            records = run_for(workload, args.seconds, pins)
            report["timing"] = timing_summary(args.workload, records)
            report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["records"] = [vars(r) for r in records]
        report["pinned_checked"] = sum(r.key in pins for r in records)
        report["digest"] = run_digest(records)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
