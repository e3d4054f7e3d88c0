"""Seeded random influence diagram generation.

Diagrams are built over a fixed variable layout: the first ``r`` positions
are parentless roots, every later variable draws exactly ``p`` distinct
parents from its predecessors, and the decision variables sit at non-root
positions chained by forced arcs so they always lie on one directed path.
A single utility function over ``a`` randomly chosen variables closes the
diagram.

Two utility classes are supported: class P draws positive utilities
``10**u`` with ``u`` uniform in ``0..5``; class M uses the same magnitudes
with signs alternating over the table cells, so positive and negative
entries are balanced to within one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagram import (
    CPT,
    InfluenceDiagram,
    Kind,
    UtilityFunction,
    Variable,
    apply_nonforgetting,
    mark_valid,
)


@dataclass(frozen=True)
class GeneratorParams:
    n_c: int
    n_d: int
    k: int = 2
    p: int = 2
    r: int = 5
    a: int = 5
    utility_class: str = "P"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_c", "n_d", "k", "p", "r", "a", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, not {self.seed}")
        total = self.n_c + self.n_d
        if self.n_c < 0 or self.n_d < 0 or total == 0:
            raise ValueError("need at least one variable")
        if not 1 <= self.r <= total:
            raise ValueError("root count must be in [1, n_c + n_d]")
        if not 0 <= self.p < total:
            raise ValueError("parent count must be in [0, n_c + n_d)")
        if self.p > self.r:
            raise ValueError("parent count must not exceed the root count")
        if not 1 <= self.a <= total:
            raise ValueError("utility arity must be in [1, n_c + n_d]")
        if not 2 <= self.k <= 10_000:  # k - 1 entries below EXTREME_HIGH sum below 1
            raise ValueError("domain size bound must be in [2, 10000]")
        if self.n_d > 0 and self.n_c < self.r:
            raise ValueError("needs n_c >= r so decisions can be non-roots")
        if self.utility_class not in ("P", "M"):
            raise ValueError("utility class must be 'P' or 'M'")


EXTREME_FRACTION = 0.75
EXTREME_LOW, EXTREME_HIGH = 1e-5, 1e-4
MAX_UTILITY_EXPONENT = 5


def _samples(
    rng: np.random.Generator, populations: list[int], size: int
) -> list[list[int]]:
    """For each ``n`` in ``populations``, ``size`` distinct values of
    ``range(n)``, drawn as ``rng.choice(n, size, replace=False)`` draws
    them, with one call for the whole batch.

    ``choice`` runs Floyd's algorithm (Bentley and Floyd, "A sample of
    brilliance", CACM 30(9), 1987): for j = n - size, ..., n - 1 it draws
    t in [0, j] and picks t, or j if t is picked already.  It then shuffles
    the picks, swapping position i = size - 1, ..., 1 with a draw in
    [0, i].  One ``integers`` call over an array of those bounds makes the
    draws the scalar calls make.  ``choice`` itself switches to a tail
    shuffle for n > 10,000 with size > n // 50; only there do the two differ.
    """
    # one row per population: Floyd's bounds, then the shuffle's
    column = np.array(populations, dtype=np.int64)[:, None]
    bounds = np.hstack([column + np.arange(-size, 0), 0 * column + np.arange(size - 1, 0, -1)])
    draws = iter(rng.integers(0, bounds.ravel() + 1).tolist())
    samples = []
    for n in populations:
        picks: list[int] = []
        for j in range(n - size, n):
            t = next(draws)
            picks.append(j if t in picks else t)
        for i in range(size - 1, 0, -1):
            t = next(draws)
            picks[i], picks[t] = picks[t], picks[i]
        samples.append(picks)
    return samples


def generate(params: GeneratorParams, nonforgetting: bool = True) -> InfluenceDiagram:
    """The diagram of ``params``, its information sets closed if
    ``nonforgetting``, marked valid (``diagram.mark_valid``): ids, labels
    and scopes are distinct strings in tuples, domains hold two or more
    labels, tables are float arrays of their scopes' cells, the utility is
    finite on a non-empty scope, each chance variable has one CPT, and
    parents and information sets are earlier variables, so every arc, the
    closure's too, runs forward.  Rows are divided by their sums or end in 1
    minus their other entries, which the bound on ``k`` keeps positive."""
    rng = np.random.default_rng(params.seed)
    total = params.n_c + params.n_d
    decision_positions = {params.r + i for i in _samples(rng, [total - params.r], params.n_d)[0]}

    names: list[str] = []
    kinds: list[Kind] = []
    n_x = n_d = 0
    for pos in range(total):
        if pos in decision_positions:
            n_d += 1
            names.append(f"D{n_d}")
            kinds.append(Kind.DECISION)
        else:
            n_x += 1
            names.append(f"X{n_x}")
            kinds.append(Kind.CHANCE)

    sizes = rng.integers(2, params.k + 1, size=total).tolist()
    labels = {size: tuple(f"v{j}" for j in range(size)) for size in set(sizes)}
    domains = [labels[size] for size in sizes]

    # p <= r, so every non-root has p predecessors to draw from
    parents = [[] for _ in range(params.r)] + [
        sorted(s) for s in _samples(rng, list(range(params.r, total)), params.p)
    ]

    # chain consecutive decisions with a forced arc so they form a path: the
    # earlier one replaces a random parent of the later one (every non-root
    # has p of them), or becomes its only parent when p = 0
    decision_seq = sorted(decision_positions)
    pairs = [(a, b) for a, b in zip(decision_seq, decision_seq[1:]) if a not in parents[b]]
    slots = rng.integers(0, max(params.p, 1), size=len(pairs)).tolist()
    for (prev, nxt), slot in zip(pairs, slots):
        parents[nxt][slot : slot + 1] = [prev]
        parents[nxt].sort()

    chance_positions = [i for i in range(total) if kinds[i] is Kind.CHANCE]
    n_extreme = int(EXTREME_FRACTION * len(chance_positions))
    extreme = {chance_positions[i] for i in _samples(rng, [len(chance_positions)], n_extreme)[0]}

    # draw every table in variable order; uniform(lo, hi) is lo + (hi - lo)
    # times random(), bit for bit
    uniform, heavy = {}, {}
    groups: dict[tuple[int, bool], list[int]] = {}  # by row width and kind
    for pos in chance_positions:
        shape = (math.prod(sizes[q] for q in parents[pos]), sizes[pos])
        uniform[pos] = rng.random(shape)
        if pos in extreme:
            heavy[pos] = rng.integers(0, shape[1], size=shape[0])
        groups.setdefault((shape[1], pos in extreme), []).append(pos)
    # then finish the rows of one width and kind in one pass
    cpts = {}
    for (_, is_extreme), group in groups.items():
        table = np.concatenate([uniform[pos] for pos in group])
        if is_extreme:
            # near-deterministic rows: all but one entry is tiny, the
            # remaining mass sits at a random position
            table = EXTREME_LOW + (EXTREME_HIGH - EXTREME_LOW) * table
            cells = (np.arange(len(table)), np.concatenate([heavy[pos] for pos in group]))
            table[cells] = 0.0
            table[cells] = 1.0 - table.sum(axis=1)
        else:
            table /= table.sum(axis=1, keepdims=True)
        table.setflags(write=False)
        flat, start = table.reshape(-1), 0
        for pos in group:
            end = start + uniform[pos].size
            cpts[pos] = CPT(
                child=names[pos],
                parents=tuple(names[q] for q in parents[pos]),
                table=flat[start:end],
            )
            start = end

    scope_positions = sorted(_samples(rng, [total], params.a)[0])
    n_cells = math.prod(sizes[q] for q in scope_positions)
    exponents = rng.integers(0, MAX_UTILITY_EXPONENT + 1, size=n_cells)
    magnitudes = np.power(10.0, exponents)
    if params.utility_class == "M":
        signs = np.where(np.arange(n_cells) % 2 == 0, 1.0, -1.0)
        magnitudes = magnitudes * signs
    utility = UtilityFunction(scope=tuple(names[q] for q in scope_positions), table=magnitudes)

    diagram = InfluenceDiagram(
        variables=tuple(
            Variable(names[i], kinds[i], domains[i]) for i in range(total)
        ),
        cpts=tuple(cpts[pos] for pos in chance_positions),
        utilities=(utility,),
        decision_order=tuple(names[i] for i in decision_seq),
        information_sets={
            names[i]: tuple(names[q] for q in parents[i]) for i in decision_seq
        },
    )
    if nonforgetting:
        diagram = apply_nonforgetting(diagram)
    return mark_valid(diagram)
