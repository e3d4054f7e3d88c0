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
        if self.k < 2:
            raise ValueError("domain size bound must be at least 2")
        if self.n_d > 0 and self.n_c < self.r:
            raise ValueError("needs n_c >= r so decisions can be non-roots")
        if self.utility_class not in ("P", "M"):
            raise ValueError("utility class must be 'P' or 'M'")


EXTREME_FRACTION = 0.75
EXTREME_LOW, EXTREME_HIGH = 1e-5, 1e-4
MAX_UTILITY_EXPONENT = 5


def generate(params: GeneratorParams, nonforgetting: bool = True) -> InfluenceDiagram:
    rng = np.random.default_rng(params.seed)
    total = params.n_c + params.n_d

    decision_positions = set()
    if params.n_d:
        picks = rng.choice(
            np.arange(params.r, total), size=params.n_d, replace=False
        )
        decision_positions = set(picks.tolist())

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

    domains = [
        tuple(f"v{j}" for j in range(int(rng.integers(2, params.k + 1))))
        for _ in range(total)
    ]

    parents: list[list[int]] = [[] for _ in range(total)]
    for pos in range(params.r, total):
        parents[pos] = sorted(
            rng.choice(pos, size=min(params.p, pos), replace=False).tolist()
        )

    # chain consecutive decisions with a forced arc so they form a path
    decision_seq = sorted(decision_positions)
    for prev, nxt in zip(decision_seq, decision_seq[1:]):
        if prev not in parents[nxt]:
            slot = int(rng.integers(0, len(parents[nxt]))) if parents[nxt] else 0
            if parents[nxt]:
                parents[nxt][slot] = prev
            else:
                parents[nxt] = [prev]
            parents[nxt] = sorted(set(parents[nxt]))

    chance_positions = [i for i in range(total) if kinds[i] is Kind.CHANCE]
    n_extreme = int(EXTREME_FRACTION * len(chance_positions))
    extreme = set(rng.choice(chance_positions, size=n_extreme, replace=False).tolist())

    cpts = []
    for pos in chance_positions:
        scope_sizes = [len(domains[q]) for q in parents[pos]] + [len(domains[pos])]
        rows = math.prod(scope_sizes[:-1])
        k_child = scope_sizes[-1]
        if pos in extreme:
            # near-deterministic rows: all but one entry is tiny, the
            # remaining mass sits at a random position
            table = rng.uniform(EXTREME_LOW, EXTREME_HIGH, size=(rows, k_child))
            heavy = (np.arange(rows), rng.integers(0, k_child, size=rows))
            table[heavy] = 0.0
            table[heavy] = 1.0 - table.sum(axis=1)
        else:
            table = rng.uniform(0.0, 1.0, size=(rows, k_child))
            table /= table.sum(axis=1, keepdims=True)
        cpts.append(
            CPT(
                child=names[pos],
                parents=tuple(names[q] for q in parents[pos]),
                table=tuple(table.reshape(-1).tolist()),
            )
        )

    scope_positions = sorted(rng.choice(total, size=params.a, replace=False).tolist())
    n_cells = math.prod(len(domains[q]) for q in scope_positions)
    exponents = rng.integers(0, MAX_UTILITY_EXPONENT + 1, size=n_cells)
    magnitudes = np.power(10.0, exponents)
    if params.utility_class == "M":
        signs = np.where(np.arange(n_cells) % 2 == 0, 1.0, -1.0)
        magnitudes = magnitudes * signs
    utility = UtilityFunction(
        scope=tuple(names[q] for q in scope_positions),
        table=tuple(magnitudes.tolist()),
    )

    diagram = InfluenceDiagram(
        variables=tuple(
            Variable(names[i], kinds[i], domains[i]) for i in range(total)
        ),
        cpts=tuple(cpts),
        utilities=(utility,),
        decision_order=tuple(names[i] for i in decision_seq),
        information_sets={
            names[i]: tuple(names[q] for q in parents[i]) for i in decision_seq
        },
    )
    if nonforgetting:
        diagram = apply_nonforgetting(diagram)
    return diagram
