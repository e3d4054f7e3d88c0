"""Elimination orderings: the temporal blocks, legality and min-fill.

An ordering is legal when it eliminates the blocks of ``temporal_partition``
last-observed first: the never-observed chance variables, then the last
decision, then the variables observed just before it, and so on.  Only the
order *within* a chance block is free; min-fill over the interaction graph
picks it, with ties broken by variable name (as strings) for determinism.

The graph is one integer bitmask per variable, bit i standing for the i-th
variable of ``diagram.variables``: the variable's neighbours.  Fill is
counted with ``int.bit_count`` over masks, and ``_eliminate`` is the one
graph update.  The min-fill walk keeps each variable's fill and recounts
it only when an elimination can have changed it: eliminating u touches
only u's neighbours and theirs.

``skeleton`` records on a diagram, at its first walk, the one ``Skeleton``
that every solve and evaluation of the diagram reads: the min-fill
ordering, the cells of its largest bucket, each utility's ancestors and
the elimination plans along the ordering, each made at its first use.
``checked_skeleton`` holds that bucket against ``diagram.CELL_LIMIT``
before a solve allocates.  ``induced_width`` walks any given ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .diagram import CELL_LIMIT, DiagramError, InfluenceDiagram, arcs


@dataclass(frozen=True)
class Skeleton:
    """What the solves and evaluations of a diagram read of its graph and
    domains, found once per diagram object (see ``skeleton``)."""

    order: tuple[str, ...]  # the min-fill legal ordering, first-eliminated first
    largest_bucket: int  # cells of its largest bucket: a variable and its neighbours
    kept: tuple[frozenset[str], ...]  # per utility: its scope and their ancestors
    # only elimination.Plans along order, per solver and evaluated utility,
    # each made at first use; a copy has none
    plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def temporal_partition(diagram: InfluenceDiagram) -> list[tuple[str, ...]]:
    """The elimination blocks, last-observed first: I_m, D_m, ..., D_1, I_0.

    I_0 holds the chance variables observed at the first decision D_1, I_k
    those revealed after D_k, and I_m the never-observed ones, each sorted
    by name; a diagram without decisions is one block.  Observations
    accumulate along the decision order, so a forgetting diagram has the
    blocks of its non-forgetting closure.

    Forgetting diagrams: a solver rejects a rule that reads a variable its
    decision does not observe (``elimination.expand_rule``), and nothing else.
    """
    chance = set(diagram.chance_vars)
    observed: set[str] = set()
    blocks: list[tuple[str, ...]] = []
    for d in diagram.decision_order:
        info = set(diagram.information_sets.get(d, ()))
        blocks += [tuple(sorted((info - observed) & chance)), (d,)]
        observed |= info
    blocks.append(tuple(sorted(chance - observed)))
    return blocks[::-1]


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _eliminate(adj: list[int], i: int) -> int:
    """Remove variable ``i`` from the graph and connect its neighbours;
    return its neighbour mask."""
    neighbours = adj[i]
    adj[i] = 0
    gone = 1 << i
    for a in _bits(neighbours):
        adj[a] = (adj[a] | neighbours) & ~(gone | 1 << a)
    return neighbours


def _graph(diagram: InfluenceDiagram) -> tuple[list[str], dict[str, int], list[int]]:
    """The variable names, their bit indices and the neighbour masks of the
    interaction graph."""
    names = [v.id for v in diagram.variables]
    index = {v: i for i, v in enumerate(names)}
    scopes = [(v, *ps) for v, ps in arcs(diagram).items()]
    scopes += [u.scope for u in diagram.utilities]
    adj = [0] * len(names)
    for scope in scopes:
        mask = 0
        for v in scope:
            mask |= 1 << index[v]
        for i in _bits(mask):
            adj[i] |= mask
    return names, index, [mask & ~(1 << i) for i, mask in enumerate(adj)]


def _fill(adj: list[int], i: int) -> int:
    """Edges missing between the neighbours of ``i``."""
    neighbours = rest = adj[i]
    present = 0  # twice the edges present
    while rest:
        low = rest & -rest
        present += (adj[low.bit_length() - 1] & neighbours).bit_count()
        rest ^= low
    degree = neighbours.bit_count()
    return (degree * (degree - 1) - present) // 2


def skeleton(diagram: InfluenceDiagram) -> Skeleton:
    """The diagram's ``Skeleton``.  It depends on the graph and the domains
    only, so it is found once per diagram and recorded on it, as
    ``require_valid`` records validity."""
    if diagram._skeleton is None:
        order, cells = _min_fill(diagram)
        parents = arcs(diagram)
        kept = tuple(_ancestors(u.scope, parents) for u in diagram.utilities)
        object.__setattr__(diagram, "_skeleton", Skeleton(tuple(order), cells, kept))
    return diagram._skeleton


def checked_skeleton(diagram: InfluenceDiagram) -> Skeleton:
    """``skeleton(diagram)``, once its largest bucket is found within
    ``CELL_LIMIT`` cells: no table of a solve along its ordering is larger."""
    recorded = skeleton(diagram)
    if recorded.largest_bucket > CELL_LIMIT:
        raise DiagramError(
            f"largest bucket of the elimination has {recorded.largest_bucket} cells,"
            f" more than the limit of {CELL_LIMIT}"
        )
    return recorded


def legal_ordering(diagram: InfluenceDiagram) -> list[str]:
    """Deterministic legal elimination ordering (first-eliminated first):
    the one every solve and evaluation of the diagram runs along, as a
    fresh list on each call."""
    return list(skeleton(diagram).order)


def _ancestors(scope: tuple[str, ...], parents: Mapping[str, tuple[str, ...]]) -> frozenset[str]:
    """``scope`` and every variable it reaches along ``parents``."""
    seen: set[str] = set()
    stack = list(scope)
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(parents[v])
    return frozenset(seen)


def _min_fill(diagram: InfluenceDiagram) -> tuple[list[str], int]:
    """The min-fill ordering, walked block by block, and the cells of its
    largest bucket."""
    names, index, adj = _graph(diagram)
    sizes = [len(v.domain) for v in diagram.variables]
    cells = 1
    # (fill, name) as one integer: fill times n plus the name's rank
    n = len(names)
    rank = [0] * n  # each name's position among the names sorted as strings
    for r, i in enumerate(sorted(range(n), key=names.__getitem__)):
        rank[i] = r
    key = [0] * n
    stale = (1 << n) - 1  # variables whose key must be recounted
    order: list[str] = []
    for block in temporal_partition(diagram):
        remaining = [index[v] for v in block]
        while remaining:
            for i in remaining:
                if stale >> i & 1:
                    key[i] = _fill(adj, i) * n + rank[i]
                    stale ^= 1 << i
            best = min(remaining, key=key.__getitem__)
            order.append(names[best])
            remaining.remove(best)
            neighbours = _eliminate(adj, best)
            # the bucket of best: it and its neighbours
            cells = max(cells, sizes[best] * math.prod(sizes[j] for j in _bits(neighbours)))
            stale |= neighbours
            if key[best] >= n:
                # edges were added between the neighbours: the fill of a
                # variable next to two of them may have fallen
                around = 0
                for a in _bits(neighbours):
                    around |= adj[a]
                for w in _bits(around & ~neighbours):
                    if (adj[w] & neighbours).bit_count() > 1:
                        stale |= 1 << w
    return order, cells


def _is_permutation(diagram: InfluenceDiagram, order: list[str]) -> bool:
    """True iff ``order`` lists each variable id once, as a ``str``."""
    ids = sorted(v.id for v in diagram.variables)
    return all(isinstance(v, str) for v in order) and sorted(order) == ids


def induced_width(diagram: InfluenceDiagram, order: list[str]) -> int:
    """Width of the ordering: the largest neighbourhood met when eliminating."""
    if not _is_permutation(diagram, order):
        raise DiagramError(f"not an ordering of the diagram's variables: {order}")
    _, index, adj = _graph(diagram)
    return max((_eliminate(adj, index[v]).bit_count() for v in order), default=0)
