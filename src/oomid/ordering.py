"""Elimination orderings: the temporal blocks, legality and min-fill.

An ordering is legal when it eliminates the blocks of ``temporal_partition``
last-observed first: the never-observed chance variables, then the last
decision, then the variables observed just before it, and so on.  Only the
order *within* a chance block is free; min-fill over the interaction graph
picks it, with ties broken by variable name (as strings) for determinism.
Every solve and evaluation of a diagram object runs along this one ordering.

The graph is one integer bitmask per variable, bit i standing for the i-th
variable of ``diagram.variables``: the variable's neighbours.  Fill is
counted with ``int.bit_count`` over masks, and ``_eliminate`` is the one
graph update.  The min-fill walk keeps each variable's fill and recounts
it only when an elimination can have changed it: eliminating u touches
only u's neighbours and theirs.  ``legal_ordering`` records the walk's
result on the diagram, so each diagram object is walked once.
The walk also records the cells of the ordering's largest bucket, which
``checked_ordering`` holds against ``diagram.CELL_LIMIT`` before a solve
allocates.  ``induced_width`` and ``largest_bucket`` read the
neighbourhoods of one walk along a given ordering.
"""

from __future__ import annotations

import math

from .diagram import CELL_LIMIT, DiagramError, InfluenceDiagram, arcs


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


def interaction_graph(diagram: InfluenceDiagram) -> dict[str, set[str]]:
    """Undirected graph connecting every pair of variables sharing a factor.

    Kept as documented API: the readable view of the bitmask graph that
    the orderings walk, which the ordering tests compare with an
    independent oracle."""
    names, _, adj = _graph(diagram)
    return {v: {names[j] for j in _bits(adj[i])} for i, v in enumerate(names)}


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


def legal_ordering(diagram: InfluenceDiagram) -> list[str]:
    """Deterministic legal elimination ordering (first-eliminated first).

    It depends on the graph only, so it is computed once per diagram and
    recorded on it, with the cells of its largest bucket, as
    ``require_valid`` records validity; every solve and evaluation of the
    diagram runs along it.  Each call returns a fresh list."""
    if diagram._ordering is None:
        order, cells = _min_fill(diagram)
        object.__setattr__(diagram, "_ordering", tuple(order))
        object.__setattr__(diagram, "_largest_bucket", cells)
    return list(diagram._ordering)


def checked_ordering(diagram: InfluenceDiagram) -> list[str]:
    """``legal_ordering(diagram)``, once the largest bucket along it is found
    within ``CELL_LIMIT`` cells: no table of a solve along it is larger.
    A diagram whose ordering was recorded some other way has its largest
    bucket counted once, along that ordering."""
    order = legal_ordering(diagram)
    if diagram._largest_bucket is None:
        object.__setattr__(diagram, "_largest_bucket", largest_bucket(diagram, order))
    if diagram._largest_bucket > CELL_LIMIT:
        raise DiagramError(
            f"largest bucket of the elimination has {diagram._largest_bucket} cells,"
            f" more than the limit of {CELL_LIMIT}"
        )
    return order


def _cells(sizes: list[int], i: int, neighbours: int) -> int:
    """Cells of the bucket of variable ``i``: it and its neighbours."""
    return sizes[i] * math.prod(sizes[j] for j in _bits(neighbours))


def _min_fill(diagram: InfluenceDiagram) -> tuple[list[str], int]:
    """The min-fill walk of ``legal_ordering``, block by block, and the
    cells of its largest bucket."""
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
            cells = max(cells, _cells(sizes, best, neighbours))
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


def is_legal_ordering(diagram: InfluenceDiagram, order: list[str]) -> bool:
    """True iff ``order`` is a permutation of the variables along which
    their blocks' positions in ``temporal_partition`` never decrease."""
    if not _is_permutation(diagram, order):
        return False
    rank = {v: k for k, block in enumerate(temporal_partition(diagram)) for v in block}
    return all(rank[a] <= rank[b] for a, b in zip(order, order[1:]))


def _neighbourhoods(
    diagram: InfluenceDiagram, order: list[str]
) -> tuple[dict[str, int], list[int]]:
    """The variables' bit indices, and the neighbour mask each variable of
    ``order`` has when it is eliminated."""
    if not _is_permutation(diagram, order):
        raise DiagramError(f"not an ordering of the diagram's variables: {order}")
    _, index, adj = _graph(diagram)
    return index, [_eliminate(adj, index[v]) for v in order]


def induced_width(diagram: InfluenceDiagram, order: list[str]) -> int:
    """Width of the ordering: the largest neighbourhood met when eliminating."""
    _, masks = _neighbourhoods(diagram, order)
    return max((mask.bit_count() for mask in masks), default=0)


def largest_bucket(diagram: InfluenceDiagram, order: list[str]) -> int:
    """Cells of the largest bucket along the ordering: a variable and its
    neighbours when it is eliminated.  Every table of the elimination,
    messages and decision rules included, spans at most these."""
    index, masks = _neighbourhoods(diagram, order)
    sizes = [len(v.domain) for v in diagram.variables]
    return max((_cells(sizes, index[v], mask) for v, mask in zip(order, masks)), default=1)
