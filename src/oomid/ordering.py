"""Legal elimination orderings and the min-fill heuristic.

An elimination ordering is legal when its reverse extends the temporal
order: the never-observed chance variables go first, then the last
decision, then the variables observed just before it, and so on.  Only the
order *within* a chance block is free; min-fill over the interaction graph
picks it, with lexicographic tie-breaking for determinism.
"""

from __future__ import annotations

from typing import Iterable

from .diagram import InfluenceDiagram, temporal_partition


def scope_graph(scopes: Iterable[Iterable[str]]) -> dict[str, set[str]]:
    """Undirected graph connecting every pair of variables sharing a scope."""
    adj: dict[str, set[str]] = {}
    for scope in scopes:
        for v in scope:
            adj.setdefault(v, set()).update(scope)
    for v, neighbours in adj.items():
        neighbours.discard(v)
    return adj


def interaction_graph(diagram: InfluenceDiagram) -> dict[str, set[str]]:
    """Undirected graph connecting every pair of variables sharing a factor."""
    scopes = [(v.id,) for v in diagram.variables]
    scopes += [cpt.scope for cpt in diagram.cpts]
    scopes += [u.scope for u in diagram.utilities]
    scopes += [
        (d,) + tuple(ps) for d, ps in diagram.information_sets.items()
    ]
    return scope_graph(scopes)


def _fill_count(adj: dict[str, set[str]], v: str) -> int:
    neighbours = [n for n in adj[v]]
    missing = 0
    for i, a in enumerate(neighbours):
        for b in neighbours[i + 1 :]:
            if b not in adj[a]:
                missing += 1
    return missing


def eliminate_node(adj: dict[str, set[str]], v: str) -> None:
    """Remove ``v`` from the graph and connect its neighbours."""
    neighbours = adj.pop(v)
    for n in neighbours:
        adj[n] |= neighbours
        adj[n] -= {n, v}


def legal_ordering(diagram: InfluenceDiagram) -> list[str]:
    """Deterministic legal elimination ordering (first-eliminated first)."""
    adj = interaction_graph(diagram)
    order: list[str] = []
    for block in temporal_partition(diagram).blocks():
        remaining = list(block)
        while remaining:
            best = min(remaining, key=lambda v: (_fill_count(adj, v), v))
            order.append(best)
            eliminate_node(adj, best)
            remaining.remove(best)
    return order


def is_legal_ordering(diagram: InfluenceDiagram, order: list[str]) -> bool:
    """True iff the reverse of ``order`` extends the temporal order."""
    if sorted(order) != sorted(v.id for v in diagram.variables):
        return False
    position = {v: i for i, v in enumerate(reversed(order))}
    partition = temporal_partition(diagram)
    blocks_in_time = [partition.initial]
    for d, revealed in partition.stages:
        blocks_in_time.append((d,))
        blocks_in_time.append(revealed)
    upper = -1
    for block in blocks_in_time:
        if not block:
            continue
        lo = min(position[v] for v in block)
        hi = max(position[v] for v in block)
        if lo <= upper:
            return False
        upper = hi
    return True


def induced_width(diagram: InfluenceDiagram, order: list[str]) -> int:
    """Width of the ordering: the largest neighbourhood met when eliminating."""
    adj = interaction_graph(diagram)
    width = 0
    for v in order:
        width = max(width, len(adj[v]))
        eliminate_node(adj, v)
    return width
