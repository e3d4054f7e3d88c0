"""Bucket elimination shared by the exact solver, its policy evaluator and
the order-of-magnitude solver.

A ``Factor`` is a scope and a numeric table with one axis per scope
variable, after any leading axes the table's encoding needs: float
probabilities and utilities for a numeric diagram, with a leading batch
axis once a table depends on the policies being evaluated; for a
qualitative one, probability orders and (bit, end) utility set tables, the
encoding of ``sets``.  ``factors`` reshapes the read-only tables of CPTs
or utilities into factors as they are.  ``eliminate`` puts each
probability factor (lambda) and utility factor (theta) into the bucket of
its earliest variable in the ordering it is handed (``ordering`` checks
legality), runs the algebra's chance or decision step on each bucket in
turn, and puts each message into a later bucket the same way; messages
over no variable are the root results.  Only the two steps know the
algebra.

``product`` is the one contraction kernel: it aligns tables over a scope
and folds them left to right, by multiplication unless told otherwise;
every step combines its bucket with ``fold``, a ``product`` over the
union of the scopes, and takes its variable out with ``reduce_out``, which
counts the variable's axis from the end so that leading axes pass through,
or with ``sum_out``, which sums as numpy would over the table with every
size-1 axis broadcast to its variable's domain.
``align`` keeps leading axes, looks each target variable's axis up in one
position table per target scope, takes each axis's size from the table's
own shape, and transposes only when the scope is out of the target's order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .diagram import DiagramError, InfluenceDiagram


@dataclass
class Factor:
    scope: tuple[str, ...]
    table: np.ndarray  # leading encoding axes, then one axis per scope variable


def factor(diagram: InfluenceDiagram, scope: tuple[str, ...], table: np.ndarray) -> Factor:
    """A factor from a table whose last axis runs row-major over ``scope``;
    leading axes are kept in front."""
    return Factor(scope, table.reshape(table.shape[:-1] + diagram.domain_sizes(scope)))


def align(f: Factor, target: tuple[str, ...]) -> np.ndarray:
    """View a factor's table as an array broadcastable over ``target``.

    Leading axes beyond the scope's (a batch axis) are kept in front.
    """
    return _aligned(f, {v: i for i, v in enumerate(target)})


def _aligned(f: Factor, position: dict[str, int]) -> np.ndarray:
    """``align`` with each target variable's axis given by ``position``."""
    table = f.table
    where = [position[v] for v in f.scope]
    lead = table.ndim - len(where)
    if where != sorted(where):
        perm = sorted(range(len(where)), key=where.__getitem__)
        table = table.transpose(*range(lead), *(lead + i for i in perm))
        where.sort()
    shape = [1] * len(position)
    for at, size in zip(where, table.shape[lead:]):
        shape[at] = size
    return table.reshape(table.shape[:lead] + tuple(shape))


def product(
    factors: Sequence[Factor], scope: tuple[str, ...], op: np.ufunc = np.multiply
) -> np.ndarray:
    """The factors' tables aligned over ``scope`` and folded by ``op``, left
    to right.  Each result is laid out C-contiguous, whatever the strides
    of a transposed input view."""
    position = {v: i for i, v in enumerate(scope)}
    table = _aligned(factors[0], position)
    for f in factors[1:]:
        table = op(table, _aligned(f, position), order="C")
    return table


def ordered(variables, order_key: dict[str, int]) -> tuple[str, ...]:
    """``variables`` as a scope, in ``order_key`` order."""
    return tuple(sorted(variables, key=order_key.__getitem__))


def fold(
    factors: Sequence[Factor], order_key: dict[str, int], op: np.ufunc = np.multiply
) -> Factor:
    """``product`` over the union of the factors' scopes, in ``order_key``
    order."""
    scope = ordered({v for f in factors for v in f.scope}, order_key)
    return Factor(scope, product(factors, scope, op))


def reduce_out(f: Factor, y: str, reduce: Callable) -> Factor:
    """``f`` with ``y`` taken out by ``reduce(table, axis)``, ``axis`` being
    ``y``'s axis counted from the end, so leading axes pass through."""
    i = f.scope.index(y)
    return Factor(f.scope[:i] + f.scope[i + 1 :], reduce(f.table, i - len(f.scope)))


def sum_out(diagram: InfluenceDiagram, f: Factor, y: str) -> Factor:
    """``f`` with ``y`` summed out, bit for bit as numpy sums it out of the
    table with each size-1 axis broadcast to its variable's domain: slice
    by slice from +0.0 along ``y``'s axis, the first of its bucket's scope,
    while a later axis has more than one cell, else in one pass (pairwise
    on long axes).  ``y``'s own axis is never broadcast: its bucket holds
    its CPT or a distribution over it."""
    table = f.table
    i = f.scope.index(y)
    axis = table.ndim - len(f.scope) + i
    scope = f.scope[:i] + f.scope[i + 1 :]
    rest = table.shape[axis + 1 :]
    # later axes all broadcast, standing for more than one cell: the full
    # table's order is slice by slice
    if set(rest) == {1} and math.prod(diagram.domain_sizes(f.scope[i + 1 :])) > 1:
        total = np.zeros(table.shape[:axis] + rest)
        for part in np.moveaxis(table, axis, 0):
            total += part
        return Factor(scope, total)
    return Factor(scope, table.sum(axis))


@dataclass
class Elimination:
    root_lambdas: list[np.ndarray]  # tables over no variable, in the order they arrived
    root_thetas: list[np.ndarray]
    rules: dict[str, Factor]
    # cells stored by the largest message, read off its trailing axes: a
    # broadcast axis stores one
    max_cells: int


def factors(diagram: InfluenceDiagram, functions: Sequence) -> list[Factor]:
    """CPTs or utilities as factors over their tables."""
    return [factor(diagram, fn.scope, fn.table) for fn in functions]


def eliminate(
    diagram: InfluenceDiagram,
    order: Sequence[str],
    lambdas: Sequence[Factor],
    thetas: Sequence[Factor],
    chance_step: Callable[..., tuple],
    decision_step: Callable[..., tuple],
) -> Elimination:
    """Run the buckets of the probability (``lambdas``) and utility
    (``thetas``) factors along ``order``, which the caller checked.

    Both steps get ``(diagram, order_key, variable, lambdas, thetas)``.  The
    chance step returns the lambda and the theta message, the decision step
    also the decision's rule as a factor over the theta message's scope; a
    message may be None.
    """
    order_key = {v: i for i, v in enumerate(order)}
    buckets: list[tuple[list[Factor], list[Factor]]] = [([], []) for _ in order]

    def place(f: Factor, kind: int) -> None:
        pos = min(order_key[v] for v in f.scope)
        buckets[pos][kind].append(f)

    for kind, factors in enumerate((lambdas, thetas)):
        for f in factors:
            place(f, kind)

    result = Elimination([], [], {}, 0)
    roots = (result.root_lambdas, result.root_thetas)
    decisions = set(diagram.decision_vars)
    for pos, y in enumerate(order):
        lambdas, thetas = buckets[pos]
        if y in decisions:
            lam_msg, theta_msg, result.rules[y] = decision_step(
                diagram, order_key, y, lambdas, thetas
            )
        else:
            lam_msg, theta_msg = chance_step(diagram, order_key, y, lambdas, thetas)
        for kind, msg in enumerate((lam_msg, theta_msg)):
            if msg is None:
                continue
            cells = math.prod(msg.table.shape[msg.table.ndim - len(msg.scope) :])
            result.max_cells = max(result.max_cells, cells)
            if msg.scope:
                place(msg, kind)
            else:
                roots[kind].append(msg.table)
    return result


def expand_rule(
    diagram: InfluenceDiagram, decision: str, rule: Factor
) -> tuple[tuple[str, ...], np.ndarray]:
    """A decision rule broadcast from its bucket scope over the decision's
    information set: the set, and the rule's table with the set's axes
    flattened row-major into the last one."""
    info = diagram.information_sets.get(decision, ())
    extra = [v for v in rule.scope if v not in info]
    if extra:  # the rule reads a variable the decision does not observe
        raise DiagramError(f"decision {decision}: rule depends on unobserved {extra}")
    table = align(rule, info)
    lead = table.shape[: table.ndim - len(info)]
    full = np.broadcast_to(table, lead + diagram.domain_sizes(info))
    return info, full.reshape(lead + (-1,))
