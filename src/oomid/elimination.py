"""Bucket elimination shared by the exact solver, its policy evaluator and
the order-of-magnitude solver: a plan made once per skeleton, and the one
executor that runs it.

A ``Factor`` is a scope and a numeric table with one axis per scope
variable, after any leading axes the table's encoding needs: float
probabilities and utilities for a numeric diagram, with a leading batch
axis once a table depends on the policies being evaluated; for a
qualitative one, probability orders and (bit, end) utility set tables, the
encoding of ``sets``.

``plan`` is the symbolic pass.  It walks an ordering over the scopes of the
probability factors (lambdas) and utility factors (thetas) alone: it puts
each into the bucket of its earliest variable, asks the solver's ``spans``
which variables the bucket's messages keep, and puts each message into a
later bucket the same way; messages over no variable are the root results.
It records each bucket once, as a ``Bucket`` over one scope, the bucket's
variables.  ``planned`` caches one plan per skeleton and key (a solver, or
an evaluated utility), so later solves of a diagram, and of its
conversions, run the same one.  ``eliminate`` only executes a plan: it
lines each bucket's inputs up over its scope for the algebra's chance or
decision step, cuts each message down to its own scope, files it where the
plan put it and returns the root tables and the rules.  Only the steps
know the algebra: a bucket records scopes, views and cuts only.  The
kernels they share: ``seen`` applies a ``view`` (a transpose, then an
index that adds the axes a table lacks; leading axes pass through, so a
size-1 axis or a batch axis broadcasts), and ``fold`` folds tables seen
over one scope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .diagram import DiagramError, InfluenceDiagram

# a view: the permutation of a table's scope axes as negative axes (None:
# none needed), then the index that adds the target's other axes
View = tuple
_ALL = slice(None)
_SAME = (None, (Ellipsis,))


@dataclass
class Factor:
    scope: tuple[str, ...]
    table: np.ndarray  # leading encoding axes, then one axis per scope variable


def factor(diagram: InfluenceDiagram, scope: tuple[str, ...], table: np.ndarray) -> Factor:
    """A factor from a table whose last axis runs row-major over ``scope``;
    leading axes are kept in front."""
    return Factor(scope, table.reshape(table.shape[:-1] + diagram.domain_sizes(scope)))


def view(source: Sequence[str], target: Sequence[str], rank: Mapping | None = None) -> View:
    """How a table over ``source`` is seen over ``target``, which holds its
    variables and is in ``rank`` order (in which ``source`` is, without it).
    Neither half depends on sizes or on leading axes."""
    if source == target:
        return _SAME
    index = (Ellipsis, *map(dict.fromkeys(source, _ALL).get, target))
    if rank is not None:
        ranks = [rank[v] for v in source]
        if ranks != sorted(ranks):
            n = len(ranks)
            return tuple(i - n for i in sorted(range(n), key=ranks.__getitem__)), index
    return None, index


def seen(table: np.ndarray, view: View) -> np.ndarray:
    """``table`` seen through ``view``; leading axes pass through."""
    if view is _SAME:
        return table
    perm, index = view
    if perm is not None:
        table = table.transpose(*range(table.ndim - len(perm)), *perm)
    return table[index]


def fold(tables: Sequence, op: np.ufunc = np.multiply) -> np.ndarray:
    """The tables, seen over one scope, folded by ``op`` left to right.
    Each result is laid out C-contiguous, whatever the strides of a
    transposed input view; a lone table is returned as it is."""
    table = tables[0]
    for other in tables[1:]:
        table = op(table, other, order="C")
    return table


@dataclass
class Bucket:
    """One bucket of a plan.  Its scope is in elimination order, so ``var``
    comes first, at axis ``-len(scope)`` from the end; every input and
    message is seen over it.  It records scopes, views and cuts only, no
    domain size: a step that needs one reads it off the diagram."""

    var: str
    decision: bool
    lambdas: list[tuple[int, View]]  # each lambda input's slot and view, in arrival order
    thetas: list[tuple[int, View]]  # each theta input's slot and view
    scope: tuple[str, ...]  # the inputs' and the messages' variables
    out: list[tuple[str, ...] | None]  # the lambda and theta messages' scopes
    down: list[tuple | None]  # each message's index from scope[1:] to its scope, None: uncut


@dataclass(frozen=True)
class Plan:
    shapes: tuple[tuple[int, ...], ...]  # each input's domain sizes, lambdas then thetas
    buckets: tuple[Bucket, ...]


def plan(diagram: InfluenceDiagram, order, lambdas, thetas, spans: Callable) -> Plan:
    """The buckets of the CPTs or utilities ``lambdas`` and ``thetas`` along
    ``order``, which the caller checked, from their scopes.

    ``spans(diagram, var, decision, lam, theta)`` gives the variables of a
    bucket's lambda and theta messages (None for no message) from the sets
    of its lambda and theta inputs; a message's scope is the subsequence of
    the bucket's scope less ``var`` that it keeps.  Slots number the
    inputs, lambdas then thetas, then each message with a variable as it is
    sent.  Of the domain sizes, only the inputs' shapes are read.
    """
    key = {v: i for i, v in enumerate(order)}
    decisions = set(diagram.decision_vars)
    # per bucket and kind: (slot, scope, rank), no rank for a message, whose
    # scope is in elimination order
    inputs: list[tuple[list, list]] = [([], []) for _ in order]
    slots = itertools.count()
    for kind, fs in enumerate((lambdas, thetas)):
        for f in fs:
            inputs[min(map(key.__getitem__, f.scope))][kind].append((next(slots), f.scope, key))
    buckets = []
    for y, (lams, ths) in zip(order, inputs):
        lam = set().union(*[s for _, s, _ in lams])
        theta = set().union(*[s for _, s, _ in ths])
        msgs = spans(diagram, y, y in decisions, lam, theta)
        scope = tuple(sorted(lam.union(theta, *[m for m in msgs if m]), key=key.__getitem__))
        rest = scope[1:]
        out = [m and tuple(filter(m.__contains__, rest)) for m in msgs]
        down = [
            (Ellipsis, *[_ALL if v in m else 0 for v in rest]) if m and len(s) < len(rest) else None
            for m, s in zip(msgs, out)
        ]
        ins = [[(i, view(s, scope, r)) for i, s, r in fs] for fs in (lams, ths)]
        buckets.append(Bucket(y, y in decisions, *ins, scope, out, down))
        for kind, s in enumerate(out):
            if s:
                inputs[key[s[0]]][kind].append((next(slots), s, None))
    return Plan(tuple(diagram.domain_sizes(f.scope) for f in (*lambdas, *thetas)), tuple(buckets))


def planned(skeleton, key, make: Callable[[], Plan]) -> Plan:
    """``make()``, the ``Plan`` of ``key``, made once per skeleton: the
    skeleton's ordering and scopes are all a plan depends on."""
    if key not in skeleton.plans:
        skeleton.plans[key] = make()
    return skeleton.plans[key]


@dataclass
class Elimination:
    """What a run of a plan returns: its root tables and its rules."""

    root_lambdas: list[np.ndarray]  # tables over no variable, in the order they arrived
    root_thetas: list[np.ndarray]
    rules: dict[str, Factor]


def eliminate(
    diagram: InfluenceDiagram, plan: Plan, lambdas, thetas, chance_step, decision_step
) -> Elimination:
    """Run ``plan`` on the tables of the CPTs or utilities it was made for.

    Both steps get ``(diagram, bucket, lambdas, thetas)``: the bucket's
    record and its input tables, each seen over the bucket's scope.  The
    chance step returns the lambda and the theta message, the decision step
    also the decision's rule as a factor; a message is None where the plan
    has none, else a table over the scope less the bucket variable, which
    the executor cuts down to the message's own scope.  Returns the root
    tables and the rules; a run counts nothing.
    """
    inputs = zip((*lambdas, *thetas), plan.shapes)
    tables = [f.table.reshape(f.table.shape[:-1] + shape) for f, shape in inputs]
    result = Elimination([], [], {})
    roots = (result.root_lambdas, result.root_thetas)
    for b in plan.buckets:
        lams, ths = ([seen(tables[i], v) for i, v in ins] for ins in (b.lambdas, b.thetas))
        if b.decision:
            *msgs, result.rules[b.var] = decision_step(diagram, b, lams, ths)
        else:
            msgs = chance_step(diagram, b, lams, ths)
        for kind, (msg, scope, down) in enumerate(zip(msgs, b.out, b.down)):
            if scope is not None:
                if down is not None:
                    msg = msg[down]
                (tables if scope else roots[kind]).append(msg)
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
    table = seen(rule.table, view(rule.scope, info, {v: i for i, v in enumerate(info)}))
    lead = table.shape[: table.ndim - len(info)]
    full = np.broadcast_to(table, lead + diagram.domain_sizes(info))
    return info, full.reshape(lead + (-1,))
