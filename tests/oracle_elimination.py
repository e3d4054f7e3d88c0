"""The per-call bucket elimination, kept as an oracle for the plan executor.

``oracle_eliminate`` places every factor and message into its bucket while
it runs, aligns tables by sorting each factor's axes into the bucket's
order, and hands each step the bucket variable, the ordering's position
table and the factors themselves.  The steps here are the exact solver's
(storing probability messages of exact ones as one cell), the
order-of-magnitude solver's and the policy evaluator's, each as it ran on
that driver.  ``solve``, ``solve_oom`` and ``evaluate_many`` run them the
way ``solve_exact``, ``elim_oom_id`` and ``PolicyEvaluator.evaluate_many``
do, so their outputs and largest message can be compared bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from oomid import exact
from oomid.elimination import Elimination, Factor, factor
from oomid.oom_solve import _expand_policy_set, max_ends, maximal_mask, sum_ends
from oomid.ordering import checked_skeleton
from oomid.sets import ZERO_SET, decode_set
from oomid.values import INF


def factors(diagram, functions) -> list[Factor]:
    return [factor(diagram, fn.scope, fn.table) for fn in functions]


def align(f: Factor, target: tuple[str, ...]) -> np.ndarray:
    """View a factor's table as an array broadcastable over ``target``."""
    return _aligned(f, {v: i for i, v in enumerate(target)})


def _aligned(f: Factor, position: dict[str, int]) -> np.ndarray:
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
    position = {v: i for i, v in enumerate(scope)}
    table = _aligned(factors[0], position)
    for f in factors[1:]:
        table = op(table, _aligned(f, position), order="C")
    return table


def ordered(variables, order_key: dict[str, int]) -> tuple[str, ...]:
    return tuple(sorted(variables, key=order_key.__getitem__))


def fold(
    factors: Sequence[Factor], order_key: dict[str, int], op: np.ufunc = np.multiply
) -> Factor:
    scope = ordered({v for f in factors for v in f.scope}, order_key)
    return Factor(scope, product(factors, scope, op))


def reduce_out(f: Factor, y: str, reduce: Callable) -> Factor:
    i = f.scope.index(y)
    return Factor(f.scope[:i] + f.scope[i + 1 :], reduce(f.table, i - len(f.scope)))


def sum_out(diagram, f: Factor, y: str) -> Factor:
    table = f.table
    i = f.scope.index(y)
    axis = table.ndim - len(f.scope) + i
    scope = f.scope[:i] + f.scope[i + 1 :]
    rest = table.shape[axis + 1 :]
    if set(rest) == {1} and math.prod(diagram.domain_sizes(f.scope[i + 1 :])) > 1:
        total = np.zeros(table.shape[:axis] + rest)
        for part in np.moveaxis(table, axis, 0):
            total += part
        return Factor(scope, total)
    return Factor(scope, table.sum(axis))


@dataclass
class Run(Elimination):
    # cells stored by the largest message, read off its trailing axes: a
    # broadcast axis stores one
    max_cells: int = 0


def oracle_eliminate(diagram, order, lambdas, thetas, chance_step, decision_step) -> Run:
    """Buckets placed, scopes united and tables aligned on every call."""
    order_key = {v: i for i, v in enumerate(order)}
    buckets: list[tuple[list[Factor], list[Factor]]] = [([], []) for _ in order]

    def place(f: Factor, kind: int) -> None:
        pos = min(order_key[v] for v in f.scope)
        buckets[pos][kind].append(f)

    for kind, fs in enumerate((lambdas, thetas)):
        for f in fs:
            place(f, kind)

    result = Run([], [], {})
    roots = (result.root_lambdas, result.root_thetas)
    decisions = set(diagram.decision_vars)
    for pos, y in enumerate(order):
        lams, ths = buckets[pos]
        if y in decisions:
            lam_msg, theta_msg, result.rules[y] = decision_step(
                diagram, order_key, y, lams, ths
            )
        else:
            lam_msg, theta_msg = chance_step(diagram, order_key, y, lams, ths)
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


# ---------------------------------------------------------------------------
# the exact steps


def _stored(msg: Factor) -> Factor:
    if len(msg.scope) > 1 and msg.table.item(0) == 1.0 and (msg.table == 1.0).all():
        return Factor(msg.scope, np.ones((1,) * len(msg.scope)))
    return msg


def stored_chance_step(diagram, order_key, y, lambdas, thetas):
    assert lambdas, f"chance bucket {y} has no probability component"
    lam = fold(lambdas, order_key)
    lam_msg = sum_out(diagram, lam, y)
    theta_msg = None
    if thetas:
        theta = thetas[0] if len(thetas) == 1 else fold(thetas, order_key, np.add)
        num = sum_out(diagram, fold([lam, theta], order_key), y)
        marginal = align(lam_msg, num.scope)
        table = np.asarray(num.table)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(table, marginal, out=table)
        np.copyto(table, 0.0, where=marginal == 0)
        theta_msg = Factor(num.scope, table)
    return _stored(lam_msg), theta_msg


def stored_decision_step(diagram, order_key, y, lambdas, thetas):
    lam_msg = None
    if lambdas:
        lam = fold(lambdas, order_key)
        lam_msg = reduce_out(lam, y, np.ndarray.max)
        spread = lam_msg.table - reduce_out(lam, y, np.ndarray.min).table
        bound = exact._mass_tolerance(diagram) * max(1.0, np.abs(lam.table).max())
        assert np.all(spread <= bound), f"probability component in {y} varies"
        lam_msg = _stored(lam_msg)
    if not thetas:
        return lam_msg, None, Factor((), np.zeros((), dtype=int))
    combined = fold(thetas, order_key, np.add)
    return (
        lam_msg,
        reduce_out(combined, y, np.ndarray.max),
        reduce_out(combined, y, np.ndarray.argmax),
    )


def run(d, chance_step, decision_step) -> Run:
    """The steps on the oracle driver, along the diagram's recorded ordering."""
    lambdas, thetas = factors(d, d.cpts), factors(d, d.utilities)
    order = checked_skeleton(d).order
    return oracle_eliminate(d, order, lambdas, thetas, chance_step, decision_step)


def solve(d) -> tuple[float, dict[str, list[int]], Run]:
    """``solve_exact``'s MEU and actions per decision, and its run."""
    result = run(d, stored_chance_step, stored_decision_step)
    meu = 0.0
    for theta in result.root_thetas:
        meu += float(theta)
    rules = {v: exact.expand_rule(d, v, result.rules[v])[1].tolist() for v in d.decision_vars}
    return meu, rules, result


# ---------------------------------------------------------------------------
# the order-of-magnitude steps


def _utility(thetas, lam, order_key) -> Factor:
    theta = fold(thetas, order_key, np.minimum)
    if len(thetas) > 1:
        theta = Factor(theta.scope, sum_ends(theta.table))
    return theta if lam is None else fold([theta, lam], order_key, np.add)


def oom_chance_step(diagram, order_key, y, lambdas, thetas):
    assert lambdas, f"chance bucket {y} has no probability component"
    lam = fold(lambdas, order_key, np.add)
    lam_msg = reduce_out(lam, y, np.ndarray.min)
    theta_msg = None
    if thetas:
        sums = reduce_out(_utility(thetas, lam, order_key), y, sum_ends)
        total = align(lam_msg, sums.scope)
        theta_msg = Factor(sums.scope, sums.table - np.where(total < INF, total, 0.0))
    return lam_msg, theta_msg


def oom_decision_step(diagram, order_key, y, lambdas, thetas):
    lam = fold(lambdas, order_key, np.add) if lambdas else None
    lam_msg = reduce_out(lam, y, np.ndarray.min) if lam is not None else None
    if not thetas:
        return lam_msg, None, Factor((), np.ones(len(diagram.domain(y)), dtype=bool))
    combined = _utility(thetas, lam, order_key)
    return (
        lam_msg,
        reduce_out(combined, y, max_ends),
        reduce_out(combined, y, maximal_mask),
    )


def solve_oom(o):
    """``elim_oom_id``'s MEU, policy set and largest message."""
    result = run(o, oom_chance_step, oom_decision_step)
    roots = result.root_thetas
    meu = decode_set(sum_ends(np.stack(roots, -1), -1)) if roots else ZERO_SET
    return meu, _expand_policy_set(o, result.rules), result.max_cells


# ---------------------------------------------------------------------------
# the policy evaluator's steps


def sum_step(diagram, order_key, y, lambdas, thetas):
    msg = sum_out(diagram, fold(lambdas + thetas, order_key), y)
    return (None, msg) if thetas else (msg, None)


def select_step(rules, diagram, order_key, y, lambdas, thetas):
    if not lambdas and not thetas:
        return None, None, None
    rule = rules[y]
    seen = {v for f in lambdas + thetas for v in f.scope}
    scope = ordered(seen | set(rule.scope), order_key)

    def select(table, axis):
        choice = align(rule, scope).squeeze(axis)
        actions = np.moveaxis(table, axis, 0)
        chosen = actions[0]
        for a in range(1, len(actions)):
            chosen = np.where(choice == a, actions[a], chosen)
        return chosen

    msg = reduce_out(Factor(scope, product(lambdas + thetas, scope)), y, select)
    return (None, msg, None) if thetas else (msg, None, None)


def evaluate_many(d, batch) -> list[float]:
    """``PolicyEvaluator(d).evaluate_many(batch)``: each utility over its
    ancestors, in chunks bounded by the recorded largest bucket."""
    record = checked_skeleton(d)
    chunk = max(1, exact._CHUNK_CELLS // record.largest_bucket)
    lambdas = {c.child: f for c, f in zip(d.cpts, factors(d, d.cpts))}
    rules = {}
    for v in d.decision_vars:
        info = d.information_sets.get(v, ())
        table = np.asarray(batch.actions[v]).reshape((batch.size,) + d.domain_sizes(info))
        rules[v] = Factor(info, table)
    values: list[float] = []
    for start in range(0, batch.size, chunk):
        stop = min(start + chunk, batch.size)
        part_rules = {v: Factor(r.scope, r.table[start:stop]) for v, r in rules.items()}
        select = functools.partial(select_step, part_rules)
        total = np.zeros(stop - start)
        for kept, utility in zip(record.kept, factors(d, d.utilities)):
            order = [v for v in record.order if v in kept]
            part = [f for child, f in lambdas.items() if child in kept]
            result = oracle_eliminate(d, order, part, [utility], sum_step, select)
            value = result.root_thetas[0]
            for lam in result.root_lambdas:
                value = value * lam
            total += value
        values.extend(total.tolist())
    return values
