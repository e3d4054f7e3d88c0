"""Exact solving of numeric influence diagrams.

``solve_exact`` runs bucket elimination along a legal ordering, carrying a
probability message and an expected-utility message per bucket.  Chance
buckets marginalize the bucket variable and renormalize the utility by the
compiled probability (zero-probability configurations contribute zero);
decision buckets maximize, asserting that the probability part is constant
in the decision.  ``evaluate_policy`` and ``brute_force_meu`` provide
independent evaluation paths for testing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .diagram import (
    DiagramError,
    GuardExceeded,
    InfluenceDiagram,
    Kind,
    Policy,
    PolicyRule,
    require_valid,
)
from .ordering import is_legal_ordering, legal_ordering


@dataclass
class _Factor:
    scope: tuple[str, ...]
    table: np.ndarray  # one axis per scope variable


def _align(f: _Factor, target: tuple[str, ...], diagram: InfluenceDiagram) -> np.ndarray:
    """View a factor's table as an array broadcastable over ``target``."""
    perm = sorted(range(len(f.scope)), key=lambda i: target.index(f.scope[i]))
    arr = np.transpose(f.table, perm)
    shape = tuple(
        len(diagram.domain(v)) if v in f.scope else 1 for v in target
    )
    return arr.reshape(shape)


def _union_scope(
    factors: Iterable[_Factor], order_key: dict[str, int]
) -> tuple[str, ...]:
    seen = {v for f in factors for v in f.scope}
    return tuple(sorted(seen, key=lambda v: order_key[v]))


def _combine(
    factors: list[_Factor],
    diagram: InfluenceDiagram,
    order_key: dict[str, int],
    how: str,
) -> _Factor:
    scope = _union_scope(factors, order_key)
    op, start = (np.multiply, np.ones) if how == "mul" else (np.add, np.zeros)
    table = start(diagram.domain_sizes(scope))
    for f in factors:
        table = op(table, _align(f, scope, diagram))
    return _Factor(scope, table)


@dataclass(frozen=True)
class ExactSolution:
    meu: float
    policy: Policy


def solve_exact(
    diagram: InfluenceDiagram, order: list[str] | None = None
) -> ExactSolution:
    """Maximum expected utility and one optimal policy (first-action ties)."""
    require_valid(diagram, qualitative=False)
    if order is None:
        order = legal_ordering(diagram)
    elif not is_legal_ordering(diagram, order):
        raise DiagramError(f"not a legal elimination ordering: {order}")
    order_key = {v: i for i, v in enumerate(order)}

    buckets: list[tuple[list[_Factor], list[_Factor]]] = [
        ([], []) for _ in order
    ]

    def place(f: _Factor, kind: int) -> None:
        pos = min(order_key[v] for v in f.scope)
        buckets[pos][kind].append(f)

    for cpt in diagram.cpts:
        arr = np.asarray(cpt.table).reshape(diagram.domain_sizes(cpt.scope))
        place(_Factor(cpt.scope, arr), 0)
    for u in diagram.utilities:
        arr = np.asarray(u.table).reshape(diagram.domain_sizes(u.scope))
        place(_Factor(u.scope, arr), 1)

    meu = 0.0
    rules: dict[str, PolicyRule] = {}
    decisions = set(diagram.decision_vars)

    for pos, y in enumerate(order):
        lambdas, thetas = buckets[pos]
        if y in decisions:
            lam_msg, theta_msg, rule = _process_decision_bucket(
                diagram, order_key, y, lambdas, thetas
            )
            rules[y] = rule
        else:
            lam_msg, theta_msg = _process_chance_bucket(
                diagram, order_key, y, lambdas, thetas
            )
        for msg, kind in ((lam_msg, 0), (theta_msg, 1)):
            if msg is None:
                continue
            if msg.scope:
                place(msg, kind)
            elif kind == 1:
                meu += float(msg.table)
            else:
                assert np.isclose(float(msg.table), 1.0), (
                    f"final probability mass is {float(msg.table)}, expected 1"
                )

    policy = Policy(
        rules={d: _expand_rule(diagram, rules[d], d) for d in diagram.decision_vars}
    )
    return ExactSolution(meu=meu, policy=policy)


def _process_chance_bucket(diagram, order_key, y, lambdas, thetas):
    assert lambdas, f"chance bucket {y} has no probability component"
    lam = _combine(lambdas, diagram, order_key, "mul")
    axis = lam.scope.index(y)
    lam_msg = _Factor(
        lam.scope[:axis] + lam.scope[axis + 1 :], lam.table.sum(axis=axis)
    )
    theta_msg = None
    if thetas:
        theta = _combine(thetas, diagram, order_key, "add")
        combined = _combine([lam, theta], diagram, order_key, "mul")
        c_axis = combined.scope.index(y)
        num = combined.table.sum(axis=c_axis)
        num_scope = combined.scope[:c_axis] + combined.scope[c_axis + 1 :]
        lam_aligned = _align(lam_msg, num_scope, diagram)
        table = np.divide(
            num,
            np.broadcast_to(lam_aligned, num.shape),
            out=np.zeros_like(num),
            where=np.broadcast_to(lam_aligned, num.shape) != 0,
        )
        theta_msg = _Factor(num_scope, table)
    return lam_msg, theta_msg


def _process_decision_bucket(diagram, order_key, y, lambdas, thetas):
    # The bucket's probability product is constant in the decision (checked
    # below), so the utility message keeps its conditional-expectation
    # meaning only if that constant is NOT folded in: the probability
    # message is re-emitted and would otherwise be counted twice downstream.
    lam_msg = None
    if lambdas:
        lam = _combine(lambdas, diagram, order_key, "mul")
        l_axis = lam.scope.index(y)
        spread = lam.table.max(axis=l_axis) - lam.table.min(axis=l_axis)
        assert np.all(
            spread <= 1e-9 * np.maximum(1.0, np.abs(lam.table).max())
        ), f"probability component in decision bucket {y} varies with {y}"
        lam_msg = _Factor(
            lam.scope[:l_axis] + lam.scope[l_axis + 1 :], lam.table.max(axis=l_axis)
        )
    if not thetas:
        # nothing downstream distinguishes the actions
        return lam_msg, None, PolicyRule(decision=y, scope=(), actions=(0,))
    combined = _combine(thetas, diagram, order_key, "add")
    axis = combined.scope.index(y)
    theta_msg = _Factor(
        combined.scope[:axis] + combined.scope[axis + 1 :],
        combined.table.max(axis=axis),
    )
    # first maximizing action in domain order
    actions = np.argmax(np.moveaxis(combined.table, axis, -1), axis=-1)
    rule = PolicyRule(
        decision=y, scope=theta_msg.scope, actions=tuple(actions.reshape(-1).tolist())
    )
    return lam_msg, theta_msg, rule


def _expand_rule(
    diagram: InfluenceDiagram, rule: PolicyRule, decision: str
) -> PolicyRule:
    """Broadcast a bucket-scope rule over the full information set."""
    info = tuple(diagram.information_sets.get(decision, ()))
    extra = [v for v in rule.scope if v not in info]
    assert not extra, f"decision {decision}: rule depends on unobserved {extra}"
    if rule.scope == info:
        return rule
    src = np.asarray(rule.actions).reshape(diagram.domain_sizes(rule.scope))
    aligned = _align(_Factor(rule.scope, src), info, diagram)
    full = np.broadcast_to(aligned, diagram.domain_sizes(info))
    return PolicyRule(
        decision=decision, scope=info, actions=tuple(full.reshape(-1).tolist())
    )


def _policy_factors(diagram: InfluenceDiagram, policy: Policy) -> list[_Factor]:
    factors = []
    for d in diagram.decision_vars:
        if d not in policy.rules:
            raise DiagramError(f"policy has no rule for decision {d}")
        rule = policy.rules[d]
        info = tuple(diagram.information_sets.get(d, ()))
        if tuple(rule.scope) != info:
            raise DiagramError(
                f"rule for {d} is over {rule.scope}, expected {info}"
            )
        sizes = diagram.domain_sizes(rule.scope)
        n_cells = int(np.prod(sizes)) if sizes else 1
        if len(rule.actions) != n_cells:
            raise DiagramError(f"rule for {d} is incomplete")
        k = len(diagram.domain(d))
        one_hot = np.zeros((n_cells, k))
        one_hot[np.arange(n_cells), np.asarray(rule.actions)] = 1.0
        factors.append(_Factor(rule.scope + (d,), one_hot.reshape(sizes + (k,))))
    return factors


class PolicyEvaluator:
    """Exact policy evaluation with the diagram-side work done once."""

    def __init__(self, diagram: InfluenceDiagram):
        require_valid(diagram, qualitative=False)
        self._diagram = diagram
        self._order_key = {v.id: i for i, v in enumerate(diagram.variables)}
        self._cpt_factors = [
            _Factor(c.scope, np.asarray(c.table).reshape(diagram.domain_sizes(c.scope)))
            for c in diagram.cpts
        ]
        self._utility_factors = [
            _Factor(u.scope, np.asarray(u.table).reshape(diagram.domain_sizes(u.scope)))
            for u in diagram.utilities
        ]

    def evaluate(self, policy: Policy) -> float:
        base = self._cpt_factors + _policy_factors(self._diagram, policy)
        total = 0.0
        for u in self._utility_factors:
            total += _sum_out_all(self._diagram, base + [u], self._order_key)
        return total


def evaluate_policy(diagram: InfluenceDiagram, policy: Policy) -> float:
    """Expected utility of a fully specified policy, by exact summation."""
    return PolicyEvaluator(diagram).evaluate(policy)


def _sum_out_all(diagram, factors, order_key) -> float:
    live = list(factors)
    remaining = {v for f in live for v in f.scope}
    while remaining:
        # cheapest-first greedy: eliminate the variable whose combined factor
        # scope is smallest
        def cost(v: str) -> tuple[int, str]:
            scope = {w for f in live if v in f.scope for w in f.scope}
            return (len(scope), v)

        y = min(remaining, key=cost)
        involved = [f for f in live if y in f.scope]
        rest = [f for f in live if y not in f.scope]
        combined = _combine(involved, diagram, order_key, "mul")
        axis = combined.scope.index(y)
        msg = _Factor(
            combined.scope[:axis] + combined.scope[axis + 1 :],
            combined.table.sum(axis=axis),
        )
        live = rest + [msg]
        remaining.discard(y)
    result = 1.0
    for f in live:
        result *= float(f.table)
    return result


def _policy_space(diagram: InfluenceDiagram) -> list[tuple[str, tuple[str, ...], int, int]]:
    """Per decision: (id, info scope, number of cells, domain size)."""
    out = []
    for d in diagram.decision_vars:
        info = tuple(diagram.information_sets.get(d, ()))
        n_cells = int(np.prod(diagram.domain_sizes(info))) if info else 1
        out.append((d, info, n_cells, len(diagram.domain(d))))
    return out


def brute_force_meu(
    diagram: InfluenceDiagram, guard: int = 10**6
) -> tuple[float, list[Policy]]:
    """Enumerate every policy; return the MEU and all optimal policies.

    Ties within 1e-9 (relative) of the best are collected.  Refuses
    instances whose policy space exceeds ``guard``.
    """
    require_valid(diagram, qualitative=False)
    space = _policy_space(diagram)
    count = 1
    for _, _, n_cells, k in space:
        count *= k**n_cells
        if count > guard:
            raise GuardExceeded(
                f"policy space exceeds the brute-force guard of {guard}"
            )

    chance = [v for v in diagram.variables if v.kind is Kind.CHANCE]
    var_index = {v.id: i for i, v in enumerate(diagram.variables)}
    cpts = list(diagram.cpts)
    utils = list(diagram.utilities)

    def eu(policy_actions: dict[str, tuple[int, ...]]) -> float:
        total = 0.0
        for chance_config in itertools.product(
            *[range(len(v.domain)) for v in chance]
        ):
            assignment: dict[str, int] = {
                v.id: val for v, val in zip(chance, chance_config)
            }
            for d in diagram.decision_order:
                if d in assignment:
                    continue
                info = tuple(diagram.information_sets.get(d, ()))
                idx = 0
                for p in info:
                    idx = idx * len(diagram.domain(p)) + assignment[p]
                assignment[d] = policy_actions[d][idx]
            prob = 1.0
            for cpt in cpts:
                pos = 0
                for s in cpt.scope:
                    pos = pos * len(diagram.domain(s)) + assignment[s]
                prob *= cpt.table[pos]
                if prob == 0.0:
                    break
            if prob == 0.0:
                continue
            util = 0.0
            for u in utils:
                pos = 0
                for s in u.scope:
                    pos = pos * len(diagram.domain(s)) + assignment[s]
                util += u.table[pos]
            total += prob * util
        return total

    def all_policies():
        per_decision_tables = [
            itertools.product(range(k), repeat=n_cells) for _, _, n_cells, k in space
        ]
        for combo in itertools.product(*per_decision_tables):
            yield {space[i][0]: combo[i] for i in range(len(space))}

    values = [eu(actions) for actions in all_policies()]
    best = max(values)
    tol = 1e-9 * max(1.0, abs(best))
    winners = []
    for value, actions in zip(values, all_policies()):
        if best - value <= tol:
            winners.append(
                Policy(
                    rules={
                        d: PolicyRule(decision=d, scope=info, actions=actions[d])
                        for d, info, _, _ in space
                    }
                )
            )
    return best, winners
