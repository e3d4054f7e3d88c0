"""Exact solving of numeric influence diagrams.

``solve_exact`` runs the shared bucket elimination of ``elimination`` on
float tables; this module supplies its two steps.  The chance step
marginalizes the bucket variable out of the probability product and
renormalizes the utility by that marginal (zero-probability configurations
contribute zero).  The decision step maximizes the utility, keeps the
first maximizing action in domain order, and asserts that the probability
part is constant in the decision.  ``evaluate_policy`` and
``brute_force_meu`` provide independent evaluation paths for testing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
from .elimination import Factor, align, eliminate, expand_rule, factor, union_scope


def _combine(
    factors: list[Factor],
    diagram: InfluenceDiagram,
    order_key: dict[str, int],
    how: str,
) -> Factor:
    scope = union_scope(factors, order_key)
    op, start = (np.multiply, np.ones) if how == "mul" else (np.add, np.zeros)
    table = start(diagram.domain_sizes(scope))
    for f in factors:
        table = op(table, align(f, scope, diagram))
    return Factor(scope, table)


@dataclass(frozen=True)
class ExactSolution:
    meu: float
    policy: Policy


def solve_exact(
    diagram: InfluenceDiagram, order: list[str] | None = None
) -> ExactSolution:
    """Maximum expected utility and one optimal policy (first-action ties)."""
    require_valid(diagram, qualitative=False)
    run = eliminate(diagram, order, _chance_step, _decision_step)
    for lam in run.root_lambdas:
        assert np.isclose(float(lam), 1.0), (
            f"final probability mass is {float(lam)}, expected 1"
        )
    meu = 0.0
    for theta in run.root_thetas:
        meu += float(theta)
    rules = {}
    for d in diagram.decision_vars:
        info, actions = expand_rule(diagram, d, run.rules[d])
        rules[d] = PolicyRule(decision=d, scope=info, actions=actions)
    return ExactSolution(meu=meu, policy=Policy(rules=rules))


def _chance_step(diagram, order_key, y, lambdas, thetas):
    assert lambdas, f"chance bucket {y} has no probability component"
    lam = _combine(lambdas, diagram, order_key, "mul")
    axis = lam.scope.index(y)
    lam_msg = Factor(
        lam.scope[:axis] + lam.scope[axis + 1 :], lam.table.sum(axis=axis)
    )
    theta_msg = None
    if thetas:
        theta = _combine(thetas, diagram, order_key, "add")
        combined = _combine([lam, theta], diagram, order_key, "mul")
        c_axis = combined.scope.index(y)
        num = combined.table.sum(axis=c_axis)
        num_scope = combined.scope[:c_axis] + combined.scope[c_axis + 1 :]
        lam_aligned = align(lam_msg, num_scope, diagram)
        table = np.divide(
            num,
            np.broadcast_to(lam_aligned, num.shape),
            out=np.zeros_like(num),
            where=np.broadcast_to(lam_aligned, num.shape) != 0,
        )
        theta_msg = Factor(num_scope, table)
    return lam_msg, theta_msg


def _decision_step(diagram, order_key, y, lambdas, thetas):
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
        lam_msg = Factor(
            lam.scope[:l_axis] + lam.scope[l_axis + 1 :], lam.table.max(axis=l_axis)
        )
    if not thetas:
        # nothing downstream distinguishes the actions
        return lam_msg, None, Factor((), np.zeros((), dtype=int))
    combined = _combine(thetas, diagram, order_key, "add")
    axis = combined.scope.index(y)
    theta_msg = Factor(
        combined.scope[:axis] + combined.scope[axis + 1 :],
        combined.table.max(axis=axis),
    )
    # first maximizing action in domain order
    actions = np.argmax(np.moveaxis(combined.table, axis, -1), axis=-1)
    return lam_msg, theta_msg, Factor(theta_msg.scope, actions)


def _policy_factors(diagram: InfluenceDiagram, policy: Policy) -> list[Factor]:
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
        factors.append(Factor(rule.scope + (d,), one_hot.reshape(sizes + (k,))))
    return factors


class PolicyEvaluator:
    """Exact policy evaluation with the diagram-side work done once."""

    def __init__(self, diagram: InfluenceDiagram):
        require_valid(diagram, qualitative=False)
        self._diagram = diagram
        self._order_key = {v.id: i for i, v in enumerate(diagram.variables)}
        self._cpt_factors = [
            factor(diagram, c.scope, c.table, float) for c in diagram.cpts
        ]
        self._utility_factors = [
            factor(diagram, u.scope, u.table, float) for u in diagram.utilities
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
        msg = Factor(
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
