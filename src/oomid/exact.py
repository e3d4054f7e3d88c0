"""Exact solving of numeric influence diagrams.

``solve_exact`` runs the shared bucket elimination of ``elimination`` on
float tables; this module supplies its two steps, which combine tables
with ``fold`` and reduce them with ``reduce_out``.  The chance step
marginalizes the bucket variable out of the probability product and
renormalizes the utility by that marginal (zero-probability
configurations contribute zero).  The decision step maximizes the
utility, keeps the first maximizing action in domain order, and asserts
that the probability part is constant in the decision.

``PolicyEvaluator`` scores fixed policies with the same ``eliminate``:
per utility, one sum-product over the CPTs and that utility along a legal
ordering of the diagram's non-forgetting closure.  A chance step sums its variable
out; a decision step selects each policy's action along the decision's
axis where the solver takes the max.  Tables gain a leading batch axis,
one entry per policy, only at the first decision bucket, so everything
eliminated before it is computed once for the whole batch.
``evaluate_many`` takes a ``PolicyBatch``, per decision an (s, cells)
array of action indices, checked once per decision; a list of ``Policy``
is stacked into one first.  ``evaluate`` and ``evaluate_policy`` are
batches of one.  ``brute_force_meu`` enumerates every policy and scores
each with ``policy_value``, an independent oracle for testing.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .diagram import (
    DiagramError,
    GuardExceeded,
    InfluenceDiagram,
    Kind,
    Policy,
    PolicyBatch,
    PolicyRule,
    apply_nonforgetting,
    require_valid,
)
from .elimination import (
    Factor,
    align,
    eliminate,
    encoded,
    expand_rule,
    fold,
    ordered,
    product,
    reduce_out,
    resolve_order,
)
from .ordering import largest_bucket


@dataclass(frozen=True)
class ExactSolution:
    meu: float
    policy: Policy


def solve_exact(
    diagram: InfluenceDiagram, order: list[str] | None = None
) -> ExactSolution:
    """Maximum expected utility and one optimal policy (first-action ties)."""
    require_valid(diagram, qualitative=False)
    run = eliminate(
        diagram,
        resolve_order(diagram, order),
        encoded(diagram, diagram.cpts, _floats),
        encoded(diagram, diagram.utilities, _floats),
        _chance_step,
        _decision_step,
    )
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
        rules[d] = PolicyRule(decision=d, scope=info, actions=tuple(actions.tolist()))
    return ExactSolution(meu=meu, policy=Policy(rules=rules))


def _floats(entries: tuple) -> np.ndarray:
    return np.asarray(entries, dtype=float)


def _chance_step(diagram, order_key, y, lambdas, thetas):
    assert lambdas, f"chance bucket {y} has no probability component"
    lam = fold(lambdas, order_key)
    lam_msg = reduce_out(lam, y, np.ndarray.sum)
    theta_msg = None
    if thetas:
        theta = thetas[0] if len(thetas) == 1 else fold(thetas, order_key, np.add)
        num = reduce_out(fold([lam, theta], order_key), y, np.ndarray.sum)
        marginal = align(lam_msg, num.scope)
        # 0.0 where the marginal is zero; num there is a sum of 0 * theta,
        # which is -0.0 for a negative theta, so it cannot serve as out
        theta_msg = Factor(num.scope, np.zeros_like(num.table))
        np.divide(num.table, marginal, out=theta_msg.table, where=marginal != 0)
    return lam_msg, theta_msg


def _decision_step(diagram, order_key, y, lambdas, thetas):
    # The bucket's probability product is constant in the decision (checked
    # below), so the utility message keeps its conditional-expectation
    # meaning only if that constant is NOT folded in: the probability
    # message is re-emitted and would otherwise be counted twice downstream.
    lam_msg = None
    if lambdas:
        lam = fold(lambdas, order_key)
        lam_msg = reduce_out(lam, y, np.ndarray.max)
        spread = lam_msg.table - reduce_out(lam, y, np.ndarray.min).table
        assert np.all(
            spread <= 1e-9 * np.maximum(1.0, np.abs(lam.table).max())
        ), f"probability component in decision bucket {y} varies with {y}"
    if not thetas:
        # nothing downstream distinguishes the actions
        return lam_msg, None, Factor((), np.zeros((), dtype=int))
    combined = fold(thetas, order_key, np.add)
    theta_msg = reduce_out(combined, y, np.ndarray.max)
    # first maximizing action in domain order
    return lam_msg, theta_msg, reduce_out(combined, y, np.ndarray.argmax)


# Cells of the largest table of one chunk of policies: every table of the
# evaluator's elimination spans at most one bucket, and carries at most one
# entry per policy.  Bounds the memory of ``evaluate_many`` (32 MiB of
# float64 per table) for any number of policies.
_CHUNK_CELLS = 1 << 22


def _sum_step(diagram, order_key, y, lambdas, thetas):
    """Sum ``y`` out of the bucket's product; the message carries the
    utility if the bucket does."""
    msg = reduce_out(fold(lambdas + thetas, order_key), y, np.ndarray.sum)
    return (None, msg) if thetas else (msg, None)


def _select_step(rules, diagram, order_key, y, lambdas, thetas):
    """Take each policy's action out of the bucket's product: along ``y``,
    at the entry its rule gives for the decision's information set."""
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


def _stack(diagram: InfluenceDiagram, policies: Sequence[Policy]) -> PolicyBatch:
    """A list of policies as a batch, each rule checked for its decision,
    scope and cell count."""
    scopes, actions = {}, {}
    for d in diagram.decision_vars:
        info = tuple(diagram.information_sets.get(d, ()))
        cells = math.prod(diagram.domain_sizes(info))
        rows = []
        for policy in policies:
            rule = policy.rules.get(d)
            if rule is None:
                raise DiagramError(f"policy has no rule for decision {d}")
            if tuple(rule.scope) != info:
                raise DiagramError(f"rule for {d} is over {rule.scope}, expected {info}")
            if len(rule.actions) != cells:
                raise DiagramError(f"rule for {d} is incomplete")
            rows.append(rule.actions)
        scopes[d] = info
        actions[d] = np.array(rows) if rows else np.zeros((0, cells), dtype=int)
    return PolicyBatch(len(policies), scopes, actions)


class PolicyEvaluator:
    """Exact policy evaluation with the diagram-side work done once.

    A forgetting diagram is ordered and eliminated as its non-forgetting
    closure, which only adds observations: each decision still goes before
    everything its rule reads.  The ordering (the closure's legal one unless
    given), the encoded tables and the chunk size depend on the diagram only.
    """

    def __init__(self, diagram: InfluenceDiagram, order: list[str] | None = None):
        require_valid(diagram, qualitative=False)
        self._diagram = diagram
        self._closure = apply_nonforgetting(diagram)
        self._order = resolve_order(self._closure, order)
        self._cpts = encoded(diagram, diagram.cpts, _floats)
        self._utilities = encoded(diagram, diagram.utilities, _floats)
        largest = largest_bucket(self._closure, self._order)
        self._chunk = max(1, _CHUNK_CELLS // largest)

    def evaluate(self, policy: Policy) -> float:
        return self.evaluate_many([policy])[0]

    def evaluate_many(self, policies: PolicyBatch | Sequence[Policy]) -> list[float]:
        """Expected utility of each policy, in order."""
        if not isinstance(policies, PolicyBatch):
            policies = _stack(self._diagram, policies)
        rules = {d: self._checked(policies, d) for d in self._diagram.decision_vars}
        values: list[float] = []
        for start in range(0, policies.size, self._chunk):
            stop = min(start + self._chunk, policies.size)
            chunk = {d: Factor(r.scope, r.table[start:stop]) for d, r in rules.items()}
            select = functools.partial(_select_step, chunk)
            total = np.zeros(stop - start)
            for utility in self._utilities:
                run = eliminate(
                    self._closure, self._order, self._cpts, [utility], _sum_step, select
                )
                value = run.root_thetas[0]
                for lam in run.root_lambdas:
                    value = value * lam
                total += value
            values.extend(total.tolist())
        return values

    def _checked(self, batch: PolicyBatch, d: str) -> Factor:
        """The batch's rule for decision ``d`` as a factor over its
        information set, with a leading batch axis, after checking the set
        and the actions' shape, type and range."""
        info = tuple(self._diagram.information_sets.get(d, ()))
        if d not in batch.actions or d not in batch.scopes:
            raise DiagramError(f"policy has no rule for decision {d}")
        if tuple(batch.scopes[d]) != info:
            raise DiagramError(f"rule for {d} is over {batch.scopes[d]}, expected {info}")
        actions = np.asarray(batch.actions[d])
        k = len(self._diagram.domain(d))
        sizes = self._diagram.domain_sizes(info)
        if actions.shape != (batch.size, math.prod(sizes)):
            raise DiagramError(f"rule for {d} is incomplete")
        if actions.dtype.kind not in "iu" or (
            actions.size and not (0 <= actions.min() and actions.max() < k)
        ):
            raise DiagramError(f"rule for {d} has an action outside 0..{k - 1}")
        return Factor(info, actions.reshape((batch.size,) + sizes))


def evaluate_policy(diagram: InfluenceDiagram, policy: Policy) -> float:
    """Expected utility of a fully specified policy, by exact summation."""
    return PolicyEvaluator(diagram).evaluate(policy)


def _policy_space(diagram: InfluenceDiagram) -> list[tuple[str, tuple[str, ...], int, int]]:
    """Per decision: (id, info scope, number of cells, domain size)."""
    out = []
    for d in diagram.decision_vars:
        info = tuple(diagram.information_sets.get(d, ()))
        n_cells = math.prod(diagram.domain_sizes(info))
        out.append((d, info, n_cells, len(diagram.domain(d))))
    return out


def policy_value(diagram: InfluenceDiagram, actions: Mapping[str, Sequence[int]]) -> float:
    """Expected utility of the policy whose rule for each decision ``d`` is
    ``actions[d]``, row-major over its information set: the sum over every
    configuration of the chance variables, the decisions set by the rules.
    """
    chance = [v for v in diagram.variables if v.kind is Kind.CHANCE]
    total = 0.0
    for chance_config in itertools.product(*[range(len(v.domain)) for v in chance]):
        assignment: dict[str, int] = {v.id: val for v, val in zip(chance, chance_config)}
        for d in diagram.decision_order:
            if d in assignment:
                continue
            info = tuple(diagram.information_sets.get(d, ()))
            idx = 0
            for p in info:
                idx = idx * len(diagram.domain(p)) + assignment[p]
            assignment[d] = actions[d][idx]
        prob = 1.0
        for cpt in diagram.cpts:
            pos = 0
            for s in cpt.scope:
                pos = pos * len(diagram.domain(s)) + assignment[s]
            prob *= cpt.table[pos]
            if prob == 0.0:
                break
        if prob == 0.0:
            continue
        util = 0.0
        for u in diagram.utilities:
            pos = 0
            for s in u.scope:
                pos = pos * len(diagram.domain(s)) + assignment[s]
            util += u.table[pos]
        total += prob * util
    return total


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
        # k**n_cells can have billions of digits; k > 1 already exceeds the
        # guard at exponent guard.bit_length(), so the exponent stops there
        count *= k ** min(n_cells, guard.bit_length())
        if count > guard:
            raise GuardExceeded(
                f"policy space exceeds the brute-force guard of {guard}"
            )

    def all_policies():
        per_decision_tables = [
            itertools.product(range(k), repeat=n_cells) for _, _, n_cells, k in space
        ]
        for combo in itertools.product(*per_decision_tables):
            yield {space[i][0]: combo[i] for i in range(len(space))}

    values = [policy_value(diagram, actions) for actions in all_policies()]
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
