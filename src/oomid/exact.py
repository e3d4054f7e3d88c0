"""Exact solving of numeric influence diagrams.

``solve_exact`` runs the shared bucket elimination of ``elimination`` on
float tables; this module supplies its two steps, which combine tables
with the shared broadcast ``fold``.  The chance step marginalizes the
bucket variable out of the probability product and renormalizes the
utility by that marginal (zero-probability configurations contribute
zero).  The decision step maximizes the utility, keeps the first
maximizing action in domain order, and asserts that the probability part
is constant in the decision.

``PolicyEvaluator`` scores fixed policies.  The scopes of its factors do
not depend on the policy, so it plans the elimination of every variable
once per diagram and utility (greedy min-degree, ties by name, on the
neighbour bitmasks of ``ordering``); each step of the plan is one
``product`` over that step's tables, summed over the eliminated variable.  ``evaluate_many`` runs the plan for a batch of
policies at once: every table has a leading batch axis, of length one for
CPTs and utilities and one per policy for the one-hot decision tables.
The batch is a ``PolicyBatch``, per decision an (s, cells) array of action
indices, checked once per decision; a list of ``Policy`` is stacked into
one first.  ``evaluate`` and ``evaluate_policy`` are batches of one.
``brute_force_meu`` enumerates every policy with its own evaluation, as an
independent oracle for testing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagram import (
    DiagramError,
    GuardExceeded,
    InfluenceDiagram,
    Kind,
    Policy,
    PolicyBatch,
    PolicyRule,
    require_valid,
)
from .elimination import (
    Factor,
    align,
    eliminate,
    expand_rule,
    factor,
    fold,
    product,
)
from .ordering import bits, eliminate_bit, name_ranks, neighbour_masks, scope_mask


@dataclass(frozen=True)
class ExactSolution:
    meu: float
    policy: Policy


def solve_exact(
    diagram: InfluenceDiagram, order: list[str] | None = None
) -> ExactSolution:
    """Maximum expected utility and one optimal policy (first-action ties)."""
    require_valid(diagram, qualitative=False)
    run = eliminate(diagram, order, _chance_step, _decision_step, (_floats, _floats))
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
    axis = lam.scope.index(y)
    lam_msg = Factor(
        lam.scope[:axis] + lam.scope[axis + 1 :], lam.table.sum(axis=axis)
    )
    theta_msg = None
    if thetas:
        theta = fold(thetas, order_key, np.add)
        combined = fold([lam, theta], order_key)
        c_axis = combined.scope.index(y)
        num = combined.table.sum(axis=c_axis)
        num_scope = combined.scope[:c_axis] + combined.scope[c_axis + 1 :]
        lam_aligned = align(lam_msg, num_scope)
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
        lam = fold(lambdas, order_key)
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
    combined = fold(thetas, order_key, np.add)
    axis = combined.scope.index(y)
    theta_msg = Factor(
        combined.scope[:axis] + combined.scope[axis + 1 :],
        combined.table.max(axis=axis),
    )
    # first maximizing action in domain order
    actions = np.argmax(np.moveaxis(combined.table, axis, -1), axis=-1)
    return lam_msg, theta_msg, Factor(theta_msg.scope, actions)


# Cells of the largest step table of one chunk of policies: broadcasting
# materialises the product over a step's whole union scope, the summed
# variable included.  Bounds the memory of ``evaluate_many`` (32 MiB of
# float64 per table) for any number of policies.
_CHUNK_CELLS = 1 << 22


@dataclass(frozen=True)
class _Plan:
    """Bucket elimination of every variable from one utility's factors.

    Slots number the tables: the CPTs, one policy factor per decision and
    the utility, then the result of each step in turn.  A step multiplies
    its operand slots in order over their union scope and sums out one
    variable.  The product of the ``roots`` tables is the expected utility.
    """

    steps: tuple[tuple[tuple[int, ...], tuple[str, ...], str], ...]
    roots: tuple[int, ...]
    max_cells: int  # largest step union per policy


def _plan(diagram: InfluenceDiagram, scopes: list[tuple[str, ...]]) -> _Plan:
    """Plan the elimination of every variable in ``scopes``.

    The order is greedy min-degree on the graph of the scopes, ties broken
    by name: the variable whose factors span the fewest variables goes
    next.  Eliminating a variable joins its neighbours, as the message over
    them does.  Scopes are bitmasks over ``diagram.variables``, so a step's
    operands and union are read off bits, in the diagram's variable order.
    """
    names = [v.id for v in diagram.variables]
    index = {v: i for i, v in enumerate(names)}
    masks = [scope_mask(s, index) for s in scopes]
    graph = neighbour_masks(len(names), masks)
    # (degree, name) as one integer: degree times n plus the name's rank
    n, rank = len(names), name_ranks(names)
    key = [graph[i].bit_count() * n + rank[i] for i in range(n)]
    holders = [0] * n  # per variable, the slots whose scope holds it
    for s, mask in enumerate(masks):
        for v in bits(mask):
            holders[v] |= 1 << s
    remaining = [v for v in range(n) if holders[v]]
    sizes = [len(v.domain) for v in diagram.variables]
    consumed, max_cells = 0, 1
    steps = []
    while remaining:
        y = min(remaining, key=key.__getitem__)
        remaining.remove(y)
        for a in bits(eliminate_bit(graph, y)):
            key[a] = graph[a].bit_count() * n + rank[a]
        taken = holders[y]
        consumed |= taken
        operands = bits(taken)
        union = 0
        for s in operands:
            union |= masks[s]
        members = bits(union)
        new = 1 << len(masks)
        for v in members:
            holders[v] = holders[v] & ~taken | new
        steps.append((tuple(operands), tuple(names[v] for v in members), names[y]))
        max_cells = max(max_cells, math.prod(sizes[v] for v in members))
        masks.append(union & ~(1 << y))
    roots = (1 << len(masks)) - 1 & ~consumed
    return _Plan(tuple(steps), tuple(bits(roots)), max_cells)


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

    The factor scopes do not depend on the policy, so the elimination is
    planned once per utility.  ``evaluate_many`` builds one-hot decision
    tables from a batch's action arrays, with the policies along a leading
    axis, and runs each plan for all of them at once, in chunks sized so
    that the largest table stays bounded.
    """

    def __init__(self, diagram: InfluenceDiagram):
        require_valid(diagram, qualitative=False)
        self._diagram = diagram

        def batch_of_one(fn) -> Factor:
            return factor(diagram, fn.scope, _floats(fn.table)[np.newaxis])

        self._cpts = [batch_of_one(c) for c in diagram.cpts]
        self._utilities = [batch_of_one(u) for u in diagram.utilities]
        self._policy_scopes = [
            tuple(diagram.information_sets.get(d, ())) + (d,)
            for d in diagram.decision_vars
        ]
        scopes = [c.scope for c in diagram.cpts] + self._policy_scopes
        self._plans = [_plan(diagram, scopes + [u.scope]) for u in diagram.utilities]
        largest = max((plan.max_cells for plan in self._plans), default=1)
        self._chunk = max(1, _CHUNK_CELLS // largest)

    def evaluate(self, policy: Policy) -> float:
        return self.evaluate_many([policy])[0]

    def evaluate_many(self, policies: PolicyBatch | Sequence[Policy]) -> list[float]:
        """Expected utility of each policy, in order."""
        if not isinstance(policies, PolicyBatch):
            policies = _stack(self._diagram, policies)
        actions = [self._checked(policies, scope) for scope in self._policy_scopes]
        values: list[float] = []
        for start in range(0, policies.size, self._chunk):
            stop = min(start + self._chunk, policies.size)
            policy_factors = [
                Factor(scope, self._one_hot(a[start:stop], scope))
                for a, scope in zip(actions, self._policy_scopes)
            ]
            total = np.zeros(stop - start)
            for plan, utility in zip(self._plans, self._utilities):
                total += self._run(plan, self._cpts + policy_factors + [utility])
            values.extend(total.tolist())
        return values

    def _checked(self, batch: PolicyBatch, scope: tuple[str, ...]) -> np.ndarray:
        """The batch's actions for the decision of a policy ``scope``, after
        checking their information set, shape, type and range."""
        d, info = scope[-1], scope[:-1]
        if d not in batch.actions or d not in batch.scopes:
            raise DiagramError(f"policy has no rule for decision {d}")
        if tuple(batch.scopes[d]) != info:
            raise DiagramError(f"rule for {d} is over {batch.scopes[d]}, expected {info}")
        actions = np.asarray(batch.actions[d])
        *sizes, k = self._diagram.domain_sizes(scope)
        if actions.shape != (batch.size, math.prod(sizes)):
            raise DiagramError(f"rule for {d} is incomplete")
        if actions.dtype.kind not in "iu" or (
            actions.size and not (0 <= actions.min() and actions.max() < k)
        ):
            raise DiagramError(f"rule for {d} has an action outside 0..{k - 1}")
        return actions

    def _one_hot(self, actions: np.ndarray, scope: tuple[str, ...]) -> np.ndarray:
        shape = self._diagram.domain_sizes(scope)
        table = np.zeros(actions.shape + shape[-1:])
        table[np.arange(len(actions))[:, None], np.arange(actions.shape[1]), actions] = 1.0
        return table.reshape((len(actions),) + shape)

    def _run(self, plan: _Plan, tables: list[Factor]) -> np.ndarray:
        for operands, union, y in plan.steps:
            table = product([tables[s] for s in operands], union)
            table = table.sum(axis=1 + union.index(y))
            for s in operands:
                tables[s] = None  # each table feeds one step; free it
            tables.append(Factor(tuple(v for v in union if v != y), table))
        return product([tables[s] for s in plan.roots], ())


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
