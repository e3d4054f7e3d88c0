"""Exact solving of numeric influence diagrams.

``solve_exact`` runs the shared bucket elimination of ``elimination`` on
float tables; this module supplies its two steps, which combine tables
with ``fold`` and reduce them with ``sum_out`` and ``reduce_out``.  The
chance step marginalizes the bucket variable out of the probability
product and renormalizes the utility by that marginal (zero-probability
configurations contribute zero).  The decision step maximizes the
utility, keeps the first maximizing action in domain order, and checks
that the probability part is constant in the decision, within what the
CPT rows' tolerance allows.

``PolicyEvaluator`` scores fixed policies with the same ``eliminate``,
per utility over that utility's ancestors only (see the class).  A
chance step sums its variable out; a decision step selects each policy's
action along the decision's axis where the solver takes the max.  Tables
gain a leading batch axis, one entry per policy, only at the first
decision bucket, so everything eliminated before it is computed once for
the whole batch.  ``evaluate_many`` takes a ``PolicyBatch``, per decision
an (s, cells) array of action indices, checked once per decision, barren
ones too; a list of ``Policy`` is stacked into one first.  ``evaluate``
and ``evaluate_policy`` are batches of one.  ``brute_force_meu``
enumerates every policy and scores each with ``policy_value``, an
independent oracle for testing.

A forgetting diagram is solved and evaluated as it is, not as its
non-forgetting closure.  ``solve_exact`` returns the closure's optimum
unless a rule it finds reads a variable its decision does not observe,
which ``expand_rule`` rejects; ``PolicyEvaluator`` scores any policy.

``solve_exact`` and ``oom_solve.elim_oom_id`` eliminate every variable.
``solve_exact`` stores a probability message over two or more variables
that is exactly 1.0 in every cell, as a barren subtree whose rows sum to
exactly one sends, as one cell with every axis broadcast; it keeps its
scope, so buckets, folds and values stay as they are.  ``sum_out`` sums in
numpy's order over the full tables, and the max, min or argmax of a
broadcast axis reads one cell equal to all it stands for (argmax: the
first action, as on a tie), so MEU and policy are those of full tables bit
for bit.  Dropping barren variables would move MEU bits that tests pin:
most of their messages are one only up to rounding.  In the
order-of-magnitude algebra a CPT row's mass need not be of order 0: at
eps = 0.5 each entry of the row (0.34, 0.33, 0.33) is of order 1, and so
is their sum, so pruning would change qualitative results.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .diagram import (
    ROW_TOLERANCE,
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
    factors,
    fold,
    ordered,
    product,
    reduce_out,
    sum_out,
)
from .ordering import checked_skeleton


@dataclass(frozen=True)
class ExactSolution:
    meu: float
    policy: Policy


def solve_exact(diagram: InfluenceDiagram) -> ExactSolution:
    """Maximum expected utility and one optimal policy (first-action ties)."""
    require_valid(diagram, qualitative=False)
    run = eliminate(
        diagram,
        checked_skeleton(diagram).order,
        factors(diagram, diagram.cpts),
        factors(diagram, diagram.utilities),
        _chance_step,
        _decision_step,
    )
    # exactly normalized rows give root masses of 1 (see _mass_tolerance),
    # so only a solver fault fails this
    for lam in run.root_lambdas:
        assert abs(float(lam) - 1.0) <= _mass_tolerance(diagram), (
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


def _mass_tolerance(diagram: InfluenceDiagram) -> float:
    """How far apart, relative to the larger of them and 1, two probability
    messages may be that exactly normalized CPT rows would make equal.

    A message is a sum (over a decision, a max) of products holding each of
    at most K = ``len(diagram.cpts)`` CPTs once: monotone and homogeneous of
    degree at most K in their entries.  Rows within ``ROW_TOLERANCE`` t of
    one are normalized rows scaled by factors in [1 - t, 1 + t], so the
    message is the normalized one scaled by a factor in [(1 - t)^K,
    (1 + t)^K].  The last t covers rounding."""
    t = ROW_TOLERANCE
    return ((1 + t) / (1 - t)) ** len(diagram.cpts) - 1 + t


def _chance_step(diagram, order_key, y, lambdas, thetas):
    # y's CPT sits in the bucket of its earliest variable, and every bucket
    # with a probability factor sends one on, so only a solver fault fails this
    assert lambdas, f"chance bucket {y} has no probability component"
    lam = fold(lambdas, order_key)
    lam_msg = sum_out(diagram, lam, y)
    theta_msg = None
    if thetas:
        theta = thetas[0] if len(thetas) == 1 else fold(thetas, order_key, np.add)
        num = sum_out(diagram, fold([lam, theta], order_key), y)
        marginal = align(lam_msg, num.scope)
        table = np.asarray(num.table)  # a sum over every axis is a scalar
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(table, marginal, out=table)
        # +0.0 where the marginal is zero; num there is a sum of 0 * theta,
        # 0/0 gives nan, and -0.0 for a negative theta would keep its sign
        np.copyto(table, 0.0, where=marginal == 0)
        theta_msg = Factor(num.scope, table)
    return _stored(lam_msg), theta_msg


def _decision_step(diagram, order_key, y, lambdas, thetas):
    # The bucket's probability product is constant in the decision (checked
    # below), so the utility message keeps its conditional-expectation
    # meaning only if that constant is NOT folded in: the probability
    # message is re-emitted and would otherwise be counted twice downstream.
    # With exactly normalized rows it is constant up to rounding, so on a
    # valid diagram the spread stays within _mass_tolerance.
    lam_msg = None
    if lambdas:
        lam = fold(lambdas, order_key)
        lam_msg = reduce_out(lam, y, np.ndarray.max)
        spread = lam_msg.table - reduce_out(lam, y, np.ndarray.min).table
        bound = _mass_tolerance(diagram) * max(1.0, np.abs(lam.table).max())
        if not np.all(spread <= bound):
            raise DiagramError(
                f"probability component in decision bucket {y} varies with {y}"
            )
        lam_msg = _stored(lam_msg)
    if not thetas:
        # nothing downstream distinguishes the actions
        return lam_msg, None, Factor((), np.zeros((), dtype=int))
    combined = fold(thetas, order_key, np.add)
    theta_msg = reduce_out(combined, y, np.ndarray.max)
    # first maximizing action in domain order: 0 on a broadcast axis, whose
    # actions all tie
    return lam_msg, theta_msg, reduce_out(combined, y, np.ndarray.argmax)


def _stored(msg: Factor) -> Factor:
    """A probability message as stored: one over two or more variables that
    is exactly 1.0 in every cell as a single cell, each axis broadcast."""
    if len(msg.scope) > 1 and msg.table.item(0) == 1.0 and (msg.table == 1.0).all():
        return Factor(msg.scope, np.ones((1,) * len(msg.scope)))
    return msg


# Cells of the largest table of one chunk of policies: every table of the
# evaluator's elimination spans at most one bucket, and carries at most one
# entry per policy.  Bounds the memory of ``evaluate_many`` (32 MiB of
# float64 per table) for any number of policies.
_CHUNK_CELLS = 1 << 22


def _sum_step(diagram, order_key, y, lambdas, thetas):
    """Sum ``y`` out of the bucket's product; the message carries the
    utility if the bucket does."""
    msg = sum_out(diagram, fold(lambdas + thetas, order_key), y)
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
        info = diagram.information_sets.get(d, ())
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

    Everything it reads of the graph is the diagram's recorded
    ``ordering.Skeleton``.  Each utility is summed over its ancestors only,
    along CPT parents and information sets (the skeleton's ``kept``).  No
    ancestor depends on the other variables, so summed out children first,
    each barren chance variable's CPT rows add up to one and each barren
    decision selects from a table of ones: dropping them is exact up to
    those row sums' distance from one.  The ancestors are eliminated along
    the skeleton's ordering restricted to them, which stays legal: blocks
    that never decrease along the ordering never decrease along a
    subsequence, and each kept decision's information set is kept.  The
    chunk size is bounded by the skeleton's largest bucket, which no
    ancestors' bucket exceeds: their graph is a subgraph of the diagram's,
    so eliminating it adds no other fill.  The orderings, the CPT factors
    and the chunk size depend on the diagram only.
    """

    def __init__(self, diagram: InfluenceDiagram):
        require_valid(diagram, qualitative=False)
        self._diagram = diagram
        skeleton = checked_skeleton(diagram)
        self._chunk = max(1, _CHUNK_CELLS // skeleton.largest_bucket)  # policies per chunk
        cpts = [cpt for cpt in diagram.cpts if any(cpt.child in k for k in skeleton.kept)]
        lambdas = dict(zip((c.child for c in cpts), factors(diagram, cpts)))
        utilities = factors(diagram, diagram.utilities)
        # per utility: the ordering of its ancestors, their CPTs and the utility
        self._parts = [
            (
                [v for v in skeleton.order if v in k],
                [f for child, f in lambdas.items() if child in k],
                u,
            )
            for k, u in zip(skeleton.kept, utilities)
        ]

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
            for order, lambdas, utility in self._parts:
                run = eliminate(self._diagram, order, lambdas, [utility], _sum_step, select)
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
        info = self._diagram.information_sets.get(d, ())
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
        info = diagram.information_sets.get(d, ())
        n_cells = math.prod(diagram.domain_sizes(info))
        out.append((d, info, n_cells, len(diagram.domain(d))))
    return out


def policy_value(diagram: InfluenceDiagram, actions: Mapping[str, Sequence[int]]) -> float:
    """Expected utility of the policy whose rule for each decision ``d`` is
    ``actions[d]``, row-major over its information set: the sum over every
    configuration of the chance variables, the decisions set by the rules.
    """
    chance = [v for v in diagram.variables if v.kind is Kind.CHANCE]
    # each table read once, as Python floats
    cpts = [(cpt.scope, cpt.table.tolist()) for cpt in diagram.cpts]
    utilities = [(u.scope, u.table.tolist()) for u in diagram.utilities]
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
        for scope, table in cpts:
            pos = 0
            for s in scope:
                pos = pos * len(diagram.domain(s)) + assignment[s]
            prob *= table[pos]
            if prob == 0.0:
                break
        if prob == 0.0:
            continue
        util = 0.0
        for scope, table in utilities:
            pos = 0
            for s in scope:
                pos = pos * len(diagram.domain(s)) + assignment[s]
            util += table[pos]
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
