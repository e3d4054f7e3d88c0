"""Exact solving of numeric influence diagrams.

``solve_exact`` runs the diagram's exact plan (see ``elimination``, made at
the first solve) on float tables.  This module supplies the plan's
``_spans`` and its two steps, which fold a bucket's tables, each seen over
the bucket's scope, and reduce them with ``sum_out`` or a max.  The chance
step marginalizes the bucket variable out of the probability product and
renormalizes the utility by that marginal (zero-probability configurations
contribute zero).  The decision step maximizes the utility, keeps the first
maximizing action in domain order, and checks that the probability part is
constant in the decision, within what the CPT rows' tolerance allows.

``PolicyEvaluator`` scores fixed policies with the same executor, per
utility along a plan of that utility's ancestors only (see the class).  A
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
exactly one sends, as one cell with every axis broadcast (``_stored``); it
keeps its scope, so the plan, folds and values stay as they are.  Its
``sum_out`` sums a product with such a cell in numpy's order over the full
table, and the max, min or argmax of a broadcast axis reads one cell equal
to all it stands for (argmax: the first action, as on a tie), so MEU and
policy are those of full tables bit for bit.  Dropping barren variables
would move MEU bits that tests pin: most of their messages are one only up
to rounding.  In the order-of-magnitude algebra a CPT row's mass need not
be of order 0: at eps = 0.5 each entry of the row (0.34, 0.33, 0.33) is of
order 1, and so is their sum, so pruning would change qualitative results.
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
from .elimination import Factor, eliminate, expand_rule, fold, plan, planned, seen, view
from .ordering import checked_skeleton


@dataclass(frozen=True)
class ExactSolution:
    meu: float
    policy: Policy


def solve_exact(diagram: InfluenceDiagram) -> ExactSolution:
    """Maximum expected utility and one optimal policy (first-action ties)."""
    require_valid(diagram, qualitative=False)
    skeleton = checked_skeleton(diagram)
    lambdas, thetas = diagram.cpts, diagram.utilities
    made = planned(skeleton, _spans, lambda: plan(diagram, skeleton.order, lambdas, thetas, _spans))
    run = eliminate(diagram, made, lambdas, thetas, _chance_step, _decision_step)
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


def _spans(diagram, y, decision, lam, theta):
    """The variables of a bucket's messages (see ``elimination.plan``): the
    decision step keeps the probability part out of the utility message."""
    return lam or None, (theta if decision else lam | theta) if theta else None


def _chance_step(diagram, b, lambdas, thetas):
    # y's CPT sits in the bucket of its earliest variable, and every bucket
    # with a probability factor sends one on, so only a solver fault fails this
    assert lambdas, f"chance bucket {b.var} has no probability component"
    lam = fold(lambdas)
    lam_msg = sum_out(diagram, lam, len(b.scope), b.out[0])
    theta_msg = None
    if thetas:
        utility = fold([lam, fold(thetas, np.add)])
        table = np.asarray(sum_out(diagram, utility, len(b.scope), b.scope[1:]))
        if lam_msg.all():
            np.divide(table, lam_msg, out=table)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(table, lam_msg, out=table)
            # +0.0 where the marginal is zero; num there is a sum of 0 * theta,
            # 0/0 gives nan, and -0.0 for a negative theta would keep its sign
            np.copyto(table, 0.0, where=lam_msg == 0)
        theta_msg = table
    return _stored(lam_msg, len(b.out[0])), theta_msg


def _decision_step(diagram, b, lambdas, thetas):
    # The bucket's probability product is constant in the decision (checked
    # below), so the utility message keeps its conditional-expectation
    # meaning only if that constant is NOT folded in: the probability
    # message is re-emitted and would otherwise be counted twice downstream.
    # With exactly normalized rows it is constant up to rounding, so on a
    # valid diagram the spread stays within _mass_tolerance.
    lam_msg = None
    axis = -len(b.scope)
    if lambdas:
        lam = fold(lambdas)
        lam_msg = lam.max(axis)
        spread = lam_msg - lam.min(axis)
        bound = _mass_tolerance(diagram) * max(1.0, np.abs(lam).max())
        if not np.all(spread <= bound):
            raise DiagramError(
                f"probability component in decision bucket {b.var} varies with {b.var}"
            )
        lam_msg = _stored(lam_msg, len(b.out[0]))
    if not thetas:
        # nothing downstream distinguishes the actions
        return lam_msg, None, Factor((), np.zeros((), dtype=int))
    combined = fold(thetas, np.add)
    # first maximizing action in domain order: 0 on a broadcast axis, whose
    # actions all tie
    rule = combined.argmax(axis)
    if b.down[1] is not None:
        rule = rule[b.down[1]]
    return lam_msg, combined.max(axis), Factor(b.out[1], rule)


def _stored(msg: np.ndarray, n: int) -> np.ndarray:
    """A probability message over ``n`` variables as stored: one over two or
    more that is exactly 1.0 in every cell as one cell, each axis broadcast."""
    if n > 1 and msg.item(0) == 1.0 and (msg == 1.0).all():
        return np.ones((1,) * msg.ndim)
    return msg


def sum_out(diagram, table: np.ndarray, n: int, later: Sequence[str]) -> np.ndarray:
    """``table`` over a bucket scope of ``n`` variables with the first, the
    bucket variable, summed out, bit for bit as numpy sums it out of the
    table with each size-1 axis broadcast.  Where every later axis has one
    cell but ``later``, the variables there, have more (a product with a
    stored message; their sizes are read only then), numpy sums slice by
    slice from +0.0, else in one pass (pairwise on long axes).  The bucket
    variable's own axis is never broadcast: its CPT or a distribution over
    it is in its bucket."""
    axis = table.ndim - n
    if set(table.shape[axis + 1 :]) == {1} and math.prod(diagram.domain_sizes(later)) > 1:
        total = np.zeros(table.shape[:axis] + table.shape[axis + 1 :])
        for part in np.moveaxis(table, axis, 0):
            total += part
        return total
    return np.add.reduce(table, axis)  # ndarray.sum without its Python wrapper


# Cells of the largest table of one chunk of policies: every table of the
# evaluator's elimination spans at most one bucket, and carries at most one
# entry per policy.  Bounds the memory of ``evaluate_many`` (32 MiB of
# float64 per table) for any number of policies.
_CHUNK_CELLS = 1 << 22


def _evaluated(diagram, y, decision, lam, theta):
    """The variables of a bucket's one message, which carries the utility if
    the bucket does: the bucket's and those its decision's rule reads."""
    msg = lam | theta | set(diagram.information_sets.get(y, ()))
    return (None, msg) if theta else (msg, None)


def _sum_step(diagram, b, lambdas, thetas):
    """Sum the bucket variable out of the bucket's product; the message
    carries the utility if the bucket does."""
    msg = np.add.reduce(fold(lambdas + thetas), -len(b.scope))
    return (None, msg) if thetas else (msg, None)


def _select_step(rules, diagram, b, lambdas, thetas):
    """Take each policy's action out of the bucket's product, as its rule
    gives it: a table over the decision's information set, after the batch
    axis, seen over the bucket's scope less the decision, which holds the
    set (``_evaluated``)."""
    info = diagram.information_sets.get(b.var, ())
    choice = seen(rules[b.var], view(info, b.scope[1:], {v: i for i, v in enumerate(b.scope)}))
    actions = np.moveaxis(fold(lambdas + thetas), -len(b.scope), 0)
    msg = np.where(choice == 0, actions[0], actions[-1])
    for a in range(1, len(actions) - 1):
        msg = np.where(choice == a, actions[a], msg)
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
    so eliminating it adds no other fill.  Each utility's plan is made
    once per skeleton, by the first evaluator; every later one reads it.

    A part's variables are its utility's scope and their ancestors, joined
    to it through CPT scopes and information sets (a decision's message
    keeps its set).  So no bucket is empty, and only the last sends a
    message over no variable: the utility's, as a bucket holding the
    utility sends nothing else.  Each table spans its scope at full size (a
    selection broadcasts over its rule's variables), so a sum needs none of
    ``sum_out``'s care for stored cells.
    """

    def __init__(self, diagram: InfluenceDiagram):
        require_valid(diagram, qualitative=False)
        self._diagram = diagram
        skeleton = checked_skeleton(diagram)
        self._chunk = max(1, _CHUNK_CELLS // skeleton.largest_bucket)  # policies per chunk
        # per utility: the plan along its ancestors, their CPTs and the utility
        self._parts = []
        for i, (k, u) in enumerate(zip(skeleton.kept, diagram.utilities)):
            part = [c for c in diagram.cpts if c.child in k]
            order = [v for v in skeleton.order if v in k]
            make = functools.partial(plan, diagram, order, part, [u], _evaluated)
            self._parts.append((planned(skeleton, (_evaluated, i), make), part, u))

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
            select = functools.partial(_select_step, {d: r[start:stop] for d, r in rules.items()})
            total = np.zeros(stop - start)
            for made, lambdas, utility in self._parts:
                run = eliminate(self._diagram, made, lambdas, [utility], _sum_step, select)
                total += run.root_thetas[0]
            values.extend(total.tolist())
        return values

    def _checked(self, batch: PolicyBatch, d: str) -> np.ndarray:
        """The batch's rule for decision ``d`` as a table over its
        information set, after a leading batch axis, once the set and the
        actions' shape, type and range are checked."""
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
        return actions.reshape((batch.size,) + sizes)


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
