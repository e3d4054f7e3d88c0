"""Variable elimination for order-of-magnitude influence diagrams.

``elim_oom_id`` runs the shared bucket elimination of ``elimination`` on
tables of ``OOMValue`` probabilities and ``OOMSet`` utilities; this module
supplies its two steps.  The chance step sums out the bucket variable from
the probability product and renormalizes the utility message by that
marginal (qualitatively impossible configurations get the zero utility).
The decision step maximizes over the actions and records, per parent
configuration, every action whose value set is not strictly dominated by
another action's: ties between incomparable value sets keep both actions,
which is what makes the result a policy *set*.

``brute_force_oom`` is the test oracle: the same elimination semantics
applied to one joint table over all variables, with no bucket, scope, or
message bookkeeping to get wrong.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .diagram import (
    GuardExceeded,
    OOMInfluenceDiagram,
    Policy,
    PolicyRule,
    require_valid,
)
from .elimination import (
    Factor,
    align,
    eliminate,
    expand_rule,
    factor,
    resolve_order,
    union_scope,
)
from .sets import OOMSet, ZERO_SET, max_sets, scale, set_dominates, sum_sets
from .values import OOMValue, add, dominates, inverse, mul

DEFAULT_GUARD = 10**6


# ---------------------------------------------------------------------------
# policy sets

@dataclass(frozen=True)
class PolicySet:
    """Per decision and parent configuration, the set of maximizing actions."""

    decisions: tuple[str, ...]
    scopes: Mapping[str, tuple[str, ...]]
    action_counts: Mapping[str, int]
    cells: Mapping[str, tuple[frozenset[int], ...]]  # row-major over scope
    # per decision, each cell's actions in ascending order: the digits that
    # ``_decode`` reads a policy index in
    _options: Mapping[str, tuple[tuple[int, ...], ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for d in self.decisions:
            assert all(self.cells[d]), f"empty action set in a cell of {d}"
        options = {
            d: tuple(tuple(sorted(cell)) for cell in self.cells[d])
            for d in self.decisions
        }
        object.__setattr__(self, "_options", options)

    def count(self) -> int:
        total = 1
        for d in self.decisions:
            for cell in self.cells[d]:
                total *= len(cell)
        return total

    def _decode(self, index: int) -> Policy:
        rules = {}
        for d in self.decisions:
            actions = []
            for options in self._options[d]:
                index, digit = divmod(index, len(options))
                actions.append(options[digit])
            rules[d] = PolicyRule(decision=d, scope=self.scopes[d], actions=tuple(actions))
        return Policy(rules=rules)

    def sample(self, s: int, seed: int = 0) -> tuple[list[Policy], bool]:
        """Uniform sample of ``s`` policies.

        Distinct policies (by rejection) when the set is large enough;
        otherwise the draw is with replacement and flagged as such.
        """
        if s < 1:
            raise ValueError("sample size must be at least 1")
        rng = random.Random(seed)
        count = self.count()
        with_replacement = count < s
        indices: list[int] = []
        if with_replacement:
            indices = [rng.randrange(count) for _ in range(s)]
        else:
            seen: set[int] = set()
            while len(indices) < s:
                i = rng.randrange(count)
                if i not in seen:
                    seen.add(i)
                    indices.append(i)
        return [self._decode(i) for i in indices], with_replacement


# ---------------------------------------------------------------------------
# the order-of-magnitude algebra over object tables
#
# The steps look the calculus up by its name in this module when they run,
# so that a wrapper installed on the name sees every call.

def _cellwise(fn, factors, diagram, order_key) -> Factor:
    """``fn`` of the factors' entries, in factor order, for every cell of
    their union scope."""
    scope = union_scope(factors, order_key)
    shape = diagram.domain_sizes(scope)
    columns = [
        np.broadcast_to(align(f, scope, diagram), shape).ravel().tolist()
        for f in factors
    ]
    return factor(diagram, scope, [fn(*cell) for cell in zip(*columns)])


def _along(fn, f: Factor, y: str, diagram) -> Factor:
    """``fn`` of the entries along ``y``, in domain order, for every cell of
    the rest of the scope."""
    axis = f.scope.index(y)
    rows = np.moveaxis(f.table, axis, -1).reshape(-1, len(diagram.domain(y)))
    scope = f.scope[:axis] + f.scope[axis + 1 :]
    return factor(diagram, scope, [fn(*row) for row in rows.tolist()])


def _product(*values: OOMValue) -> OOMValue:
    return functools.reduce(mul, values)


def _total(*values: OOMValue) -> OOMValue:
    total = functools.reduce(add, values)
    assert total.is_positive or total.is_zero
    return total


def _normalize(total: OOMValue, s: OOMSet) -> OOMSet:
    """A utility sum divided by its probability mass; zero where the mass is."""
    return scale(inverse(total), s) if not total.is_zero else ZERO_SET


def _max_value(*values: OOMValue) -> OOMValue:
    """Dominance maximum of probability values (totally ordered)."""
    best: OOMValue | None = None
    for v in values:
        if best is None or dominates(v, best):
            best = v
    assert best is not None
    return best


def _maximal_actions(*values: OOMSet) -> frozenset[int]:
    kept = []
    for d, a in enumerate(values):
        beaten = any(
            set_dominates(b, a) and not set_dominates(a, b)
            for e, b in enumerate(values)
            if e != d
        )
        if not beaten:
            kept.append(d)
    return frozenset(kept)


# ---------------------------------------------------------------------------
# the eliminator

@dataclass(frozen=True)
class OOMSolution:
    meu: OOMSet
    policies: PolicySet
    max_table_cells: int


def elim_oom_id(
    diagram: OOMInfluenceDiagram, order: list[str] | None = None
) -> OOMSolution:
    require_valid(diagram, qualitative=True)
    run = eliminate(diagram, order, _chance_step, _decision_step)
    root_thetas = [t.item() for t in run.root_thetas]
    meu = sum_sets(*root_thetas) if root_thetas else ZERO_SET
    policies = _expand_policy_set(diagram, run.rules)
    return OOMSolution(meu=meu, policies=policies, max_table_cells=run.max_cells)


def _chance_step(diagram, order_key, y, lambdas, thetas):
    assert lambdas, f"chance bucket {y} has no probability component"
    lam = _cellwise(_product, lambdas, diagram, order_key)
    lam_msg = _along(_total, lam, y, diagram)
    theta_msg = None
    if thetas:
        theta = _cellwise(sum_sets, thetas, diagram, order_key)
        combined = _cellwise(scale, [lam, theta], diagram, order_key)
        sums = _along(sum_sets, combined, y, diagram)
        theta_msg = _cellwise(_normalize, [lam_msg, sums], diagram, order_key)
    return lam_msg, theta_msg


def _decision_step(diagram, order_key, y, lambdas, thetas):
    lam = _cellwise(_product, lambdas, diagram, order_key) if lambdas else None
    lam_msg = _along(_max_value, lam, y, diagram) if lam is not None else None
    if not thetas:
        # nothing downstream distinguishes the actions: keep them all
        k = len(diagram.domain(y))
        return lam_msg, None, factor(diagram, (), [frozenset(range(k))])
    combined = _cellwise(sum_sets, thetas, diagram, order_key)
    if lam is not None:
        combined = _cellwise(scale, [lam, combined], diagram, order_key)
    theta_msg = _along(max_sets, combined, y, diagram)
    return lam_msg, theta_msg, _along(_maximal_actions, combined, y, diagram)


def _expand_policy_set(
    diagram: OOMInfluenceDiagram, rules: Mapping[str, Factor]
) -> PolicySet:
    scopes = {}
    cells = {}
    for d in diagram.decision_vars:
        scopes[d], cells[d] = expand_rule(diagram, d, rules[d])
    return PolicySet(
        decisions=tuple(diagram.decision_order),
        scopes=scopes,
        action_counts={d: len(diagram.domain(d)) for d in diagram.decision_vars},
        cells=cells,
    )


# ---------------------------------------------------------------------------
# scope-membership oracle
#
# Same elimination semantics, reimplemented without buckets or strided
# tables: factors are dicts keyed by sorted (variable, value) assignments,
# and each step simply pulls every live factor mentioning the variable.
# Bucket placement is exactly lazy grouping of these membership pulls, so
# the dataflow (which utilities join which decision comparison) matches by
# construction while the bookkeeping is entirely different.

@dataclass
class _DictFactor:
    vars: frozenset[str]
    table: dict  # key: tuple of (var, value-index) pairs sorted by var


def _assignments(diagram, variables: Iterable[str]):
    ordered = sorted(variables)
    for combo in itertools.product(
        *[range(len(diagram.domain(v))) for v in ordered]
    ):
        yield dict(zip(ordered, combo))


def _key(assignment: Mapping[str, int], variables: Iterable[str]):
    return tuple((v, assignment[v]) for v in sorted(variables))


def brute_force_oom(
    diagram: OOMInfluenceDiagram,
    order: list[str] | None = None,
    guard: int = DEFAULT_GUARD,
) -> OOMSolution:
    """Test oracle: dict-based variable elimination over live factor pulls."""
    require_valid(diagram, qualitative=True)
    order = resolve_order(diagram, order)

    joint = math.prod(len(v.domain) for v in diagram.variables)
    if joint > guard:
        raise GuardExceeded(f"joint space has {joint} cells (guard {guard})")

    def lift(scope: tuple[str, ...], flat: Sequence) -> _DictFactor:
        table = {}
        sizes = [len(diagram.domain(v)) for v in scope]
        for i, combo in enumerate(itertools.product(*[range(s) for s in sizes])):
            table[_key(dict(zip(scope, combo)), scope)] = flat[i]
        return _DictFactor(frozenset(scope), table)

    lams = [lift(c.scope, c.table) for c in diagram.cpts]
    thetas = [lift(u.scope, u.table) for u in diagram.utilities]
    decisions = set(diagram.decision_vars)
    raw_rules: dict[str, Factor] = {}
    root_thetas: list[OOMSet] = []
    max_cells = 0

    for y in order:
        pulled_l = [f for f in lams if y in f.vars]
        pulled_t = [f for f in thetas if y in f.vars]
        lams = [f for f in lams if y not in f.vars]
        thetas = [f for f in thetas if y not in f.vars]
        union = frozenset().union(*[f.vars for f in pulled_l + pulled_t], {y})
        ctx_vars = union - {y}
        # the probability message keeps its own tight scope: a wider key set
        # would change which later step pulls it
        lam_ctx_vars = (
            frozenset().union(*[f.vars for f in pulled_l]) - {y} if pulled_l else None
        )
        k = len(diagram.domain(y))

        lam_out: dict = {}
        theta_out: dict = {}
        cells: list[frozenset[int]] = []
        for ctx in _assignments(diagram, ctx_vars):
            lam_row: list[OOMValue] = []
            theta_row: list[OOMSet] = []
            for yv in range(k):
                full = dict(ctx)
                full[y] = yv
                lam_val = None
                for f in pulled_l:
                    v = f.table[_key(full, f.vars)]
                    lam_val = v if lam_val is None else mul(lam_val, v)
                lam_row.append(lam_val)
                if pulled_t:
                    theta_row.append(
                        sum_sets(*[f.table[_key(full, f.vars)] for f in pulled_t])
                    )
            ctx_key = _key(ctx, ctx_vars)
            lam_key = _key(ctx, lam_ctx_vars) if pulled_l else None
            if y in decisions:
                if pulled_l:
                    lam_out[lam_key] = _max_value(*lam_row)
                if pulled_t:
                    values = [
                        scale(lam_row[i], theta_row[i]) if pulled_l else theta_row[i]
                        for i in range(k)
                    ]
                    theta_out[ctx_key] = max_sets(*values)
                    cells.append(_maximal_actions(*values))
                else:
                    cells.append(frozenset(range(k)))
            else:
                assert pulled_l, f"chance variable {y} has no probability factor"
                total = lam_row[0]
                for v in lam_row[1:]:
                    total = add(total, v)
                lam_out[lam_key] = total
                if pulled_t:
                    summed = sum_sets(
                        *[scale(lam_row[i], theta_row[i]) for i in range(k)]
                    )
                    theta_out[ctx_key] = (
                        scale(inverse(total), summed)
                        if not total.is_zero
                        else ZERO_SET
                    )

        if y in decisions:
            scope_sorted = tuple(sorted(ctx_vars))
            raw_rules[y] = factor(diagram, scope_sorted, cells)
        max_cells = max(max_cells, len(lam_out), len(theta_out))
        if lam_out and lam_ctx_vars:
            lams.append(_DictFactor(lam_ctx_vars, lam_out))
        if theta_out:
            if ctx_vars:
                thetas.append(_DictFactor(frozenset(ctx_vars), theta_out))
            else:
                root_thetas.append(theta_out[()])

    meu = sum_sets(*root_thetas) if root_thetas else ZERO_SET
    policies = _expand_policy_set(diagram, raw_rules)
    return OOMSolution(meu=meu, policies=policies, max_table_cells=max_cells)
