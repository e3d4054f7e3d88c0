"""Variable elimination for order-of-magnitude influence diagrams.

``elim_oom_id`` processes buckets along a legal elimination ordering.
Chance buckets sum out their variable from the probability product and
renormalize the utility message by the compiled probability (qualitatively
impossible configurations get the zero utility).  Decision buckets
maximize over the actions and record, per parent configuration, every
action whose value set is not strictly dominated by another action's: ties
between incomparable value sets keep both actions, which is what makes the
result a policy *set*.

``brute_force_oom`` is the test oracle: the same elimination semantics
applied to one joint table over all variables, with no bucket, scope, or
message bookkeeping to get wrong.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .diagram import (
    DiagramError,
    GuardExceeded,
    OOMInfluenceDiagram,
    Policy,
    PolicyRule,
    require_valid,
)
from .ordering import is_legal_ordering, legal_ordering
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

    def __post_init__(self) -> None:
        for d in self.decisions:
            assert all(self.cells[d]), f"empty action set in a cell of {d}"

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
            for cell in self.cells[d]:
                options = sorted(cell)
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
# factor machinery over python lists

@dataclass
class _OOMFactor:
    scope: tuple[str, ...]
    table: list  # row-major over scope


def _strides(sizes: Sequence[int]) -> list[int]:
    out = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        out[i] = out[i + 1] * sizes[i + 1]
    return out


def _union_scope(factors, order_key) -> tuple[str, ...]:
    seen = {v for f in factors for v in f.scope}
    return tuple(sorted(seen, key=lambda v: order_key[v]))


def _gather(factor: _OOMFactor, target: tuple[str, ...], diagram) -> list:
    """Factor table re-indexed over the target scope (a superset)."""
    t_sizes = diagram.domain_sizes(target)
    f_sizes = diagram.domain_sizes(factor.scope)
    f_strides = _strides(f_sizes)
    positions = [target.index(v) for v in factor.scope]
    out = []
    for cfg in itertools.product(*[range(s) for s in t_sizes]):
        idx = 0
        for stride, pos in zip(f_strides, positions):
            idx += stride * cfg[pos]
        out.append(factor.table[idx])
    return out


def _combine_lambdas(factors, diagram, order_key) -> _OOMFactor:
    scope = _union_scope(factors, order_key)
    tables = [_gather(f, scope, diagram) for f in factors]
    out = []
    for i in range(math.prod(diagram.domain_sizes(scope))):
        acc = tables[0][i]
        for t in tables[1:]:
            acc = mul(acc, t[i])
        out.append(acc)
    return _OOMFactor(scope, out)


def _combine_thetas(factors, diagram, order_key) -> _OOMFactor:
    scope = _union_scope(factors, order_key)
    tables = [_gather(f, scope, diagram) for f in factors]
    out = []
    for i in range(math.prod(diagram.domain_sizes(scope))):
        out.append(sum_sets(*[t[i] for t in tables]))
    return _OOMFactor(scope, out)


def _split_axis(
    factor: _OOMFactor, y: str, diagram
) -> tuple[tuple[str, ...], int, list[list]]:
    """Group the table into per-context slices along variable ``y``."""
    axis = factor.scope.index(y)
    ctx_scope = factor.scope[:axis] + factor.scope[axis + 1 :]
    k = len(diagram.domain(y))
    sizes = diagram.domain_sizes(factor.scope)
    slices: list[list] = []
    for ctx in itertools.product(
        *[range(s) for i, s in enumerate(sizes) if i != axis]
    ):
        row = []
        for yv in range(k):
            cfg = list(ctx)
            cfg.insert(axis, yv)
            idx = 0
            for stride, value in zip(_strides(sizes), cfg):
                idx += stride * value
            row.append(factor.table[idx])
        slices.append(row)
    return ctx_scope, k, slices


def _max_value(values: Iterable[OOMValue]) -> OOMValue:
    """Dominance maximum of probability values (totally ordered)."""
    best: OOMValue | None = None
    for v in values:
        if best is None or dominates(v, best):
            best = v
    assert best is not None
    return best


def _maximal_actions(values: list[OOMSet]) -> frozenset[int]:
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
    if order is None:
        order = legal_ordering(diagram)
    elif not is_legal_ordering(diagram, order):
        raise DiagramError(f"not a legal elimination ordering: {order}")
    order_key = {v: i for i, v in enumerate(order)}

    buckets: list[tuple[list[_OOMFactor], list[_OOMFactor]]] = [([], []) for _ in order]

    def place(f: _OOMFactor, kind: int) -> None:
        pos = min(order_key[v] for v in f.scope)
        buckets[pos][kind].append(f)

    for cpt in diagram.cpts:
        place(_OOMFactor(cpt.scope, list(cpt.table)), 0)
    for u in diagram.utilities:
        place(_OOMFactor(u.scope, list(u.table)), 1)

    decisions = set(diagram.decision_vars)
    root_thetas: list[OOMSet] = []
    raw_rules: dict[str, tuple[tuple[str, ...], list[frozenset[int]]]] = {}
    max_cells = 0

    for pos, y in enumerate(order):
        lambdas, thetas = buckets[pos]
        if y in decisions:
            lam_msg, theta_msg, scope, cells = _decision_step(
                diagram, order_key, y, lambdas, thetas
            )
            raw_rules[y] = (scope, cells)
        else:
            lam_msg, theta_msg = _chance_step(diagram, order_key, y, lambdas, thetas)
        for msg, kind in ((lam_msg, 0), (theta_msg, 1)):
            if msg is None:
                continue
            max_cells = max(max_cells, len(msg.table))
            if msg.scope:
                place(msg, kind)
            elif kind == 1:
                root_thetas.append(msg.table[0])

    meu = sum_sets(*root_thetas) if root_thetas else ZERO_SET
    policies = _expand_policy_set(diagram, raw_rules)
    return OOMSolution(meu=meu, policies=policies, max_table_cells=max_cells)


def _chance_step(diagram, order_key, y, lambdas, thetas):
    assert lambdas, f"chance bucket {y} has no probability component"
    lam = _combine_lambdas(lambdas, diagram, order_key)
    ctx_scope, k, lam_rows = _split_axis(lam, y, diagram)
    lam_table = []
    for row in lam_rows:
        total = row[0]
        for v in row[1:]:
            total = add(total, v)
        assert total.is_positive or total.is_zero
        lam_table.append(total)
    lam_msg = _OOMFactor(ctx_scope, lam_table)
    theta_msg = None
    if thetas:
        theta = _combine_thetas(thetas, diagram, order_key)
        joint_scope = _union_scope([lam, theta], order_key)
        lam_j = _gather(lam, joint_scope, diagram)
        theta_j = _gather(theta, joint_scope, diagram)
        combined = _OOMFactor(
            joint_scope, [scale(lv, ts) for lv, ts in zip(lam_j, theta_j)]
        )
        c_ctx_scope, _, c_rows = _split_axis(combined, y, diagram)
        sums = [sum_sets(*row) for row in c_rows]
        norm = _gather(lam_msg, c_ctx_scope, diagram)
        table = [
            scale(inverse(lv), ts) if not lv.is_zero else ZERO_SET
            for lv, ts in zip(norm, sums)
        ]
        theta_msg = _OOMFactor(c_ctx_scope, table)
    return lam_msg, theta_msg


def _decision_step(diagram, order_key, y, lambdas, thetas):
    lam = _combine_lambdas(lambdas, diagram, order_key) if lambdas else None
    lam_msg = None
    if lam is not None:
        ctx_scope, _, rows = _split_axis(lam, y, diagram)
        lam_msg = _OOMFactor(ctx_scope, [_max_value(row) for row in rows])
    if not thetas:
        # nothing downstream distinguishes the actions: keep them all
        k = len(diagram.domain(y))
        return lam_msg, None, (), [frozenset(range(k))]
    theta = _combine_thetas(thetas, diagram, order_key)
    if lam is not None:
        joint_scope = _union_scope([lam, theta], order_key)
        lam_j = _gather(lam, joint_scope, diagram)
        theta_j = _gather(theta, joint_scope, diagram)
        combined = _OOMFactor(
            joint_scope, [scale(lv, ts) for lv, ts in zip(lam_j, theta_j)]
        )
    else:
        combined = theta
    ctx_scope, _, rows = _split_axis(combined, y, diagram)
    theta_msg = _OOMFactor(ctx_scope, [max_sets(*row) for row in rows])
    cells = [_maximal_actions(row) for row in rows]
    return lam_msg, theta_msg, ctx_scope, cells


def _expand_policy_set(
    diagram: OOMInfluenceDiagram,
    raw_rules: Mapping[str, tuple[tuple[str, ...], list[frozenset[int]]]],
) -> PolicySet:
    scopes = {}
    cells = {}
    for d in diagram.decision_vars:
        info = tuple(diagram.information_sets.get(d, ()))
        scope, raw = raw_rules.get(d, ((), [frozenset(range(len(diagram.domain(d))))]))
        extra = [v for v in scope if v not in info]
        assert not extra, f"decision {d}: rule depends on unobserved {extra}"
        scopes[d] = info
        if scope == info:
            cells[d] = tuple(raw)
            continue
        src_sizes = diagram.domain_sizes(scope)
        src_strides = _strides(src_sizes)
        positions = [info.index(v) for v in scope]
        expanded = []
        for cfg in itertools.product(*[range(s) for s in diagram.domain_sizes(info)]):
            idx = 0
            for stride, p in zip(src_strides, positions):
                idx += stride * cfg[p]
            expanded.append(raw[idx])
        cells[d] = tuple(expanded)
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
    if order is None:
        order = legal_ordering(diagram)
    elif not is_legal_ordering(diagram, order):
        raise DiagramError(f"not a legal elimination ordering: {order}")

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
    raw_rules: dict[str, tuple[tuple[str, ...], list[frozenset[int]]]] = {}
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
                    lam_out[lam_key] = _max_value(lam_row)
                if pulled_t:
                    values = [
                        scale(lam_row[i], theta_row[i]) if pulled_l else theta_row[i]
                        for i in range(k)
                    ]
                    theta_out[ctx_key] = max_sets(*values)
                    cells.append(_maximal_actions(values))
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
            raw_rules[y] = (scope_sorted, cells)
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
