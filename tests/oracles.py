"""Independent oracles for the solvers, the orderings and the set calculus.

``policy_value`` sums a policy's expected utility over every chance
configuration, and ``brute_force_meu`` scores every policy with it: the
exact solver and the policy evaluator must agree with both.
``convex_closure_bounded`` lists the convex combinations of values with
coefficient orders capped, the semantic oracle for canonical sets, and
``canonical_cells`` states their table form clause by clause, the oracle
for ``validate``'s fixed-point check.
``is_legal_ordering`` checks an ordering against ``temporal_partition``'s
blocks.  They read only ``diagram``, ``ordering`` and ``values`` of the
package, never the elimination engine or a solver
(``test_imports.test_oracles_import_no_solver``).
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Sequence

import numpy as np

from oomid.diagram import (
    GuardExceeded,
    InfluenceDiagram,
    Kind,
    Policy,
    PolicyRule,
    require_valid,
)
from oomid.ordering import _is_permutation, temporal_partition
from oomid.values import ZERO, OOMValue, Sign, add, mul


def is_legal_ordering(diagram: InfluenceDiagram, order: list[str]) -> bool:
    """True iff ``order`` is a permutation of the variables along which
    their blocks' positions in ``temporal_partition`` never decrease."""
    if not _is_permutation(diagram, order):
        return False
    rank = {v: k for k, block in enumerate(temporal_partition(diagram)) for v in block}
    return all(rank[a] <= rank[b] for a, b in zip(order, order[1:]))


def convex_closure_bounded(
    values: Sequence[OOMValue], max_coeff_order: int
) -> set[OOMValue]:
    """All combinations ``sum_i q_i * a_i`` with positive coefficients
    summing to one, coefficient orders capped at ``max_coeff_order``.

    Each combination picks a sub-multiset of ``values`` and gives every
    pick a coefficient ``(+,k)`` with ``0 <= k <= max_coeff_order``; the
    coefficients sum to one exactly when the minimum ``k`` is zero.  Since
    addition is associative and commutative, the reachable sums are
    computed by a scan over the input elements, carrying the partial sum
    and whether a zero-order coefficient has been used yet.
    """
    if max_coeff_order < 0:
        raise ValueError("max_coeff_order must be nonnegative")
    # state: (partial sum, a coefficient of order 0 was used)
    states: set[tuple[OOMValue, bool]] = {(ZERO, False)}
    for a in values:
        terms = [(mul(OOMValue(Sign.PLUS, k), a), k == 0) for k in range(max_coeff_order + 1)]
        new_states = set(states)  # skipping the element is allowed
        for acc, min_used in states:
            for term, zero_order in terms:
                new_states.add((add(acc, term), min_used or zero_order))
        states = new_states
    return {acc for acc, min_used in states if min_used}


def canonical_cells(table: np.ndarray) -> np.ndarray:
    """Which cells of a (bit, end, cell) table encode a canonical set: each
    end a value, zero, (k, k) for +-, or (k, inf) or (inf, k) for a signed
    one with k an integer, and the ends equal or a +- value below the
    other."""
    plus, minus = table
    order = np.minimum(plus, minus)
    integral = np.isfinite(order) & (order == np.floor(order))
    signed = (plus == minus) | (np.maximum(plus, minus) == math.inf)
    values = ((plus == math.inf) & (minus == math.inf)) | (integral & signed)
    singleton = (plus[0] == plus[1]) & (minus[0] == minus[1])
    pair = (plus[0] == minus[0]) & (order[0] < order[1])
    return values.all(0) & (singleton | pair)


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
