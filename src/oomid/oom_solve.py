"""Variable elimination for order-of-magnitude influence diagrams.

``elim_oom_id`` runs the qualitative plan of ``elimination``, made once
per skeleton and so shared by every epsilon's conversion of a numeric
diagram, on the diagram's own tables: probabilities as orders, utility
sets as the orders of their two ends, one order per sign bit (the
encoding of ``sets``; the algebra on it is described with the array
kernels below).  Every step is a few whole-table numpy operations; the
scalar ``values``/``sets`` calculus only decodes the MEU and serves the
oracle.  This module supplies the plan's ``_spans``, the two steps and
their kernels.  Both steps fold the probability part into the utility
message, so the plan is not the exact solver's.  The chance step
sums out the bucket variable from the probability product and
renormalizes the utility message by that marginal (qualitatively
impossible configurations get the zero utility).  The decision step
maximizes over the actions and records, per parent configuration, every
action whose value set is not strictly dominated by another action's:
ties between incomparable value sets keep both actions, which is what
makes the result a policy *set*.  Rules are boolean action
masks end to end: ``PolicySet`` is built from them and derives ``cells``.
It numbers policies in mixed radix, one digit per cell, and ``sample``
decodes all drawn indices at once into (s, cells) action arrays.

``brute_force_oom`` is the test oracle: the same elimination semantics
along ``legal_ordering``, as dict-based variable elimination that pulls
every live factor mentioning each variable, with no buckets or strided
tables to get wrong.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from typing import Iterable, Mapping, Sequence

import numpy as np

from .diagram import (
    DiagramError,
    GuardExceeded,
    OOMInfluenceDiagram,
    PolicyBatch,
    require_valid,
)
from .elimination import Factor, eliminate, expand_rule, factor, fold, plan, planned
from .ordering import checked_skeleton, legal_ordering
from .sets import (
    OOMSet,
    ZERO_SET,
    canonical,
    decode_set,
    decode_value,
    max_sets,
    scale,
    set_dominates,
    sum_sets,
)
from .values import INF, OOMValue, add, dominates, inverse, mul

DEFAULT_GUARD = 10**6


# ---------------------------------------------------------------------------
# policy sets

# Sampled policy indices are split into runs of consecutive cells whose
# radix product stays within 2**_RUN_BITS, so that each run's digits fit int64.
_RUN_BITS = 62


@dataclass(frozen=True, eq=False)
class PolicySet:
    """Per decision and parent configuration, the set of maximizing actions.

    Policies are numbered in mixed radix: the cells of all decisions in
    decision order, each cell a digit (least significant first) that picks
    one of its kept actions in ascending order.
    """

    decisions: tuple[str, ...]
    scopes: Mapping[str, tuple[str, ...]]
    masks: Mapping[str, np.ndarray]  # (action, cell), cells row-major over scope
    # decode tables: every cell's kept actions in ascending order, one cell
    # after another; each cell's first entry there, its radix, run and place
    # value in its run; the radix product of each run
    _kept: np.ndarray = field(init=False, repr=False)
    _first: np.ndarray = field(init=False, repr=False)
    _radix: np.ndarray = field(init=False, repr=False)
    _run: np.ndarray = field(init=False, repr=False)
    _place: np.ndarray = field(init=False, repr=False)
    _run_sizes: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # (cell, action) masks, and an empty one for a set without decisions
        masks = [self.masks[d].T for d in self.decisions] + [np.zeros((0, 1), dtype=bool)]
        radix = np.concatenate([m.sum(1) for m in masks])
        if not radix.all():
            raise DiagramError("empty action set in a cell")
        # a digit of radix r takes bit_length(r - 1) bits: cutting the running
        # total every ``span`` bits puts at most span - 1 + max(bits) in a run
        bits = np.frexp(radix - 1)[1]
        span = _RUN_BITS + 1 - bits.max(initial=1)
        run = np.maximum(np.cumsum(bits) - 1, 0) // span
        pos = np.arange(len(run)) - np.searchsorted(run, run)  # place in the run
        places = np.ones((run.max(initial=0) + 1, pos.max(initial=0) + 1), dtype=np.int64)
        places[run, pos] = radix
        places = np.cumprod(places, axis=1)
        set_ = partial(object.__setattr__, self)
        set_("_kept", np.concatenate([m.nonzero()[1] for m in masks]))
        set_("_first", np.cumsum(radix) - radix)
        set_("_radix", radix)
        set_("_run", run)
        set_("_place", places[run, pos] // radix)
        set_("_run_sizes", tuple(places[:, -1].tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolicySet):
            return NotImplemented
        mine, theirs = (self.decisions, self.scopes), (other.decisions, other.scopes)
        return mine == theirs and all(
            np.array_equal(self.masks[d], other.masks[d]) for d in self.decisions
        )

    @cached_property
    def cells(self) -> dict[str, tuple[frozenset[int], ...]]:
        """Each decision's cells as the sets of their kept actions."""
        return {
            d: tuple(frozenset(c.nonzero()[0].tolist()) for c in self.masks[d].T)
            for d in self.decisions
        }

    def count(self) -> int:
        return math.prod(self._run_sizes)

    def sample(self, s: int, seed: int = 0) -> tuple[PolicyBatch, bool]:
        """Uniform sample of ``s`` policies.

        Distinct policies (by rejection) when the set is large enough;
        otherwise the draw is with replacement and flagged as such.
        """
        if not isinstance(s, (int, np.integer)) or s < 1:
            raise ValueError(f"sample size must be an integer of at least 1, not {s!r}")
        rng = random.Random(seed)
        count = self.count()
        with_replacement = count < s
        indices: list[int] = []
        seen: set[int] = set()
        while len(indices) < s:
            i = rng.randrange(count)
            if with_replacement or i not in seen:
                seen.add(i)
                indices.append(i)
        return self._batch(indices), with_replacement

    def _batch(self, indices: Sequence[int]) -> PolicyBatch:
        """The policies of ``indices``: each index split into its runs'
        values, then every digit of every run at once."""
        runs = []
        for i in indices:
            for size in self._run_sizes:
                i, value = divmod(i, size)
                runs.append(value)
        runs = np.array(runs, dtype=np.int64).reshape(len(indices), -1)
        digits = runs[:, self._run] // self._place % self._radix
        actions = self._kept[self._first + digits]
        bounds = np.cumsum([self.masks[d].shape[1] for d in self.decisions])
        per_decision = dict(zip(self.decisions, np.split(actions, bounds[:-1], axis=1)))
        return PolicyBatch(len(indices), self.scopes, per_decision)


# ---------------------------------------------------------------------------
# the order-of-magnitude algebra over numeric arrays
#
# On the encoding of ``sets``, a product of probabilities adds orders, and
# their sum or dominance maximum is their minimum.  A signed value is the
# lower of its two bit orders, with every bit that reaches it, so a sum of
# values is the minimum per bit (a bit's order above the value's is
# ignored: sums need no clean-up).  Scaling by a probability adds its order
# to both bits.  Set sums and maxima end in ``sets.canonical``.  The kernels
# take (bit, end, ...) set tables and count ``axis`` from the end, past any
# further leading axes.

def sum_ends(table: np.ndarray, axis: int | None = None) -> np.ndarray:
    """``sum_sets`` of the sets along ``axis`` of a (bit, end, ...) table, or
    of each set alone if ``axis`` is None: the ends summed separately, then
    the pair canonicalized."""
    if axis is not None:
        table = table.min(axis)
    return canonical(table[0], table[1], 0)


def max_ends(table: np.ndarray, axis: int) -> np.ndarray:
    """``max_sets`` of the sets along ``axis`` of a (bit, end, ...) table:
    every end of every set, canonicalized."""
    return canonical(table[0], table[1], (0, axis))


def maximal_mask(table: np.ndarray, axis: int) -> np.ndarray:
    """Per cell of the other axes of a (bit, end, ...) table, which of the
    sets along ``axis`` no other set strictly dominates: a boolean table
    with those sets along its first axis."""
    # (..., set, element) views of the bit orders
    plus, minus = (np.moveaxis(t, (axis, 0), (-2, -1)) for t in table)
    order = np.minimum(plus, minus)
    positive, negative = plus < minus, minus < plus
    # element x of set a dominates element y of set b, as [..., a, b, x, y]
    a_order, a_pos = order[..., :, None, :, None], positive[..., :, None, :, None]
    b_order, b_neg = order[..., None, :, None, :], negative[..., None, :, None, :]
    dom = (b_neg & (a_pos | (a_order >= b_order))) | (a_pos & (a_order <= b_order))
    covers = dom.any(-2).all(-1)  # set a dominates set b
    beaten = (covers & ~np.swapaxes(covers, -1, -2)).any(-2)
    return np.moveaxis(~beaten, -1, 0)


def _max_value(*values: OOMValue) -> OOMValue:
    """Dominance maximum of probability values (totally ordered)."""
    return reduce(lambda best, v: v if dominates(v, best) else best, values)


def _maximal_actions(*values: OOMSet) -> frozenset[int]:
    """The actions whose value set no other action's strictly dominates."""
    return frozenset(
        d for d, a in enumerate(values)
        if not any(set_dominates(b, a) and not set_dominates(a, b) for b in values)
    )


# ---------------------------------------------------------------------------
# the eliminator

@dataclass(frozen=True)
class OOMSolution:
    meu: OOMSet
    policies: PolicySet
    max_table_cells: int


def elim_oom_id(diagram: OOMInfluenceDiagram) -> OOMSolution:
    require_valid(diagram, qualitative=True)
    skeleton = checked_skeleton(diagram)
    lambdas, thetas = diagram.cpts, diagram.utilities
    made = planned(skeleton, _spans, lambda: plan(diagram, skeleton.order, lambdas, thetas, _spans))
    run = eliminate(diagram, made, lambdas, thetas, _chance_step, _decision_step)
    meu = decode_set(sum_ends(np.stack(run.root_thetas, -1), -1))
    policies = _expand_policy_set(diagram, run.rules)
    # every qualitative message is stored at its scope's size
    scopes = [s for b in made.buckets for s in b.out if s is not None]
    cells = max(math.prod(diagram.domain_sizes(s)) for s in scopes)
    return OOMSolution(meu=meu, policies=policies, max_table_cells=cells)


def _spans(diagram, y, decision, lam, theta):
    """The variables of a bucket's messages (see ``elimination.plan``): both
    steps fold the probability part into the utility message."""
    return lam or None, lam | theta if theta else None


def _utility(thetas, lam) -> np.ndarray:
    """The bucket's utility sum, scaled by its probability product if any."""
    theta = fold(thetas, np.minimum)
    if len(thetas) > 1:  # one theta is canonical: a utility table, or a shifted message
        theta = sum_ends(theta)
    return theta if lam is None else theta + lam


def _chance_step(diagram, b, lambdas, thetas):
    # as in the exact solver, only a solver fault leaves a chance bucket
    # without a probability factor
    assert lambdas, f"chance bucket {b.var} has no probability component"
    lam = fold(lambdas, np.add)
    lam_msg = lam.min(-len(b.scope))  # a sum of probabilities
    theta_msg = None
    if thetas:
        sums = sum_ends(_utility(thetas, lam), -len(b.scope))
        # divided by the probability mass; where the mass is zero, so is
        # every scaled term, and the sum stays zero
        theta_msg = sums - np.where(lam_msg < INF, lam_msg, 0.0)
    return lam_msg, theta_msg


def _decision_step(diagram, b, lambdas, thetas):
    axis = -len(b.scope)
    lam = fold(lambdas, np.add) if lambdas else None
    lam_msg = lam.min(axis) if lam is not None else None
    if not thetas:
        # nothing downstream distinguishes the actions: keep them all
        return lam_msg, None, Factor((), np.ones(len(diagram.domain(b.var)), dtype=bool))
    combined = _utility(thetas, lam)
    return lam_msg, max_ends(combined, axis), Factor(b.out[1], maximal_mask(combined, axis))


def _expand_policy_set(
    diagram: OOMInfluenceDiagram, rules: Mapping[str, Factor]
) -> PolicySet:
    """The policy set of rules that are (action, ...) masks over bucket scopes."""
    scopes, masks = {}, {}
    for d in diagram.decision_vars:
        scopes[d], masks[d] = expand_rule(diagram, d, rules[d])
    return PolicySet(diagram.decision_order, scopes, masks)


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
    diagram: OOMInfluenceDiagram, guard: int = DEFAULT_GUARD
) -> OOMSolution:
    """Test oracle: dict-based variable elimination over live factor pulls."""
    require_valid(diagram, qualitative=True)

    joint = math.prod(len(v.domain) for v in diagram.variables)
    if joint > guard:
        raise GuardExceeded(f"joint space has {joint} cells (guard {guard})")

    def lift(scope: tuple[str, ...], flat: Sequence) -> _DictFactor:
        table = {}
        sizes = [len(diagram.domain(v)) for v in scope]
        for i, combo in enumerate(itertools.product(*[range(s) for s in sizes])):
            table[_key(dict(zip(scope, combo)), scope)] = flat[i]
        return _DictFactor(frozenset(scope), table)

    # each table decoded once
    lams = [lift(c.scope, [decode_value(k, INF) for k in c.table.tolist()]) for c in diagram.cpts]
    thetas = [
        lift(u.scope, [decode_set(cell) for cell in np.moveaxis(u.table, -1, 0).tolist()])
        for u in diagram.utilities
    ]
    decisions = set(diagram.decision_vars)
    raw_rules: dict[str, Factor] = {}
    root_thetas: list[OOMSet] = []
    max_cells = 0

    for y in legal_ordering(diagram):
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
            mask = np.array([[a in cell for cell in cells] for a in range(k)])
            raw_rules[y] = factor(diagram, scope_sorted, mask)
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
