"""The elimination plan and its executor.

Each solve and evaluation runs a plan made once per skeleton; these tests
hold its outputs bit for bit against the per-call driver of
``oracle_elimination``, check that plans are made once and shared as the
skeleton is, and bound each plan's buckets and messages from their scopes
alone, before any table is built.
"""

import functools
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import oracle_elimination as oracle
from oomid import elimination, exact, oom_solve
from oomid.convert import ConversionConfig, convert
from oomid.diagram import from_dict
from oomid.exact import PolicyEvaluator, brute_force_meu, evaluate_policy, solve_exact
from oomid.generator import GeneratorParams, generate
from oomid.oom_solve import elim_oom_id
from oomid.ordering import checked_skeleton, skeleton
from test_exact import executed, random_policies

EPSILONS = (0.5, 0.05, 0.005)


def generated(n: int, c: str, seed: int):
    """A diagram at the benchmark's settings: n variables, 5 of them decisions."""
    params = GeneratorParams(n_c=n - 5, n_d=5, k=2, p=2, r=5, a=5, utility_class=c, seed=seed)
    return generate(params)


GENERATED = [(n, c, seed) for n, c, seed in itertools.product((25, 45, 80), "PM", range(4))]


def actions(policy) -> dict[str, list[int]]:
    return {v: list(rule.actions) for v, rule in policy.rules.items()}


def assert_exact_matches_oracle(d) -> None:
    """``solve_exact``'s MEU and policy, and the largest message its plan
    stores, are the per-call driver's bit for bit."""
    meu, rules, run = oracle.solve(d)
    solution = solve_exact(d)
    assert solution.meu.hex() == meu.hex()
    assert actions(solution.policy) == rules
    assert executed(d)[1] == run.max_cells


def assert_evaluations_match_oracle(d, batch) -> None:
    values = PolicyEvaluator(d).evaluate_many(batch)
    assert [v.hex() for v in values] == [v.hex() for v in oracle.evaluate_many(d, batch)]


@pytest.mark.parametrize("n, utility_class, seed", GENERATED, ids=lambda x: str(x))
def test_plans_match_per_call_driver(n, utility_class, seed):
    d = generated(n, utility_class, seed)
    assert_exact_matches_oracle(d)
    for eps in EPSILONS:
        o = convert(d, ConversionConfig(eps))
        solution = elim_oom_id(o)
        meu, policies, max_cells = oracle.solve_oom(o)
        assert solution.meu == meu
        assert solution.policies == policies
        assert solution.policies.count() == policies.count()
        assert solution.max_table_cells == max_cells
        batch, _ = solution.policies.sample(100, seed=seed)
        assert_evaluations_match_oracle(d, batch)


@pytest.mark.slow
def test_benchmark_pool_plans_match_per_call_driver():
    # perfbench's seed-0 exact-solve pool, as its items run: the solve, then
    # the optimal policy's value, here with 7 more policies of one batch
    for j in range(300):
        d = generated(80, "PM"[j % 2], 8_000_000 + j)
        assert_exact_matches_oracle(d)
        policy = solve_exact(d).policy
        value = oracle.evaluate_many(d, stack(d, [policy]))[0]
        assert evaluate_policy(d, policy).hex() == value.hex()
        batch = stack(d, [policy] + random_policies(d, 7, seed=j))
        assert_evaluations_match_oracle(d, batch)


def stack(d, policies):
    return exact._stack(d, policies)


# ---------------------------------------------------------------------------
# plans are made once per skeleton


def counted_plans(monkeypatch) -> list:
    """Patch the planner, as the solvers and the evaluator call it, to record
    the ordering of each plan it makes."""
    orders = []
    make = elimination.plan

    def counting(diagram, order, *rest):
        orders.append(list(order))
        return make(diagram, order, *rest)

    for module in (exact, oom_solve):
        monkeypatch.setattr(module, "plan", counting)
    return orders


def test_plans_made_once(monkeypatch):
    made = counted_plans(monkeypatch)
    d = generated(45, "M", 2)
    solution = solve_exact(d)
    assert made == [list(skeleton(d).order)]
    solve_exact(d)
    assert len(made) == 1
    value = evaluate_policy(d, solution.policy)
    parts = [[v for v in skeleton(d).order if v in k] for k in skeleton(d).kept]
    assert made[1:] == parts
    # a second evaluation and a second evaluator read the recorded plans
    assert evaluate_policy(d, solution.policy) == value
    PolicyEvaluator(d).evaluate(solution.policy)
    assert len(made) == 1 + len(parts)


def test_conversions_share_one_qualitative_plan(monkeypatch):
    # convert hands on the recorded skeleton, so every epsilon's solve runs
    # the one qualitative plan it holds
    made = counted_plans(monkeypatch)
    d = generated(25, "P", 1)
    plans = skeleton(d).plans
    conversions = [convert(d, ConversionConfig(eps)) for eps in EPSILONS]
    for o in conversions:
        elim_oom_id(o)
        assert checked_skeleton(o).plans is plans
    assert len(made) == 1
    qualitative = plans[oom_solve._spans]
    elim_oom_id(conversions[0])
    assert plans[oom_solve._spans] is qualitative and len(made) == 1
    # the exact solver's plan is its own: its decision step keeps the
    # probability part out of the utility message
    solve_exact(d)
    assert plans[exact._spans] is not qualitative and len(made) == 2


def test_copy_starts_without_plans(monkeypatch):
    d = generated(25, "M", 3)
    solve_exact(d)
    copy = replace(d)
    assert skeleton(copy).plans == {}
    made = counted_plans(monkeypatch)
    assert solve_exact(copy) == solve_exact(d)
    assert len(made) == 1
    assert skeleton(copy).plans[exact._spans] is not skeleton(d).plans[exact._spans]


# ---------------------------------------------------------------------------
# static bounds, from the scopes alone


def cells(d, scope) -> int:
    return math.prod(d.domain_sizes(scope))


@functools.cache
def planned_without_tables(n, utility_class, seed):
    """A generated diagram and its plans as the solvers and the evaluator
    make them, without a table: exact, qualitative, then each part."""
    d = generated(n, utility_class, seed)
    record = checked_skeleton(d)
    spans = (exact._spans, oom_solve._spans)
    plans = [elimination.plan(d, record.order, d.cpts, d.utilities, s) for s in spans]
    plans += [
        elimination.plan(
            d, [v for v in record.order if v in k], [c for c in d.cpts if c.child in k], [u],
            exact._evaluated,
        )
        for k, u in zip(record.kept, d.utilities)
    ]
    return d, plans


@pytest.mark.parametrize("n, utility_class, seed", GENERATED, ids=lambda x: str(x))
def test_planned_buckets_within_largest_bucket(n, utility_class, seed):
    d, plans = planned_without_tables(n, utility_class, seed)
    record = checked_skeleton(d)
    for made in plans:
        assert max(cells(d, b.scope) for b in made.buckets) <= record.largest_bucket
        for b in made.buckets:
            rest = b.scope[1:]
            for scope, down in zip(b.out, b.down):
                if scope is None:
                    assert down is None
                    continue
                # an ordered subsequence, cut to where it is shorter: a
                # table over rest with one cell where scope lacks the
                # variable comes out over scope
                assert scope == tuple(v for v in rest if v in scope)
                assert (down is not None) == (len(scope) < len(rest))
                table = np.zeros([len(d.domain(v)) if v in scope else 1 for v in rest])
                assert (table if down is None else table[down]).shape == d.domain_sizes(scope)
    # not vacuous: across GENERATED, some chance bucket and some decision
    # bucket cut their lambda message
    cut = set()
    for p in GENERATED:
        for made in planned_without_tables(*p)[1]:
            cut.update(b.decision for b in made.buckets if b.down[0] is not None)
    assert cut == {False, True}
    # the qualitative solver stores every message at its scope's size
    qualitative = plans[1]
    largest = max(cells(d, s) for b in qualitative.buckets for s in b.out if s is not None)
    for eps in EPSILONS:
        assert elim_oom_id(convert(d, ConversionConfig(eps))).max_table_cells == largest


def test_decision_bucket_cuts_utility_message_and_rule():
    # Y, never observed, is summed out first and sends a probability message
    # over (D, X) to D's bucket, whose utility is over D alone: the utility
    # message and the rule are cut from (X,) to ()
    data = {
        "variables": [
            {"id": "X", "kind": "chance", "domain": ["a", "b"]},
            {"id": "D", "kind": "decision", "domain": ["l", "m", "r"]},
            {"id": "Y", "kind": "chance", "domain": ["a", "b"]},
        ],
        "cpts": [
            {"child": "X", "parents": [], "table": [0.3, 0.7]},
            {
                "child": "Y",
                "parents": ["D", "X"],
                "table": [0.1, 0.9, 0.3, 0.7, 0.6, 0.4, 0.2, 0.8, 0.5, 0.5, 0.9, 0.1],
            },
        ],
        "utilities": [{"scope": ["D"], "table": [2.0, 5.5, 3.25]}],
        "decision_order": ["D"],
        "information_sets": {"D": ["X"]},
    }
    d = from_dict(data)
    solution = solve_exact(d)
    (bucket,) = [b for b in skeleton(d).plans[exact._spans].buckets if b.var == "D"]
    assert bucket.scope == ("D", "X") and bucket.out[1] == () and bucket.down[1] is not None
    meu, rules, _ = oracle.solve(d)
    assert solution.meu.hex() == meu.hex()
    assert actions(solution.policy) == rules == {"D": [1, 1]}
    assert abs(solution.meu - brute_force_meu(d)[0]) <= 1e-9
