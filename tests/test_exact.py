import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
import re

import numpy as np
import pytest

from oomid import diagram as diagram_module
from oomid import exact, oom_solve, ordering
from oomid.diagram import (
    DiagramError,
    GuardExceeded,
    Policy,
    PolicyBatch,
    PolicyRule,
    UtilityFunction,
    apply_nonforgetting,
    from_dict,
    mark_valid,
    to_dict,
    wildcatter,
)
from oomid.exact import (
    PolicyEvaluator,
    brute_force_meu,
    evaluate_policy,
    policy_value,
    solve_exact,
    sum_out,
)
from oomid.convert import ConversionConfig, convert
from oomid.elimination import (
    Factor,
    Plan,
    eliminate,
    expand_rule,
    plan,
    seen,
)
from oomid.generator import GeneratorParams, generate
from oomid.oom_solve import elim_oom_id
from oomid.ordering import (
    checked_skeleton,
    is_legal_ordering,
    legal_ordering,
    skeleton,
    temporal_partition,
)
from oracle_elimination import (
    align,
    fold,
    product,
    reduce_out,
    stored_chance_step,
    stored_decision_step,
)
from oracle_elimination import run as run_steps
from test_ordering import along, oracle_largest_bucket


def wildcatter_policy(diagram, test_action, drill_actions):
    drill_scope = diagram.information_sets["Drill"]
    return Policy(
        rules={
            "Test": PolicyRule("Test", (), (test_action,)),
            "Drill": PolicyRule("Drill", drill_scope, tuple(drill_actions)),
        }
    )


def small_params(i: int) -> GeneratorParams:
    # mixes of sizes with at most 8 variables; information sets stay small
    # enough after the non-forgetting closure for policy enumeration
    shapes = [
        dict(n_c=4, n_d=2, k=2, p=1, r=2, a=3),
        dict(n_c=6, n_d=1, k=2, p=2, r=3, a=4),
        dict(n_c=5, n_d=2, k=2, p=1, r=3, a=3),
        dict(n_c=6, n_d=2, k=2, p=1, r=2, a=4),
        dict(n_c=5, n_d=1, k=3, p=1, r=2, a=2),
    ]
    shape = shapes[i % len(shapes)]
    return GeneratorParams(seed=1000 + i, utility_class="PM"[i % 2], **shape)


def random_policies(diagram, count: int, seed: int) -> list[Policy]:
    rng = np.random.default_rng(seed)
    policies = []
    for _ in range(count):
        rules = {}
        for d in diagram.decision_vars:
            info = tuple(diagram.information_sets.get(d, ()))
            cells = int(np.prod(diagram.domain_sizes(info)))
            actions = rng.integers(0, len(diagram.domain(d)), cells)
            rules[d] = PolicyRule(d, info, tuple(int(a) for a in actions))
        policies.append(Policy(rules=rules))
    return policies


def malformed_wildcatter_policy(diagram, case: str) -> Policy:
    drill_scope = diagram.information_sets["Drill"]
    test_rule = PolicyRule("Test", (), (0,))
    drill_rule = PolicyRule("Drill", drill_scope, (0,) * 6)
    if case == "missing rule":
        return Policy(rules={"Test": test_rule})
    if case == "wrong scope":
        drill_rule = PolicyRule("Drill", drill_scope[:1], (0, 0))
    if case == "incomplete rule":
        drill_rule = PolicyRule("Drill", drill_scope, (0, 0))
    if case.startswith("action "):
        test_rule = PolicyRule("Test", (), (int(case.split()[1]),))
    return Policy(rules={"Test": test_rule, "Drill": drill_rule})


MALFORMED = ["missing rule", "wrong scope", "incomplete rule", "action -1", "action 2"]


def stacked(diagram, policies) -> PolicyBatch:
    """``policies`` as a batch, built directly from their rules."""
    return PolicyBatch(
        len(policies),
        {d: diagram.information_sets[d] for d in diagram.decision_vars},
        {d: np.array([p.rules[d].actions for p in policies]) for d in diagram.decision_vars},
    )


def malformed_wildcatter_batch(diagram, case: str) -> PolicyBatch:
    # three policies; Test has one cell and Drill six, both two actions
    scopes = {"Test": (), "Drill": diagram.information_sets["Drill"]}
    actions = {"Test": np.zeros((3, 1), dtype=int), "Drill": np.zeros((3, 6), dtype=int)}
    if case == "wrong cell count":
        actions["Drill"] = np.zeros((3, 5), dtype=int)
    if case == "float dtype":
        actions["Drill"] = np.zeros((3, 6))
    if case == "action -1":
        actions["Test"][1, 0] = -1
    if case == "action k":
        actions["Drill"][2, 5] = 2
    if case == "missing decision":
        del actions["Test"]
    if case == "different row counts":
        actions["Drill"] = np.zeros((2, 6), dtype=int)
    if case == "wrong scope":
        scopes["Drill"] = scopes["Drill"][:1]
    return PolicyBatch(3, scopes, actions)


MALFORMED_BATCH = [
    "wrong cell count",
    "float dtype",
    "action -1",
    "action k",
    "missing decision",
    "different row counts",
    "wrong scope",
]


class TestWildcatter:
    def test_meu(self):
        assert solve_exact(wildcatter()).meu == pytest.approx(42.75, abs=1e-9)

    def test_policy_is_test_then_drill_unless_diffuse(self):
        d = wildcatter()
        rules = solve_exact(d).policy.rules
        assert d.domain("Test")[rules["Test"].actions[0]] == "yes"
        drill = rules["Drill"]
        assert drill.scope == ("Test", "Seismic")
        seismic_values = d.domain("Seismic")
        row = d.domain("Test").index("yes") * len(seismic_values)
        for seismic, expected in [("closed", "yes"), ("open", "yes"), ("diffuse", "no")]:
            action = drill.actions[row + seismic_values.index(seismic)]
            assert d.domain("Drill")[action] == expected

    def test_known_policies(self):
        d = wildcatter()
        delta1 = wildcatter_policy(d, 0, (0, 0, 1, 0, 0, 0))
        delta2 = wildcatter_policy(d, 1, (0, 0, 0, 0, 0, 0))
        assert evaluate_policy(d, delta1) == pytest.approx(42.75, abs=1e-9)
        assert evaluate_policy(d, delta2) == pytest.approx(20.0, abs=1e-9)

    def test_brute_force_agrees(self):
        d = wildcatter()
        meu, winners = brute_force_meu(d)
        assert meu == pytest.approx(42.75, abs=1e-9)
        # ties only on the drill rows that testing makes unreachable
        for w in winners:
            assert w.rules["Test"].actions == (0,)
            assert w.rules["Drill"].actions[:3] == (0, 0, 1)
        assert len(winners) == 8

    def test_policy_of_solver_attains_meu(self):
        d = wildcatter()
        sol = solve_exact(d)
        assert evaluate_policy(d, sol.policy) == pytest.approx(sol.meu, abs=1e-9)


class TestEdgeCases:
    def test_tied_actions_take_first_in_domain_order(self):
        data = {
            "variables": [{"id": "D", "kind": "decision", "domain": ["a", "b"]}],
            "cpts": [],
            "utilities": [{"scope": ["D"], "table": [7.0, 7.0]}],
            "decision_order": ["D"],
            "information_sets": {"D": []},
        }
        sol = solve_exact(from_dict(data))
        assert sol.meu == pytest.approx(7.0)
        assert sol.policy.rules["D"].actions == (0,)

    def test_chance_bucket_with_two_utilities(self):
        # Oil's bucket sums two thetas, the drilling payoff and a survey
        # cost over Oil alone
        data = to_dict(wildcatter())
        data["utilities"].append({"scope": ["Oil"], "table": [-5.0, 1.0, 20.0]})
        d = from_dict(data)
        meu, _ = brute_force_meu(d)
        sol = solve_exact(d)
        assert sol.meu == pytest.approx(meu, rel=1e-12)
        assert evaluate_policy(d, sol.policy) == pytest.approx(meu, rel=1e-12)

    def test_constant_utility_any_policy(self):
        data = {
            "variables": [
                {"id": "X", "kind": "chance", "domain": ["a", "b"]},
                {"id": "D", "kind": "decision", "domain": ["l", "r"]},
            ],
            "cpts": [{"child": "X", "parents": [], "table": [0.5, 0.5]}],
            "utilities": [{"scope": ["X"], "table": [3.0, 3.0]}],
            "decision_order": ["D"],
            "information_sets": {"D": ["X"]},
        }
        d = from_dict(data)
        policy = Policy(
            rules={"D": PolicyRule("D", d.information_sets["D"], (1, 0))}
        )
        assert evaluate_policy(d, policy) == pytest.approx(3.0)

    def test_utility_without_decision_scores_every_policy(self):
        # D is no ancestor of the utility, so no bucket selects: no table
        # ever gains a batch axis, and the batch still gets one value per
        # policy
        data = {
            "variables": [
                {"id": "X", "kind": "chance", "domain": ["a", "b"]},
                {"id": "Y", "kind": "chance", "domain": ["a", "b"]},
                {"id": "D", "kind": "decision", "domain": ["l", "r"]},
            ],
            "cpts": [
                {"child": "X", "parents": [], "table": [0.25, 0.75]},
                {"child": "Y", "parents": ["X"], "table": [0.5, 0.5, 0.125, 0.875]},
            ],
            "utilities": [{"scope": ["X", "Y"], "table": [1.0, 2.0, 4.0, 8.0]}],
            "decision_order": ["D"],
            "information_sets": {"D": ["X"]},
        }
        d = from_dict(data)
        policies = [
            Policy(rules={"D": PolicyRule("D", ("X",), actions)})
            for actions in [(0, 0), (0, 1), (1, 1)]
        ]
        expected = 0.25 * (0.5 * 1 + 0.5 * 2) + 0.75 * (0.125 * 4 + 0.875 * 8)
        values = PolicyEvaluator(d).evaluate_many(policies)
        assert values == pytest.approx([expected] * 3, rel=1e-12)
        assert values == [policy_value(d, {"D": p.rules["D"].actions}) for p in policies]

    def test_zero_probability_configurations(self):
        # policy_value skips a configuration once a CPT entry zeroes its
        # probability (X = a, and Y's zero entries); the oracle still
        # agrees with the solver and the evaluator
        data = {
            "variables": [
                {"id": "X", "kind": "chance", "domain": ["a", "b", "c"]},
                {"id": "D", "kind": "decision", "domain": ["l", "r"]},
                {"id": "Y", "kind": "chance", "domain": ["t", "f"]},
            ],
            "cpts": [
                {"child": "X", "parents": [], "table": [0.0, 0.25, 0.75]},
                {
                    "child": "Y",
                    "parents": ["X", "D"],
                    "table": [1.0, 0.0, 0.5, 0.5, 0.0, 1.0, 0.25, 0.75, 0.125, 0.875, 0.75, 0.25],
                },
            ],
            "utilities": [{"scope": ["D", "Y"], "table": [4.0, -1.0, 2.0, 3.0]}],
            "decision_order": ["D"],
            "information_sets": {"D": ["X"]},
        }
        d = from_dict(data)
        meu, winners = brute_force_meu(d)
        sol = solve_exact(d)
        assert abs(sol.meu - meu) <= 1e-9 * max(1.0, abs(meu))
        assert sol.policy in winners
        actions = {x: r.actions for x, r in sol.policy.rules.items()}
        assert policy_value(d, actions) == pytest.approx(evaluate_policy(d, sol.policy), rel=1e-12)

    def test_incomplete_policy_rejected(self):
        d = wildcatter()
        with pytest.raises(DiagramError):
            evaluate_policy(d, Policy(rules={}))
        with pytest.raises(DiagramError):
            evaluate_policy(
                d,
                Policy(
                    rules={
                        "Test": PolicyRule("Test", (), (0,)),
                        "Drill": PolicyRule(
                            "Drill", d.information_sets["Drill"], (0, 0)
                        ),
                    }
                ),
            )

    @pytest.mark.parametrize("case", MALFORMED)
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_malformed_policy_rejected(self, case, position):
        # an action outside the decision's domain once scored as another
        # action (-1 as the last) or raised IndexError (2)
        d = wildcatter()
        bad = malformed_wildcatter_policy(d, case)
        good = wildcatter_policy(d, 0, (0, 0, 1, 0, 0, 0))
        batch = [good, good]
        batch.insert(position, bad)
        with pytest.raises(DiagramError):
            PolicyEvaluator(d).evaluate_many(batch)
        with pytest.raises(DiagramError):
            evaluate_policy(d, bad)

    @pytest.mark.parametrize("case", MALFORMED_BATCH)
    def test_malformed_batch_rejected(self, case):
        d = wildcatter()
        evaluator = PolicyEvaluator(d)
        good = evaluate_policy(d, wildcatter_policy(d, 0, (0,) * 6))
        assert evaluator.evaluate_many(malformed_wildcatter_batch(d, "none")) == [good] * 3
        with pytest.raises(DiagramError):
            evaluator.evaluate_many(malformed_wildcatter_batch(d, case))

    def test_empty_batch(self):
        assert PolicyEvaluator(wildcatter()).evaluate_many([]) == []

    def test_step_over_more_tables_than_einsum_takes(self):
        # X has 70 leaf children: their messages and X's own CPT meet in one
        # step of 71 tables, which a step multiplies in order like any other
        children = [f"C{i:02d}" for i in range(70)]
        data = {
            "variables": [
                {"id": "X", "kind": "chance", "domain": ["a", "b"]},
                *({"id": c, "kind": "chance", "domain": ["u", "v"]} for c in children),
                {"id": "D", "kind": "decision", "domain": ["l", "r"]},
            ],
            "cpts": [
                {"child": "X", "parents": [], "table": [0.25, 0.75]},
                *(
                    {"child": c, "parents": ["X"], "table": [0.5, 0.5, 0.125, 0.875]}
                    for c in children
                ),
            ],
            "utilities": [{"scope": ["X", "D"], "table": [1.0, 2.0, 4.0, 8.0]}],
            "decision_order": ["D"],
            "information_sets": {"D": ["X"]},
        }
        d = from_dict(data)
        policies = [
            Policy(rules={"D": PolicyRule("D", ("X",), actions)})
            for actions in [(0, 0), (0, 1), (1, 0), (1, 1)]
        ]
        expected = [0.25 * 1 + 0.75 * 4, 0.25 * 1 + 0.75 * 8,
                    0.25 * 2 + 0.75 * 4, 0.25 * 2 + 0.75 * 8]
        assert PolicyEvaluator(d).evaluate_many(policies) == expected
        assert evaluate_policy(d, policies[1]) == expected[1]

    def test_invalid_diagram_rejected(self):
        data = {
            "variables": [{"id": "X", "kind": "chance", "domain": ["a", "b"]}],
            "cpts": [{"child": "X", "parents": [], "table": [0.9, 0.2]}],
            "utilities": [{"scope": ["X"], "table": [1, 0]}],
            "decision_order": [],
            "information_sets": {},
        }
        with pytest.raises(DiagramError):
            solve_exact(from_dict(data))

    def test_validated_once_per_diagram(self, monkeypatch):
        calls = []
        validate = diagram_module.validate
        monkeypatch.setattr(
            diagram_module, "validate", lambda d: calls.append(d) or validate(d)
        )
        d = wildcatter()
        evaluate_policy(d, solve_exact(d).policy)
        assert len(calls) == 1
        # the kind is still checked on every call
        with pytest.raises(DiagramError, match="order-of-magnitude"):
            elim_oom_id(d)

    def test_invalid_diagram_raises_on_every_call(self, monkeypatch):
        calls = []
        validate = diagram_module.validate
        monkeypatch.setattr(
            diagram_module, "validate", lambda d: calls.append(d) or validate(d)
        )
        data = to_dict(wildcatter())
        data["cpts"][0]["table"] = [0.5, 0.3, 0.3]
        d = from_dict(data)
        for _ in range(2):
            with pytest.raises(DiagramError, match="rows do not sum to 1"):
                solve_exact(d)
            with pytest.raises(DiagramError, match="rows do not sum to 1"):
                PolicyEvaluator(d)
        assert len(calls) == 4

    def test_rule_over_forgotten_decision_rejected(self):
        # D2 forgets D1, but the utility couples them: D2's best action
        # depends on a decision it does not observe
        data = {
            "variables": [
                {"id": "D1", "kind": "decision", "domain": ["a", "b"]},
                {"id": "D2", "kind": "decision", "domain": ["a", "b"]},
            ],
            "cpts": [],
            "utilities": [{"scope": ["D1", "D2"], "table": [1, 0, 0, 2]}],
            "decision_order": ["D1", "D2"],
            "information_sets": {"D1": [], "D2": []},
        }
        d = from_dict(data, nonforgetting=False)
        with pytest.raises(DiagramError, match=r"D2: rule depends on unobserved \['D1'\]"):
            solve_exact(d)
        with pytest.raises(DiagramError, match="unobserved"):
            elim_oom_id(convert(d, ConversionConfig(0.1)))
        assert solve_exact(from_dict(data)).meu == 2.0

    def test_mass_varying_with_decision_rejected(self):
        # a row summing to 1.1, let past validation, makes the probability
        # product of D's bucket depend on D
        data = {
            "variables": [
                {"id": "X", "kind": "chance", "domain": ["a", "b"]},
                {"id": "D", "kind": "decision", "domain": ["l", "r"]},
            ],
            "cpts": [{"child": "X", "parents": ["D"], "table": [0.6, 0.5, 0.5, 0.5]}],
            "utilities": [{"scope": ["D"], "table": [1, 0]}],
            "decision_order": ["D"],
            "information_sets": {"D": []},
        }
        with pytest.raises(DiagramError, match="decision bucket D varies with D"):
            solve_exact(mark_valid(from_dict(data)))

    def test_evidence_not_solvable(self):
        data = {
            "variables": [{"id": "X", "kind": "chance", "domain": ["a", "b"]}],
            "cpts": [{"child": "X", "parents": [], "table": [0.3, 0.7]}],
            "utilities": [{"scope": ["X"], "table": [1, 2]}],
            "decision_order": [],
            "information_sets": {},
            "evidence": {"X": "a"},
        }
        # Evidence is not part of the model: such a document never reaches
        # the solver, it is rejected when it is read.
        with pytest.raises(DiagramError, match="evidence"):
            solve_exact(from_dict(data))

    def test_guard(self):
        d = wildcatter()
        with pytest.raises(GuardExceeded):
            brute_force_meu(d, guard=10)

    def test_guard_counts_cells_beyond_int64(self):
        # 2**64 cells: a product in int64 wraps to 0 and would pass the guard
        chance = [f"X{i}" for i in range(64)]
        data = {
            "variables": [{"id": x, "kind": "chance", "domain": ["a", "b"]} for x in chance]
            + [{"id": "D", "kind": "decision", "domain": ["a", "b"]}],
            "cpts": [{"child": x, "parents": [], "table": [0.5, 0.5]} for x in chance],
            "utilities": [{"scope": ["D"], "table": [0, 1]}],
            "decision_order": ["D"],
            "information_sets": {"D": chance},
        }
        with pytest.raises(GuardExceeded):
            brute_force_meu(from_dict(data), guard=10**6)


def barren_diagram(nonforgetting: bool):
    """Decisions D1, D2, D3 in order; U1 over (B, D1) reaches A, B and D1,
    U2 over (C, D2) also C and D2.  E, F, G and the decision D3 are barren
    for both: no utility depends on them."""
    rng = np.random.default_rng(7)
    sizes = {"A": 2, "B": 3, "C": 2, "E": 2, "F": 3, "G": 2, "D1": 2, "D2": 3, "D3": 2}
    parents = {
        "A": [], "B": ["A"], "C": ["B", "D1"], "E": ["C", "D2"], "F": ["D2"],
        "G": ["D3", "E"],
    }

    def cpt(child):
        cells = math.prod(sizes[p] for p in parents[child])
        rows = rng.uniform(0.1, 1.0, size=(cells, sizes[child]))
        return (rows / rows.sum(axis=1, keepdims=True)).ravel().tolist()

    data = {
        "variables": [
            {
                "id": v,
                "kind": "decision" if v.startswith("D") else "chance",
                "domain": [str(i) for i in range(k)],
            }
            for v, k in sizes.items()
        ],
        "cpts": [
            {"child": c, "parents": ps, "table": cpt(c)} for c, ps in parents.items()
        ],
        "utilities": [
            {"scope": ["B", "D1"], "table": rng.normal(size=6).tolist()},
            {"scope": ["C", "D2"], "table": rng.normal(size=6).tolist()},
        ],
        "decision_order": ["D1", "D2", "D3"],
        "information_sets": {"D1": ["A"], "D2": ["C"], "D3": ["E"]},
    }
    return from_dict(data, nonforgetting=nonforgetting)


class TestBarrenVariables:
    ANCESTORS = [{"A", "B", "D1"}, {"A", "B", "C", "D1", "D2"}]

    @pytest.mark.parametrize("nonforgetting", [True, False], ids=["closed", "forgetting"])
    def test_each_utility_eliminates_its_ancestors_only(self, nonforgetting, monkeypatch):
        d = barren_diagram(nonforgetting)
        closure = apply_nonforgetting(d)
        assert (d.information_sets == closure.information_sets) == nonforgetting
        assert list(skeleton(d).kept) == self.ANCESTORS
        calls = []

        def recorded(diagram, made, lambdas, thetas, *steps):
            assert diagram is d  # no second diagram, such as the closure
            calls.append(([b.var for b in made.buckets], lambdas, thetas))
            return eliminate(diagram, made, lambdas, thetas, *steps)

        monkeypatch.setattr(exact, "eliminate", recorded)
        policies = random_policies(d, 12, seed=3)
        values = PolicyEvaluator(d).evaluate_many(policies)
        assert len(calls) == 2
        for (order, lambdas, thetas), kept in zip(calls, self.ANCESTORS):
            assert order == [v for v in legal_ordering(d) if v in kept]
            assert {f.scope[-1] for f in lambdas} == kept - set(d.decision_vars)
            assert all(set(f.scope) <= kept for f in lambdas + thetas)
        for policy, value in zip(policies, values):
            expected = policy_value(d, {x: r.actions for x, r in policy.rules.items()})
            assert abs(value - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("nonforgetting", [True, False], ids=["closed", "forgetting"])
    @pytest.mark.parametrize("case", ["wrong scope", "action 2"])
    def test_barren_decision_rule_still_checked(self, nonforgetting, case):
        d = barren_diagram(nonforgetting)
        good = random_policies(d, 2, seed=4)
        info = d.information_sets["D3"]
        rules = dict(good[1].rules)
        if case == "wrong scope":
            cells = len(rules["D3"].actions) // 2  # E is last and binary
            rules["D3"] = PolicyRule("D3", info[:-1], (0,) * cells)
        else:
            rules["D3"] = PolicyRule("D3", info, (2,) + rules["D3"].actions[1:])
        evaluator = PolicyEvaluator(d)
        with pytest.raises(DiagramError, match="D3"):
            evaluator.evaluate_many([good[0], Policy(rules=rules)])
        with pytest.raises(DiagramError, match="D3"):
            evaluator.evaluate(Policy(rules=rules))


class TestRandomAgreement:
    @pytest.mark.parametrize("i", range(30))
    def test_matches_brute_force(self, i):
        d = generate(small_params(i))
        sol = solve_exact(d)
        meu, winners = brute_force_meu(d, guard=200_000)
        scale = max(1.0, abs(meu))
        assert abs(sol.meu - meu) <= 1e-9 * scale
        assert abs(evaluate_policy(d, sol.policy) - sol.meu) <= 1e-9 * scale
        for value in PolicyEvaluator(d).evaluate_many(winners):
            assert abs(value - meu) <= 1e-9 * scale

    @pytest.mark.parametrize("nonforgetting", [True, False], ids=["closed", "forgetting"])
    @pytest.mark.parametrize("i", range(30))
    def test_random_policies_match_oracle(self, i, nonforgetting):
        d = generate(small_params(i), nonforgetting=nonforgetting)
        policies = random_policies(d, 6, seed=i)
        values = PolicyEvaluator(d).evaluate_many(policies)
        for policy, value in zip(policies, values):
            expected = policy_value(d, {x: r.actions for x, r in policy.rules.items()})
            assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_forgetting_diagrams_solved_or_rejected(self):
        # the one forgetting rule: a rule may read only what its decision
        # observes; a solved diagram has its closure's MEU (limited memory)
        outcomes = {"solved": 0, "rejected": 0}
        for i in range(60):
            d = generate(small_params(i), nonforgetting=False)
            closure = apply_nonforgetting(d)
            if d.information_sets == closure.information_sets:
                continue
            try:
                sol = solve_exact(d)
            except DiagramError as exc:
                # the named variables are observed in the closure only
                rejection = r"decision (\w+): rule depends on unobserved \[(.*)\]"
                decision, names = re.fullmatch(rejection, str(exc)).groups()
                for v in names.strip("'").split("', '"):
                    assert v not in d.information_sets[decision]
                    assert v in closure.information_sets[decision]
                outcomes["rejected"] += 1
                continue
            outcomes["solved"] += 1
            meu, _ = brute_force_meu(d, guard=200_000)
            scale = max(1.0, abs(meu))
            assert abs(sol.meu - meu) <= 1e-9 * scale
            assert abs(solve_exact(closure).meu - meu) <= 1e-9 * scale
            assert abs(evaluate_policy(d, sol.policy) - sol.meu) <= 1e-9 * scale
        assert min(outcomes.values()) >= 5, outcomes

    def test_forgetting_diagram_along_its_own_ordering(self):
        # Drill forgets Test: the diagram's ordering, which may differ from
        # its closure's, must score every policy
        d = wildcatter(nonforgetting=False)
        assert d.information_sets != apply_nonforgetting(d).information_sets
        policies = [
            wildcatter_policy(d, test, drill)
            for test in (0, 1)
            for drill in itertools.product((0, 1), repeat=3)
        ]
        values = PolicyEvaluator(d).evaluate_many(policies)
        for policy, value in zip(policies, values):
            expected = policy_value(d, {x: r.actions for x, r in policy.rules.items()})
            assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_forgetting_diagram_with_unlinked_closure(self):
        # D2 observes nothing and forgets X, which D1 observed: the utility
        # over D2 has no ancestor but D2, so X and D1 are barren for it
        data = {
            "variables": [
                {"id": "X", "kind": "chance", "domain": ["a", "b"]},
                {"id": "D1", "kind": "decision", "domain": ["l", "r"]},
                {"id": "D2", "kind": "decision", "domain": ["l", "r"]},
            ],
            "cpts": [{"child": "X", "parents": [], "table": [0.25, 0.75]}],
            "utilities": [{"scope": ["D2"], "table": [5.0, 1.0]}],
            "decision_order": ["D1", "D2"],
            "information_sets": {"D1": ["X"], "D2": []},
        }
        d = from_dict(data, nonforgetting=False)
        policies = [
            Policy(rules={
                "D1": PolicyRule("D1", ("X",), d1),
                "D2": PolicyRule("D2", (), (d2,)),
            })
            for d1 in itertools.product((0, 1), repeat=2)
            for d2 in (0, 1)
        ]
        values = PolicyEvaluator(d).evaluate_many(policies)
        assert values == [5.0, 1.0] * 4
        for policy, value in zip(policies, values):
            assert value == policy_value(d, {x: r.actions for x, r in policy.rules.items()})

    @pytest.mark.parametrize(
        "params",
        [small_params(i) for i in range(5)]
        + [
            GeneratorParams(n_c=n - 5, n_d=5, utility_class=c, seed=s)
            for n, c, s in [(25, "P", 1), (45, "M", 2), (80, "P", 3)]
        ],
        ids=lambda p: f"n{p.n_c + p.n_d}-{p.utility_class}-seed{p.seed}",
    )
    def test_batch_matches_one_at_a_time(self, params, monkeypatch):
        # n = 80: each table spans at most one bucket
        d = generate(params)
        policies = random_policies(d, 7, seed=params.seed) + [solve_exact(d).policy]
        evaluator = PolicyEvaluator(d)
        one_at_a_time = [evaluator.evaluate(p) for p in policies]
        assert evaluator.evaluate_many(policies) == one_at_a_time
        batch = stacked(d, policies)
        assert list(batch) == policies
        assert evaluator.evaluate_many(batch) == one_at_a_time
        split = evaluator.evaluate_many(policies[:3]) + evaluator.evaluate_many(
            policies[3:]
        )
        assert split == one_at_a_time
        # a smaller chunk bound: chunks of 3, 3 and 2 policies, then of one
        largest = oracle_largest_bucket(d, legal_ordering(d))
        for cells, chunk in [(3 * largest, 3), (1, 1)]:
            monkeypatch.setattr(exact, "_CHUNK_CELLS", cells)
            chunked = PolicyEvaluator(d)
            assert chunked._chunk == chunk
            assert chunked.evaluate_many(policies) == one_at_a_time
            assert chunked.evaluate_many(batch) == one_at_a_time

    @pytest.mark.parametrize(
        "params, nonforgetting",
        [
            (GeneratorParams(n_c=75, n_d=5, utility_class="P", seed=3), True),
            (GeneratorParams(n_c=30, n_d=5, utility_class="M", seed=4), False),
        ]
        + [(small_params(i), False) for i in (0, 3, 8)],
    )
    def test_tables_within_chunk_bound(self, params, nonforgetting, monkeypatch):
        # every table a step builds spans at most the largest bucket of the
        # diagram's ordering, once per policy of the chunk
        d = generate(params, nonforgetting=nonforgetting)
        largest = oracle_largest_bucket(d, legal_ordering(d))
        sizes = []

        def recorded(fn, table_of):
            def wrapper(*args):
                out = fn(*args)
                sizes.append(table_of(out).size)
                return out

            return wrapper

        monkeypatch.setattr(exact, "fold", recorded(exact.fold, lambda t: t))
        monkeypatch.setattr(exact, "_CHUNK_CELLS", 3 * largest)
        PolicyEvaluator(d).evaluate_many(random_policies(d, 8, seed=params.seed))
        assert sizes and max(sizes) <= 3 * largest

    def test_within_block_permutation_invariance(self):
        rng = random.Random(5)
        for i in range(6):
            d = generate(small_params(i))
            base = solve_exact(d).meu
            order = legal_ordering(d)
            # shuffle inside maximal runs of chance variables
            decisions = set(d.decision_vars)
            blocks: list[list[str]] = [[]]
            for v in order:
                if v in decisions:
                    blocks.append([v])
                    blocks.append([])
                else:
                    blocks[-1].append(v)
            for _ in range(3):
                shuffled: list[str] = []
                for block in blocks:
                    chunk = block[:]
                    if len(chunk) > 1 and chunk[0] not in decisions:
                        rng.shuffle(chunk)
                    shuffled.extend(chunk)
                if not is_legal_ordering(d, shuffled):
                    continue
                scale = max(1.0, abs(base))
                assert abs(solve_exact(along(d, shuffled)).meu - base) <= 1e-9 * scale


def test_recorded_ordering_reaches_eliminate(monkeypatch):
    # a shuffled legal ordering recorded on a copy reaches eliminate, as the
    # plans' buckets, from every solve of the copy and of its conversion, and
    # from its evaluator as restricted to each utility's ancestors
    base = generate(GeneratorParams(n_c=20, n_d=5, utility_class="M", seed=6))
    rng = random.Random(6)
    blocks = temporal_partition(base)
    shuffled = [v for block in blocks for v in rng.sample(block, len(block))]
    assert shuffled != legal_ordering(base)
    d = along(base, shuffled)
    o = along(convert(base, ConversionConfig(0.1)), shuffled)
    policy = solve_exact(d).policy
    orders = []

    def spy(module):
        run = module.eliminate

        def recorded(diagram, made, *rest):
            orders.append([b.var for b in made.buckets])
            return run(diagram, made, *rest)

        monkeypatch.setattr(module, "eliminate", recorded)

    spy(exact)
    spy(oom_solve)
    solve_exact(d)
    elim_oom_id(o)
    elim_oom_id(convert(d, ConversionConfig(0.1)))
    assert orders == [shuffled] * 3
    orders.clear()
    PolicyEvaluator(d).evaluate(policy)
    assert orders == [[v for v in shuffled if v in k] for k in skeleton(d).kept]


@pytest.mark.parametrize("seed", range(6))
def test_largest_bucket_recorded_with_ordering(seed):
    # min-fill counts the largest bucket of the ordering it records, which
    # convert hands on, and the checked skeleton is that record
    d = generate(
        GeneratorParams(n_c=10 + 5 * seed, n_d=5, utility_class="PM"[seed % 2], seed=seed)
    )
    record = checked_skeleton(d)
    assert record is d._skeleton
    assert record.largest_bucket == oracle_largest_bucket(d, legal_ordering(d))
    assert checked_skeleton(convert(d, ConversionConfig(0.1))) is record


def test_cell_limit_checked_before_elimination(monkeypatch):
    # each solve holds its ordering's largest bucket against the limit: at
    # the limit it runs, one cell under it the diagram is rejected
    d = wildcatter()
    largest = oracle_largest_bucket(d, legal_ordering(d))
    oom = convert(d, ConversionConfig(0.1))
    policy = solve_exact(d).policy
    runs = [
        lambda: solve_exact(d),
        lambda: PolicyEvaluator(d).evaluate(policy),
        lambda: elim_oom_id(oom),
    ]
    monkeypatch.setattr(ordering, "CELL_LIMIT", largest)
    for run in runs:
        run()
    monkeypatch.setattr(ordering, "CELL_LIMIT", largest - 1)
    message = f"has {largest} cells, more than the limit of {largest - 1}$"
    for run in runs:
        with pytest.raises(DiagramError, match=message):
            run()


class Sizes:
    """Domain sizes by variable, and the decisions with their information
    sets: all ``elimination.plan`` reads of a diagram."""

    def __init__(self, information_sets=None, **sizes):
        self.sizes = sizes
        self.information_sets = information_sets or {}
        self.decision_vars = tuple(self.information_sets)

    def domain_sizes(self, scope):
        return tuple(self.sizes[v] for v in scope)


@pytest.mark.parametrize(
    "lam, theta, expected",
    [
        ([[0.0, 0.0], [0.25, 0.75]], [[-3.0, -4.0], [-1.0, 2.0]], [0.0, 1.25]),
        ([0.0, 0.0], [-3.0, -4.0], 0.0),  # a message over no variable
    ],
)
def test_chance_step_zero_marginal_gives_positive_zero(lam, theta, expected):
    # where the marginal is zero the utility message is +0.0, not the -0.0
    # of 0 * theta for a negative theta nor the nan of 0 / 0, and the
    # division warns of nothing (pytest turns warnings into errors)
    lam, theta = np.array(lam), np.array(theta)
    scope = ("X", "Y")[2 - lam.ndim :]
    sizes = Sizes(Y=2, X=2)
    made = plan(sizes, ("Y", "X"), [Factor(scope, lam)], [Factor(scope, theta)], exact._spans)
    b = made.buckets[0]
    lam, theta = seen(lam, b.lambdas[0][1]), seen(theta, b.thetas[0][1])
    _, msg = exact._chance_step(None, b, [lam], [theta])
    assert msg.tobytes() == np.array(expected).tobytes()


def take_along_reference(rule, order_key, y, lambdas, thetas):
    """The decision step's selection by ``np.take_along_axis``: the product
    over the bucket's and the rule's variables, then each policy's action."""
    scope = tuple(
        sorted(
            {v for f in lambdas + thetas for v in f.scope} | set(rule.scope),
            key=order_key.__getitem__,
        )
    )
    table = product(lambdas + thetas, scope)
    if table.ndim == len(scope):
        table = table[np.newaxis]
    i = scope.index(y)
    chosen = np.take_along_axis(table, align(rule, scope), 1 + i).squeeze(1 + i)
    return scope[:i] + scope[i + 1 :], chosen


class TestSelectStep:
    # bucket of decision D over A, B (and C, read only by the rule); every
    # table is random, every action in range
    SIZES = {"A": 2, "B": 3, "C": 2}
    ORDER_KEY = {"D": 0, "A": 1, "B": 2, "C": 3}

    def tables(self, rng, k, batch, rule_scope):
        sizes = dict(self.SIZES, D=k)
        s = 5

        def table(scope, lead=()):
            return Factor(scope, rng.normal(size=lead + tuple(sizes[v] for v in scope)))

        lambdas = [table(("A", "D"))]
        thetas = [table(("B", "D", "A"), (s,) if batch else ())]
        rule = Factor(
            rule_scope,
            rng.integers(0, k, size=(s,) + tuple(sizes[v] for v in rule_scope)),
        )
        return rule, lambdas, thetas

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("batch", [False, True], ids=["batch-1", "batch-s"])
    @pytest.mark.parametrize(
        "rule_scope",
        [("A", "B"), ("B", "A"), ("A",), (), ("A", "C")],
        ids=["all", "transposed", "broadcast", "constant", "unread-var"],
    )
    def test_matches_take_along_axis(self, k, batch, rule_scope):
        rng = np.random.default_rng(k * 10 + batch)
        rule, lambdas, thetas = self.tables(rng, k, batch, rule_scope)
        sizes = Sizes({"D": rule_scope}, D=k, **self.SIZES)
        for lams, ths in [(lambdas, thetas), (lambdas, []), ([], thetas)]:
            bucket = plan(sizes, tuple(self.ORDER_KEY), lams, ths, exact._evaluated).buckets[0]
            lam_msg, theta_msg, none = exact._select_step(
                {"D": rule.table},
                sizes,
                bucket,
                [seen(f.table, v) for f, (_, v) in zip(lams, bucket.lambdas)],
                [seen(f.table, v) for f, (_, v) in zip(ths, bucket.thetas)],
            )
            assert none is None
            msg = theta_msg if ths else lam_msg
            assert (lam_msg if ths else theta_msg) is None
            scope, expected = take_along_reference(rule, self.ORDER_KEY, "D", lams, ths)
            assert bucket.out[1 if ths else 0] == scope
            assert msg.shape == expected.shape
            assert np.array_equal(msg, expected)

    def test_k3_policies_match_oracle(self):
        checked = 0
        for seed in range(6):
            params = GeneratorParams(
                n_c=6, n_d=2, k=3, p=1, r=2, a=3, utility_class="PM"[seed % 2], seed=seed
            )
            d = generate(params)
            if max(len(d.domain(x)) for x in d.decision_vars) < 3:
                continue
            checked += 1
            policies = random_policies(d, 8, seed=seed)
            values = PolicyEvaluator(d).evaluate_many(policies)
            for policy, value in zip(policies, values):
                expected = policy_value(d, {x: r.actions for x, r in policy.rules.items()})
                assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected))
        assert checked >= 3


def pinned_diagrams():
    # 20 diagrams at the benchmark's n = 80 settings
    for seed in range(20):
        yield generate(
            GeneratorParams(
                n_c=75, n_d=5, k=2, p=2, r=5, a=5, utility_class="PM"[seed % 2], seed=seed
            )
        )


def test_exact_outputs_pinned():
    # the MEU, the policy and the default ordering must not change a bit
    digest = hashlib.sha256()
    for d in pinned_diagrams():
        sol = solve_exact(d)
        rules = sol.policy.rules
        actions = {v: list(rules[v].actions) for v in sorted(rules)}
        fields = [sol.meu.hex(), json.dumps(actions), ",".join(legal_ordering(d))]
        digest.update("|".join(fields).encode() + b"\n")
    assert digest.hexdigest() == (
        "e58efcb02163698d6246155ebaf1b05b645d9a2668ef867c4abe80ca6bc65348"
    )


def test_evaluated_values_pinned():
    # the optimal policy's evaluated value, which depends on the evaluator's
    # elimination order and so may move in the last bits when that changes
    # (summing each utility over its ancestors only moved them by at most
    # 204 ulps, median 1)
    digest = hashlib.sha256()
    for d in pinned_diagrams():
        digest.update(evaluate_policy(d, solve_exact(d).policy).hex().encode() + b"\n")
    assert digest.hexdigest() == (
        "fcfa8dcb4b0cda7594f750ce9745ff465ed085c4e3b3c026307b4f710cd319a7"
    )


def test_optimal_policy_evaluates_to_meu():
    # the evaluator and the solver eliminate different variables in
    # different orders, yet must agree on the optimal policy's value
    generated = [
        generate(GeneratorParams(n_c=n - 5, n_d=5, utility_class=c, seed=n))
        for n in (25, 35, 45)
        for c in "PM"
    ]
    for d in list(pinned_diagrams()) + generated:
        sol = solve_exact(d)
        value = evaluate_policy(d, sol.policy)
        assert abs(value - sol.meu) <= 1e-12 * abs(sol.meu)


def first_action_policy(d) -> Policy:
    """The policy whose every rule takes each decision's first action."""
    rules = {}
    for x in d.decision_vars:
        info = d.information_sets[x]
        rules[x] = PolicyRule(x, info, (0,) * math.prod(d.domain_sizes(info)))
    return Policy(rules=rules)


def one_action_diagram(k: int, seed: int):
    """D has one action and observes Z and V, which no table of its bucket
    spans; E observes both and D.  V has ``k`` values, so a sum over V with
    Z's axis broadcast would sum pairwise where numpy sums the full table
    slice by slice."""
    rng = np.random.default_rng(seed)
    data = {
        "variables": [
            {"id": v, "kind": kind, "domain": [str(i) for i in range(n)]}
            for v, kind, n in [("D", "decision", 1), ("Z", "chance", 3), ("V", "chance", k),
                               ("E", "decision", 2)]
        ],
        "cpts": [
            {"child": "Z", "parents": [], "table": rng.dirichlet([1.0] * 3).tolist()},
            {"child": "V", "parents": [], "table": rng.dirichlet([1.0] * k).tolist()},
        ],
        "utilities": [
            {"scope": ["D"], "table": [rng.normal()]},
            {"scope": ["E", "Z"], "table": rng.normal(size=6).tolist()},
        ],
        "decision_order": ["D", "E"],
        "information_sets": {"D": ["Z", "V"], "E": ["Z", "V", "D"]},
    }
    return from_dict(data)


@functools.cache
def evaluator_cases() -> tuple:
    """Diagrams with a policy to score: the pinned ones and generated ones
    at n = 6 to 80 with 0 to 3 parents (3 only to n = 25: wider ones pass
    the cell limit at n = 80), closed at their optimum, forgetting at the
    first action; the wildcatter both ways; and one-action decisions."""
    cases = [(d, solve_exact(d).policy) for d in pinned_diagrams()]
    for nonforgetting in (True, False):
        d = wildcatter(nonforgetting)
        cases.append((d, solve_exact(d).policy if nonforgetting else first_action_policy(d)))
    for n, p, seed in itertools.product((6, 12, 25, 45, 80), range(4), range(2)):
        if p == 3 and n > 25:
            continue
        n_d = min(5, n // 3)
        params = GeneratorParams(
            n_c=n - n_d, n_d=n_d, p=p, r=min(5, n - n_d), a=min(5, n),
            utility_class="PM"[seed], seed=100 * n + 10 * p + seed,
        )
        closed = generate(params)
        forgetting = generate(params, nonforgetting=False)
        cases.append((closed, solve_exact(closed).policy))
        cases.append((forgetting, first_action_policy(forgetting)))
    for k, seed in itertools.product((3, 9, 17), range(2)):
        d = one_action_diagram(k, seed)
        cases.append((d, solve_exact(d).policy))
    return tuple(cases)


def score_every_case():
    for d, policy in evaluator_cases():
        evaluate_policy(d, policy)
        PolicyEvaluator(d).evaluate_many(random_policies(d, 3, seed=0))


def test_evaluator_parts_end_in_one_utility(monkeypatch):
    # as the PolicyEvaluator docstring argues: each part ends in the one
    # root message of its utility and sends no probability message to the
    # root, and no planned bucket, decisions' included, is empty; so
    # evaluate_many adds root utilities alone and _select_step needs no
    # branch for a bucket without tables
    evaluator_cases()  # its solves run eliminate too: made before the spy
    runs = []
    real = exact.eliminate

    def spy(diagram, made, lambdas, thetas, chance_step, decision_step):
        run = real(diagram, made, lambdas, thetas, chance_step, decision_step)
        runs.append((made, run))
        return run

    monkeypatch.setattr(exact, "eliminate", spy)
    score_every_case()
    assert len(runs) >= 2 * len(evaluator_cases())
    decisions = 0
    for made, run in runs:
        assert len(run.root_thetas) == 1 and run.root_lambdas == []
        assert all(b.lambdas or b.thetas for b in made.buckets)
        decisions += sum(b.decision for b in made.buckets)
    assert decisions


def test_evaluator_decision_buckets_hold_their_information_sets():
    # _select_step views each rule, a table over its decision's information
    # set, over the decision bucket's scope less the decision, so that scope
    # must hold the whole set; and a skeleton caches plans and nothing else
    decisions = 0
    for d, _ in evaluator_cases():
        PolicyEvaluator(d)
        for solve in (solve_exact, lambda d: elim_oom_id(convert(d, ConversionConfig(0.5)))):
            try:
                solve(d)
            except DiagramError as e:  # a forgetting diagram's optimal rule, after the plan
                assert "rule depends on unobserved" in str(e)
        plans = ordering.skeleton(d).plans
        assert len(plans) == 2 + len(d.utilities)
        assert all(isinstance(made, Plan) for made in plans.values())
        for i, _ in enumerate(d.utilities):
            for b in plans[exact._evaluated, i].buckets:
                if b.decision:
                    assert set(d.information_sets.get(b.var, ())) <= set(b.scope[1:])
                    decisions += 1
    assert decisions


def test_evaluator_tables_span_their_scopes(monkeypatch):
    # every product the evaluator sums spans its bucket's scope at full
    # size, so np.add.reduce sums it as numpy sums the full table: no
    # size-1 axis stands for more cells, as a stored message's would in
    # solve_exact.  A one-action decision's message too is broadcast over
    # the variables its rule reads.
    evaluator_cases()
    real = exact._sum_step
    sums = []

    def spy(diagram, b, lambdas, thetas):
        shape = np.broadcast_shapes(*[t.shape for t in lambdas + thetas])
        sums.append(shape[len(shape) - len(b.scope) :] == diagram.domain_sizes(b.scope))
        return real(diagram, b, lambdas, thetas)

    monkeypatch.setattr(exact, "_sum_step", spy)
    score_every_case()
    assert sums and all(sums)


@pytest.mark.parametrize("n, cls", itertools.product((25, 45, 80), "PM"))
def test_scaled_utilities_scale_the_meu(n, cls):
    # multiplying every utility by a power of two multiplies every sum,
    # quotient and max of the elimination by it exactly
    for seed in range(2):
        d = generate(GeneratorParams(n_c=n - 5, n_d=5, utility_class=cls, seed=seed))
        sol = solve_exact(d)
        for factor in (2.0, 0.25, 1024.0):
            utilities = tuple(UtilityFunction(u.scope, u.table * factor) for u in d.utilities)
            scaled = solve_exact(dataclasses.replace(d, utilities=utilities))
            assert scaled.meu.hex() == (sol.meu * factor).hex()
            assert scaled.policy == sol.policy


# ---------------------------------------------------------------------------
# solve_exact stores probability messages that are one in every cell as a
# single broadcast cell; it must agree bit for bit with steps that keep
# every table at its full size


def oracle_chance_step(diagram, order_key, y, lambdas, thetas):
    """The chance step with every table materialized over its scope."""
    assert lambdas, f"chance bucket {y} has no probability component"
    lam = fold(lambdas, order_key)
    lam_msg = reduce_out(lam, y, np.ndarray.sum)
    theta_msg = None
    if thetas:
        theta = thetas[0] if len(thetas) == 1 else fold(thetas, order_key, np.add)
        num = reduce_out(fold([lam, theta], order_key), y, np.ndarray.sum)
        marginal = align(lam_msg, num.scope)
        table = np.asarray(num.table)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(table, marginal, out=table)
        np.copyto(table, 0.0, where=marginal == 0)
        theta_msg = Factor(num.scope, table)
    return lam_msg, theta_msg


def oracle_decision_step(diagram, order_key, y, lambdas, thetas):
    """The decision step with every table materialized over its scope."""
    lam_msg = None
    if lambdas:
        lam = fold(lambdas, order_key)
        lam_msg = reduce_out(lam, y, np.ndarray.max)
        spread = lam_msg.table - reduce_out(lam, y, np.ndarray.min).table
        bound = exact._mass_tolerance(diagram) * max(1.0, np.abs(lam.table).max())
        if not np.all(spread <= bound):
            raise DiagramError(f"probability component in decision bucket {y} varies")
    if not thetas:
        return lam_msg, None, Factor((), np.zeros((), dtype=int))
    combined = fold(thetas, order_key, np.add)
    return (
        lam_msg,
        reduce_out(combined, y, np.ndarray.max),
        reduce_out(combined, y, np.ndarray.argmax),
    )


def executed(d):
    """``solve_exact``'s steps run on the diagram's recorded exact plan, and
    the cells of the largest message they return, read off its trailing
    axes: a broadcast axis stores one.  The executor's cut drops only
    size-1 axes, so the message it files stores as many."""
    solve_exact(d)  # records the plan
    made = checked_skeleton(d).plans[exact._spans]
    cells = [0]

    def tallied(step):
        def run(diagram, b, lambdas, thetas):
            out = step(diagram, b, lambdas, thetas)
            for msg, scope in zip(out, b.out):  # the messages, not the rule
                if scope is not None:
                    cells.append(math.prod(msg.shape[msg.ndim - len(b.scope) + 1 :]))
            return out

        return run

    steps = tallied(exact._chance_step), tallied(exact._decision_step)
    return eliminate(d, made, d.cpts, d.utilities, *steps), max(cells)


def bits(d, run):
    """A run's root tables as hex floats and its rules expanded over their
    information sets."""
    roots = [[float(t).hex() for t in ts] for ts in (run.root_lambdas, run.root_thetas)]
    rules = {v: expand_rule(d, v, run.rules[v])[1].tolist() for v in d.decision_vars}
    return roots, rules


def assert_matches_oracle(d) -> tuple[int, int]:
    """``solve_exact``'s MEU and actions are the oracle steps' bit for bit,
    and its plan stores the largest message the per-call driver stored;
    returns the cells of the largest message it and the oracle steps store."""
    run, cells = executed(d)
    oracle = run_steps(d, oracle_chance_step, oracle_decision_step)
    expected = bits(d, oracle)
    assert bits(d, run) == expected
    assert cells == run_steps(d, stored_chance_step, stored_decision_step).max_cells
    meu = 0.0
    for theta in oracle.root_thetas:
        meu += float(theta)
    sol = solve_exact(d)
    assert sol.meu.hex() == meu.hex()
    for v, actions in expected[1].items():
        assert list(sol.policy.rules[v].actions) == actions
    return cells, oracle.max_cells


def test_generated_match_oracle():
    # the benchmark's settings at n = 25, 45 and 80; at n = 80 barren
    # subtrees send messages of ones, so some largest message shrinks
    shrunk = 0
    for n, c, seed in itertools.product((25, 45, 80), "PM", range(4)):
        d = generate(
            GeneratorParams(n_c=n - 5, n_d=5, k=2, p=2, r=5, a=5, utility_class=c, seed=seed)
        )
        stored, full = assert_matches_oracle(d)
        assert stored <= full
        shrunk += n == 80 and stored < full
    assert shrunk


def remade(d, k: int, one_value: bool, seed: int):
    """``d``'s graph with domains of size k or 2 (and, if ``one_value``,
    a one-value chance variable with children) and new tables: CPT rows
    that sum to exactly one (dyadic, zeros as +0.0 or -0.0) or are
    normalized draws with zeros, utilities of both signs with zeros."""
    rng = np.random.default_rng(seed)
    data = to_dict(d)
    size = {v["id"]: int(rng.choice([k, 2])) for v in data["variables"]}
    if one_value:
        parents = {p for c in data["cpts"] for p in c["parents"]}
        chance = [c["child"] for c in data["cpts"] if c["child"] in parents]
        size[chance[int(rng.integers(len(chance)))]] = 1
    for v in data["variables"]:
        v["domain"] = [str(i) for i in range(size[v["id"]])]

    def row(k):
        if rng.random() < 0.5:
            cuts = np.sort(rng.integers(0, 65, size=k - 1))
            entries = np.diff(np.concatenate([[0], cuts, [64]])) / 64
            return np.where(entries == 0, rng.choice([0.0, -0.0]), entries)
        entries = rng.random(k) * (rng.random(k) < 0.8)
        entries[int(rng.integers(k))] += 0.5
        return entries / entries.sum()

    for cpt in data["cpts"]:
        rows = math.prod(size[p] for p in cpt["parents"])
        cpt["table"] = np.concatenate([row(size[cpt["child"]]) for _ in range(rows)]).tolist()
    for u in data["utilities"]:
        cells = math.prod(size[v] for v in u["scope"])
        values = rng.normal(size=cells) * 10
        u["table"] = np.where(rng.random(cells) < 0.2, -0.0, values).tolist()
    return from_dict(data)


@pytest.mark.parametrize("k, one_value", [(3, False), (9, False), (3, True), (9, True)])
def test_remade_match_oracle(k, one_value):
    # generated graphs with wider domains, a one-value variable, zero
    # entries of both signs and utilities of both signs
    for seed in range(12):
        base = generate(
            GeneratorParams(
                n_c=8, n_d=3, k=2, p=2, r=3, a=3, utility_class="PM"[seed % 2], seed=seed
            )
        )
        assert_matches_oracle(remade(base, k, one_value, seed))


def wide_root_diagram(k: int, seed: int):
    """Y (k values) is a root and B, a child of Y and Z, is barren, so its
    bucket sends ones over (Y, Z), stored as one cell.  Y's bucket then
    holds P(Y), a table with no later axis of more than one cell, where the
    full one has Z's two.  D observes X and its child Z, which is 1 only
    when X is 2, a value of probability zero: a zero marginal in X's
    bucket."""
    rng = np.random.default_rng(seed)
    py = rng.random(k) + 0.1
    px = np.append(rng.dirichlet([1.0, 1.0]), 0.0)
    data = {
        "variables": [
            {"id": v, "kind": kind, "domain": [str(i) for i in range(n)]}
            for v, kind, n in [
                ("Y", "chance", k), ("Z", "chance", 2), ("B", "chance", 2),
                ("X", "chance", 3), ("D", "decision", 2),
            ]
        ],
        "cpts": [
            {"child": "Y", "parents": [], "table": (py / py.sum()).tolist()},
            {"child": "X", "parents": [], "table": px.tolist()},
            {"child": "Z", "parents": ["X"], "table": [1.0, 0.0, 1.0, 0.0, 0.0, 1.0]},
            {"child": "B", "parents": ["Y", "Z"], "table": [0.5, 0.5] * (2 * k)},
        ],
        "utilities": [
            {"scope": ["Y", "D"], "table": (rng.normal(size=2 * k) * 10).tolist()},
            {"scope": ["X", "D"], "table": (rng.normal(size=6) - 1).tolist()},
        ],
        "decision_order": ["D"],
        "information_sets": {"D": ["Z", "X"]},
    }
    return from_dict(data)


@pytest.mark.parametrize("k", [3, 9])
def test_wide_root_matches_oracle(k):
    # numpy sums an axis of 8 or more cells pairwise when it is the only
    # one of more than one cell, and the full table's axis 0 slice by
    # slice, so the stored P(Y) must be summed as the full table would be
    for seed in range(30):
        stored, full = assert_matches_oracle(wide_root_diagram(k, seed))
        assert stored < full == 2 * k


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 17])
@pytest.mark.parametrize("lead", [(), (1,), (3,)], ids=["no batch", "batch 1", "batch 3"])
def test_sum_out_sums_as_materialized(k, lead):
    # every pattern of broadcast axes after the bucket variable's own, which
    # its CPT or a distribution over it always spans, over later axes with
    # one and with several cells, -0.0 entries too
    rng = np.random.default_rng(k)
    sizes = Sizes(Y=k, X=3, Z=1, W=2)
    scopes = [("Y",), ("Y", "X"), ("Y", "Z"), ("Y", "Z", "X"), ("Y", "X", "W")]
    for scope, _ in itertools.product(scopes, range(10)):
        full = lead + sizes.domain_sizes(scope)
        for later in itertools.product([False, True], repeat=len(scope) - 1):
            mask = (False, *later)
            shape = lead + tuple(1 if m else n for m, n in zip(mask, full[len(lead) :]))
            values = rng.random(shape) * 10.0 ** rng.integers(-17, 1, size=shape)
            table = np.where(rng.random(shape) < 0.2, -0.0, values)
            expected = np.broadcast_to(table, full).copy().sum(len(lead))
            got = np.broadcast_to(sum_out(sizes, table, len(scope), scope[1:]), expected.shape)
            assert got.tobytes() == expected.tobytes(), (scope, mask)


@pytest.mark.slow
def test_benchmark_pool_matches_oracle():
    # perfbench's seed-0 exact-solve pool: n = 80, generator seeds from
    # 8,000,000, classes P and M alternating
    for j in range(300):
        params = GeneratorParams(
            n_c=75, n_d=5, k=2, p=2, r=5, a=5, utility_class="PM"[j % 2], seed=8_000_000 + j
        )
        assert_matches_oracle(generate(params))
