import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from oomid import diagram as diagram_module
from oomid import exact
from oomid.diagram import (
    DiagramError,
    GuardExceeded,
    Policy,
    PolicyBatch,
    PolicyRule,
    apply_nonforgetting,
    from_dict,
    to_dict,
    wildcatter,
)
from oomid.exact import (
    PolicyEvaluator,
    brute_force_meu,
    evaluate_policy,
    policy_value,
    solve_exact,
)
from oomid.generator import GeneratorParams, generate
from oomid.oom_solve import elim_oom_id
from oomid.ordering import is_legal_ordering, largest_bucket, legal_ordering


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
        sol = solve_exact(wildcatter())
        d = wildcatter()
        assert sol.policy.action_for(d, "Test", {}) == "yes"
        for seismic, expected in [("closed", "yes"), ("open", "yes"), ("diffuse", "no")]:
            assert (
                sol.policy.action_for(d, "Drill", {"Test": "yes", "Seismic": seismic})
                == expected
            )

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
        # D's bucket is empty: no table ever gains a batch axis, and the
        # batch still gets one value per policy
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

    def test_forgetting_diagrams_evaluated_not_solved(self):
        forgetting = 0
        for i in range(30):
            d = generate(small_params(i), nonforgetting=False)
            if d.information_sets == apply_nonforgetting(d).information_sets:
                continue
            forgetting += 1
            with pytest.raises(DiagramError, match="non-forgetting"):
                solve_exact(d)
            policies = random_policies(d, 3, seed=i)
            assert len(PolicyEvaluator(d).evaluate_many(policies)) == 3
        assert forgetting >= 5

    @pytest.mark.parametrize(
        "params",
        [small_params(i) for i in range(10)]
        + [
            GeneratorParams(n_c=n - 5, n_d=5, utility_class=c, seed=n)
            for n, c in [(25, "P"), (45, "M")]
        ],
        ids=lambda p: f"n{p.n_c + p.n_d}-{p.utility_class}-seed{p.seed}",
    )
    def test_caller_ordering_bit_equal_to_default(self, params):
        # a closed diagram is its own closure, so its ordering is the default
        d = generate(params)
        policies = random_policies(d, 6, seed=params.seed)
        default = PolicyEvaluator(d).evaluate_many(policies)
        assert PolicyEvaluator(d, legal_ordering(d)).evaluate_many(policies) == default

    def test_forgetting_diagram_along_its_own_ordering(self):
        # Drill forgets Test: the diagram's ordering, legal for its closure
        # too, may differ from the closure's, and must score every policy
        d = wildcatter(nonforgetting=False)
        assert d.information_sets != apply_nonforgetting(d).information_sets
        policies = [
            wildcatter_policy(d, test, drill)
            for test in (0, 1)
            for drill in itertools.product((0, 1), repeat=3)
        ]
        values = PolicyEvaluator(d, legal_ordering(d)).evaluate_many(policies)
        for policy, value in zip(policies, values):
            expected = policy_value(d, {x: r.actions for x, r in policy.rules.items()})
            assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected))

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
        largest = largest_bucket(d, legal_ordering(d))
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
        # closure's ordering, once per policy of the chunk
        d = generate(params, nonforgetting=nonforgetting)
        closure = apply_nonforgetting(d)
        largest = largest_bucket(closure, legal_ordering(closure))
        sizes = []

        def recorded(fn, table_of):
            def wrapper(*args):
                out = fn(*args)
                sizes.append(table_of(out).size)
                return out

            return wrapper

        monkeypatch.setattr(exact, "fold", recorded(exact.fold, lambda f: f.table))
        monkeypatch.setattr(exact, "product", recorded(exact.product, lambda t: t))
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
                assert abs(solve_exact(d, order=shuffled).meu - base) <= 1e-9 * scale


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
    digest = hashlib.sha256()
    for d in pinned_diagrams():
        digest.update(evaluate_policy(d, solve_exact(d).policy).hex().encode() + b"\n")
    assert digest.hexdigest() == (
        "9facd9fa12f12cb6eff058d8b22d2635de737f5bab8d024a609734bd3024e209"
    )
