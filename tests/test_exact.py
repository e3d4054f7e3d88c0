import random

import pytest

from oomid.diagram import (
    DiagramError,
    GuardExceeded,
    Policy,
    PolicyRule,
    from_dict,
    wildcatter,
)
from oomid.exact import brute_force_meu, evaluate_policy, solve_exact
from oomid.generator import GeneratorParams, generate
from oomid.ordering import is_legal_ordering, legal_ordering


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


class TestRandomAgreement:
    @pytest.mark.parametrize("i", range(30))
    def test_matches_brute_force(self, i):
        d = generate(small_params(i))
        sol = solve_exact(d)
        meu, _ = brute_force_meu(d, guard=200_000)
        scale = max(1.0, abs(meu))
        assert abs(sol.meu - meu) <= 1e-9 * scale
        assert abs(evaluate_policy(d, sol.policy) - sol.meu) <= 1e-9 * scale

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
