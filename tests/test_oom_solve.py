import itertools
import random

import pytest

from oomid.convert import ConversionConfig, convert
from oomid.diagram import DiagramError, GuardExceeded, from_dict, load, save, wildcatter
from oomid.exact import evaluate_policy, solve_exact
from oomid.generator import GeneratorParams, generate
from oomid.oom_solve import PolicySet, brute_force_oom, elim_oom_id
from oomid.ordering import induced_width, legal_ordering
from oomid.sets import equiv
from oomid.values import ZERO, add, mul


def small_params(i: int) -> GeneratorParams:
    shapes = [
        dict(n_c=4, n_d=2, k=2, p=1, r=2, a=3),
        dict(n_c=6, n_d=1, k=2, p=2, r=3, a=4),
        dict(n_c=5, n_d=2, k=2, p=1, r=3, a=3),
        dict(n_c=6, n_d=2, k=2, p=1, r=2, a=4),
        dict(n_c=5, n_d=1, k=3, p=1, r=2, a=2),
    ]
    shape = shapes[i % len(shapes)]
    return GeneratorParams(seed=2000 + i, utility_class="PM"[i % 2], **shape)


def wildcatter_oom(eps: float):
    return convert(wildcatter(), ConversionConfig(eps))


def drill_cells(policies: PolicySet, diagram) -> dict:
    scope = policies.scopes["Drill"]
    labels = [diagram.domain(v) for v in scope]
    out = {}
    for cfg, cell in zip(itertools.product(*labels), policies.cells["Drill"]):
        key = dict(zip(scope, cfg))
        out[(key["Seismic"], key["Test"])] = frozenset(
            diagram.domain("Drill")[i] for i in cell
        )
    return out


# expected optimal action sets per epsilon: (seismic, test) -> actions
TABLE_CELLS = {
    0.1: {
        ("closed", "yes"): {"yes"},
        ("open", "yes"): {"yes"},
        ("diffuse", "yes"): {"no"},
        ("closed", "no"): {"yes"},
        ("open", "no"): {"yes"},
        ("diffuse", "no"): {"yes"},
    },
    0.01: {
        ("closed", "yes"): {"yes"},
        ("open", "yes"): {"yes"},
        ("diffuse", "yes"): {"yes", "no"},
        ("closed", "no"): {"yes"},
        ("open", "no"): {"yes"},
        ("diffuse", "no"): {"yes"},
    },
    0.001: {pair: {"yes", "no"} for pair in itertools.product(
        ("closed", "open", "diffuse"), ("yes", "no")
    )},
}

EXPECTED_COUNTS = {0.1: 2, 0.01: 4, 0.001: 128}


class TestWildcatterPolicySets:
    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_drill_cells_and_counts(self, eps):
        o = wildcatter_oom(eps)
        sol = elim_oom_id(o)
        assert drill_cells(sol.policies, o) == {
            k: frozenset(v) for k, v in TABLE_CELLS[eps].items()
        }
        test_cell = sol.policies.cells["Test"][0]
        assert test_cell == frozenset({0, 1})  # testing ties with not testing
        assert sol.policies.count() == EXPECTED_COUNTS[eps]

    def test_monotone_refinement(self):
        # coarser epsilon keeps a subset of the optimal actions, cell by cell
        sets = {
            eps: elim_oom_id(wildcatter_oom(eps)).policies
            for eps in (0.1, 0.01, 0.001)
        }
        for finer, coarser in [(0.1, 0.01), (0.01, 0.001)]:
            a, b = sets[finer], sets[coarser]
            for d in a.decisions:
                assert a.scopes[d] == b.scopes[d]
                for cell_a, cell_b in zip(a.cells[d], b.cells[d]):
                    assert cell_a <= cell_b

    def test_computed_meus(self):
        # magnitudes overshoot the numeric MEU's bracket at the coarser
        # epsilons: the soaking branch (probability near 0.2, payoff 200)
        # carries an order-(-2) product that nothing cancels
        assert str(elim_oom_id(wildcatter_oom(0.1)).meu) == "{(+,-2)}"
        assert str(elim_oom_id(wildcatter_oom(0.01)).meu) == "{(+,-1)}"
        assert str(elim_oom_id(wildcatter_oom(0.001)).meu) == "{(+-,0),(+-,inf)}"

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_oracle_agreement(self, eps):
        o = wildcatter_oom(eps)
        sol = elim_oom_id(o)
        oracle = brute_force_oom(o)
        assert equiv(sol.meu, oracle.meu)
        assert sol.policies == oracle.policies

    def test_lambda_constant_in_test_decision(self):
        # the probability message reaching the first decision is the same
        # for both of its actions here
        o = wildcatter_oom(0.1)
        seismic = next(c for c in o.cpts if c.child == "Seismic")
        oil = next(c for c in o.cpts if c.child == "Oil")
        per_test = []
        for t in range(2):
            total = ZERO
            for s in range(3):
                for ov in range(3):
                    p = mul(oil.table[ov], seismic.table[(ov * 2 + t) * 3 + s])
                    total = add(total, p)
            per_test.append(total)
        assert per_test[0] == per_test[1]


class TestSingleDecision:
    def test_sign_separates_actions(self):
        data = {
            "variables": [{"id": "D", "kind": "decision", "domain": ["a", "b"]}],
            "cpts": [],
            "utilities": [{"scope": ["D"], "table": ["{(+,-1)}", "{(-,-1)}"]}],
            "decision_order": ["D"],
            "information_sets": {"D": []},
        }
        o = from_dict(data)
        sol = elim_oom_id(o)
        assert sol.policies.cells["D"] == (frozenset({0}),)
        assert str(sol.meu) == "{(+,-1)}"
        assert brute_force_oom(o).policies == sol.policies

    def test_incomparable_actions_both_kept(self):
        data = {
            "variables": [{"id": "D", "kind": "decision", "domain": ["a", "b"]}],
            "cpts": [],
            "utilities": [{"scope": ["D"], "table": ["{(+-,0)}", "{(+-,inf)}"]}],
            "decision_order": ["D"],
            "information_sets": {"D": []},
        }
        sol = elim_oom_id(from_dict(data))
        assert sol.policies.cells["D"] == (frozenset({0, 1}),)
        assert str(sol.meu) == "{(+-,0),(+-,inf)}"


class TestRandomAgreement:
    @pytest.mark.parametrize("i", range(30))
    def test_elim_matches_oracle(self, i):
        d = generate(small_params(i))
        eps = [0.5, 0.1, 0.01][i % 3]
        o = convert(d, ConversionConfig(eps))
        order = legal_ordering(o)
        sol = elim_oom_id(o, order=order)
        oracle = brute_force_oom(o, order=order)
        assert equiv(sol.meu, oracle.meu)
        assert sol.policies == oracle.policies

    @pytest.mark.parametrize("i", range(6))
    def test_meu_invariant_under_block_shuffles(self, i):
        d = generate(small_params(i))
        o = convert(d, ConversionConfig(0.1))
        base = elim_oom_id(o).meu
        order = legal_ordering(o)
        rng = random.Random(11 + i)
        decisions = set(o.decision_vars)
        blocks: list[list[str]] = [[]]
        for v in order:
            if v in decisions:
                blocks.append([v])
                blocks.append([])
            else:
                blocks[-1].append(v)
        for _ in range(3):
            shuffled = []
            for block in blocks:
                chunk = block[:]
                if chunk and chunk[0] not in decisions:
                    rng.shuffle(chunk)
                shuffled.extend(chunk)
            assert elim_oom_id(o, order=shuffled).meu == base

    @pytest.mark.parametrize("i", range(10))
    def test_table_cells_within_width_bound(self, i):
        d = generate(small_params(i))
        o = convert(d, ConversionConfig(0.1))
        order = legal_ordering(o)
        width = induced_width(o, order)
        k = max(len(v.domain) for v in o.variables)
        sol = elim_oom_id(o, order=order)
        assert sol.max_table_cells <= k ** (width + 1)


class TestPolicySet:
    def make(self, eps=0.001):
        o = wildcatter_oom(eps)
        return o, elim_oom_id(o).policies

    def test_count_is_product(self):
        _, ps = self.make()
        assert ps.count() == 128

    def test_sample_distinct_when_possible(self):
        _, ps = self.make()
        policies, replaced = ps.sample(10, seed=3)
        assert not replaced
        assert len(policies) == 10
        keys = {
            tuple(sorted((d, r.actions) for d, r in p.rules.items()))
            for p in policies
        }
        assert len(keys) == 10

    def test_sample_deterministic(self):
        _, ps = self.make()
        a, _ = ps.sample(5, seed=42)
        b, _ = ps.sample(5, seed=42)
        assert a == b

    def test_sample_mapping_pinned(self):
        # pinned draws: the seed's index stream and the index -> policy
        # mapping must not change, or sampled results and CSV bytes would
        _, ps = self.make()
        policies, _ = ps.sample(5, seed=42)
        drawn = [(p.rules["Test"].actions, p.rules["Drill"].actions) for p in policies]
        assert drawn == [
            ((0,), (0, 1, 1, 1, 0, 0)),
            ((0,), (1, 1, 0, 0, 0, 0)),
            ((0,), (1, 1, 0, 0, 0, 1)),
            ((0,), (1, 1, 1, 1, 1, 0)),
            ((1,), (0, 0, 1, 1, 1, 0)),
        ]

    def test_sample_with_replacement_flagged(self):
        _, ps = self.make(eps=0.1)
        assert ps.count() == 2
        policies, replaced = ps.sample(5, seed=0)
        assert replaced and len(policies) == 5

    def test_singleton_set(self):
        data = {
            "variables": [{"id": "D", "kind": "decision", "domain": ["a", "b"]}],
            "cpts": [],
            "utilities": [{"scope": ["D"], "table": ["{(+,0)}", "{(-,0)}"]}],
            "decision_order": ["D"],
            "information_sets": {"D": []},
        }
        ps = elim_oom_id(from_dict(data)).policies
        assert ps.count() == 1
        policies, replaced = ps.sample(1, seed=0)
        assert not replaced
        assert policies[0].rules["D"].actions == (0,)

    def test_sampled_policies_evaluate_in_source_diagram(self):
        o, ps = self.make()
        d = wildcatter()
        policies, _ = ps.sample(16, seed=7)
        values = {round(evaluate_policy(d, p), 6) for p in policies}
        assert all(isinstance(v, float) for v in values)
        assert len(values) > 1  # the 128 tied policies differ numerically

    def test_rejects_bad_sample_size(self):
        _, ps = self.make()
        with pytest.raises(ValueError):
            ps.sample(0)


ILLEGAL_ORDERS = {
    "reversed": lambda order: order[::-1],
    "missing": lambda order: order[1:],
    "duplicated": lambda order: order + order[:1],
}


@pytest.mark.parametrize("mutate", ILLEGAL_ORDERS.values(), ids=ILLEGAL_ORDERS.keys())
@pytest.mark.parametrize(
    "solve, diagram",
    [
        (solve_exact, wildcatter()),
        (elim_oom_id, wildcatter_oom(0.1)),
        (brute_force_oom, wildcatter_oom(0.1)),
    ],
    ids=["solve_exact", "elim_oom_id", "brute_force_oom"],
)
def test_illegal_order_rejected(solve, diagram, mutate):
    with pytest.raises(DiagramError, match="not a legal elimination ordering"):
        solve(diagram, order=mutate(legal_ordering(diagram)))


class TestGuardsAndIO:
    def test_oracle_guard(self):
        d = generate(GeneratorParams(n_c=18, n_d=2, k=2, p=2, r=3, a=3, seed=1))
        o = convert(d, ConversionConfig(0.1))
        with pytest.raises(GuardExceeded):
            brute_force_oom(o, guard=1000)

    def test_native_file_solve(self, tmp_path):
        o = wildcatter_oom(0.1)
        path = tmp_path / "w.json"
        save(o, path)
        sol = elim_oom_id(load(path))
        assert str(sol.meu) == "{(+,-2)}"
        assert sol.policies.count() == 2
