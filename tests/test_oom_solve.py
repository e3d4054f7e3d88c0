import hashlib
import itertools
import math
import random
import re

import numpy as np
import pytest

from oomid.convert import ConversionConfig, convert
from oomid.diagram import (
    CPT,
    DiagramError,
    GuardExceeded,
    InfluenceDiagram,
    OOMInfluenceDiagram,
    UtilityFunction,
    apply_nonforgetting,
    from_dict,
    load,
    save,
    wildcatter,
)
from oomid.exact import PolicyEvaluator, evaluate_policy, solve_exact
from oomid.generator import GeneratorParams, generate
from oomid.oom_solve import PolicySet, brute_force_oom, elim_oom_id
from oomid.ordering import (
    induced_width,
    is_legal_ordering,
    legal_ordering,
    temporal_partition,
)
from oomid.sets import ZERO_SET, canonicalize, equiv, singleton
from oomid.values import ZERO, OOMValue, Sign, add, mul


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


# the order window of the acceptance tests
WINDOW = [
    OOMValue(s, o) for s in (Sign.PLUS, Sign.MINUS, Sign.PLUSMINUS) for o in range(-4, 5)
] + [ZERO]


def with_tables(d, kind, cpt_tables, utility_tables):
    """``d``'s graph as a diagram of class ``kind`` with the given tables."""
    return kind(
        variables=d.variables,
        cpts=tuple(CPT(c.child, c.parents, t) for c, t in zip(d.cpts, cpt_tables)),
        utilities=tuple(
            UtilityFunction(u.scope, t) for u, t in zip(d.utilities, utility_tables)
        ),
        decision_order=d.decision_order,
        information_sets=dict(d.information_sets),
    )


def random_rows(d, rng, draw) -> list[tuple]:
    """Per CPT, rows of ``draw(k)`` entries, one row per parent configuration."""
    tables = []
    for c in d.cpts:
        k = len(d.domain(c.child))
        tables.append(tuple(x for _ in range(len(c.table) // k) for x in draw(k)))
    return tables


def native_oom(i: int) -> OOMInfluenceDiagram:
    """A qualitative diagram on a generated graph with entries no conversion
    gives: some CPT rows with zero entries, and utilities that are random
    canonical sets from the window (pairs, +- and - elements, zero)."""
    rng = random.Random(3000 + i)
    d = generate(small_params(i))

    def row(k):
        out = [OOMValue(Sign.PLUS, rng.randint(0, 3)) for _ in range(k)]
        if rng.random() < 0.4:
            out[rng.randrange(k)] = ZERO
        return out

    def utility():
        if rng.random() < 0.1:
            return ZERO_SET
        return canonicalize([rng.choice(WINDOW) for _ in range(rng.randint(1, 3))])

    utilities = [tuple(utility() for _ in u.table) for u in d.utilities]
    return with_tables(d, OOMInfluenceDiagram, random_rows(d, rng, row), utilities)


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
    @staticmethod
    def assert_matches_oracle(o):
        order = legal_ordering(o)
        sol = elim_oom_id(o, order=order)
        oracle = brute_force_oom(o, order=order)
        assert equiv(sol.meu, oracle.meu)
        assert sol.policies == oracle.policies
        assert sol.max_table_cells == oracle.max_table_cells

    @pytest.mark.parametrize("i", range(30))
    def test_elim_matches_oracle(self, i):
        d = generate(small_params(i))
        eps = [0.5, 0.1, 0.01][i % 3]
        self.assert_matches_oracle(convert(d, ConversionConfig(eps)))

    @pytest.mark.parametrize("i", range(30))
    def test_native_matches_oracle(self, i):
        self.assert_matches_oracle(native_oom(i))

    def test_forgetting_diagrams_solved_or_rejected(self):
        # a rule may read only what its decision observes: the solver and the
        # oracle reject the same diagrams, and agree on the others
        outcomes = {"solved": 0, "rejected": 0}
        for i in range(30):
            d = generate(small_params(i), nonforgetting=False)
            if d.information_sets == apply_nonforgetting(d).information_sets:
                continue
            for eps in (0.5, 0.1, 0.01):
                o = convert(d, ConversionConfig(eps))
                try:
                    sol = elim_oom_id(o)
                except DiagramError as exc:
                    assert "rule depends on unobserved" in str(exc)
                    with pytest.raises(DiagramError, match=re.escape(str(exc))):
                        brute_force_oom(o)
                    outcomes["rejected"] += 1
                    continue
                oracle = brute_force_oom(o)
                assert equiv(sol.meu, oracle.meu)
                assert sol.policies == oracle.policies
                assert sol.max_table_cells == oracle.max_table_cells
                outcomes["solved"] += 1
        assert min(outcomes.values()) >= 5, outcomes

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


# ---------------------------------------------------------------------------
# limit semantics: (s,k) stands for any quantity asymptotic to s * c * eps**k

EPS = 1e-6


def limit_pair(i: int, positive: bool) -> tuple[InfluenceDiagram, OOMInfluenceDiagram]:
    """A random qualitative diagram in which every CPT row has a (+,0) entry,
    with signed singleton (or zero) utilities, and a numeric instance of it:
    each entry becomes c * EPS**k with c drawn from [0.5, 2], and each CPT
    row is normalized, which keeps its orders because of the (+,0) entry."""
    rng = random.Random(7000 + i)
    d = generate(small_params(i))

    def row(k):
        out = [rng.choice([OOMValue(Sign.PLUS, j) for j in range(4)] + [ZERO]) for _ in range(k)]
        out[rng.randrange(k)] = OOMValue(Sign.PLUS, 0)
        return out

    signs = [Sign.PLUS] if positive else [Sign.PLUS, Sign.MINUS]

    def utility():
        if rng.random() < 0.1:
            return ZERO_SET
        return singleton(OOMValue(rng.choice(signs), rng.randint(-3, 0)))

    o = with_tables(
        d,
        OOMInfluenceDiagram,
        random_rows(d, rng, row),
        [tuple(utility() for _ in u.table) for u in d.utilities],
    )

    def number(v: OOMValue) -> float:
        if v.is_zero:
            return 0.0
        return (-1 if v.sign is Sign.MINUS else 1) * rng.uniform(0.5, 2) * EPS**v.order

    cpt_tables = []
    for c in o.cpts:
        k = len(o.domain(c.child))
        values = [number(v) for v in c.table]
        rows = [values[j : j + k] for j in range(0, len(values), k)]
        cpt_tables.append(tuple(x / sum(r) for r in rows for x in r))
    utility_tables = [tuple(number(s.elements[0]) for s in u.table) for u in o.utilities]
    return with_tables(o, InfluenceDiagram, cpt_tables, utility_tables), o


class TestLimitSemantics:
    """Solves of numeric instances against the qualitative solve: an oracle
    that does not go through the case splits of ``canonicalize``.

    The constants stay within a factor of ~1e3 of one, half an order of
    EPS, on these small diagrams, so an exact value's order is read by
    rounding.
    """

    @pytest.mark.parametrize("positive", [True, False], ids=["P", "M"])
    @pytest.mark.parametrize("i", range(40))
    def test_meu_order_in_range(self, i, positive):
        numeric, o = limit_pair(i, positive)
        order = legal_ordering(o)
        meu = solve_exact(numeric, order=order).meu
        got = elim_oom_id(o, order=order).meu
        lo = got.elements[0]
        if got == ZERO_SET:
            assert meu == 0.0
            return
        exact_order = math.log(abs(meu)) / math.log(EPS) if meu else math.inf
        if len(got.elements) == 1 and lo.sign is not Sign.PLUSMINUS:
            # a signed singleton fixes the sign and the order
            assert abs(exact_order - lo.order) < 0.5
            assert (meu > 0) == (lo.sign is Sign.PLUS)
        else:
            # an unknown sign allows cancellation down to any smaller size
            assert exact_order > lo.order - 0.5

    def test_strict_cells_hold_exact_optimum(self):
        # positive utilities: every strict ranking separates two orders (or a
        # positive from zero), which the constants cannot overturn; see
        # test_equal_order_unknown_sign_overruled for mixed signs
        strict = 0
        for i in range(60):
            numeric, o = limit_pair(i, positive=True)
            order = legal_ordering(o)
            exact = solve_exact(numeric, order=order).policy
            policies = elim_oom_id(o, order=order).policies
            for d in o.decision_vars:
                for cell, action in zip(policies.cells[d], exact.rules[d].actions):
                    if len(cell) == 1:
                        strict += 1
                        assert action in cell, (i, d)
        assert strict >= 100  # the check is not vacuous

    def test_equal_order_unknown_sign_overruled(self):
        # A recorded finding, not a fault of the elimination: the calculus
        # ranks (+,k) strictly above (+-,k) (``values.dominates``, case 2),
        # but at equal orders the constants decide.  Action a sums (+,0) and
        # (-,0) to {(+-,0)}, action b is {(+,0)}, so the policy set keeps b
        # alone; with a worth 0.5 * 9.0 - 0.5 * 1.0 = 4.0 and b worth 1.0,
        # the exact optimum is a (the MEU order and sign still agree).  Over
        # limit_pair(i, positive=False) for i < 300, 6 of 668 strict cells,
        # in 3 instances, exclude the exact optimum; ranking by strictly
        # separated orders only leaves 633 strict cells and none of them.
        doc = {
            "variables": [
                {"id": "X", "kind": "chance", "domain": ["x0", "x1"]},
                {"id": "D", "kind": "decision", "domain": ["a", "b"]},
            ],
            "cpts": [{"child": "X", "parents": [], "table": [0.5, 0.5]}],
            "utilities": [{"scope": ["D", "X"], "table": [9.0, -1.0, 1.0, 1.0]}],
            "decision_order": ["D"],
            "information_sets": {"D": []},
        }
        numeric = from_dict(doc)
        sol = elim_oom_id(convert(numeric, ConversionConfig(0.1)))
        assert str(sol.meu) == "{(+,0)}"
        assert sol.policies.cells["D"] == (frozenset({1}),)
        assert solve_exact(numeric).policy.rules["D"].actions == (0,)


# sha256 of the 54 paper-grid-shaped solves below, recorded before the
# qualitative steps moved onto numeric arrays; never re-record it
PAPER_GRID_DIGEST = "a3bfa61366ae826f9b3730bcc934736e202b6d6fb80304dd188967a2ac9eee77"


def test_paper_grid_solves_pinned():
    # P/M x n = 25/35/45 x 3 instances x eps 0.5/0.05/0.005, bench settings
    digest = hashlib.sha256()
    for cls in "PM":
        for n in (25, 35, 45):
            for seed in range(3):
                d = generate(
                    GeneratorParams(
                        n_c=n - 5, n_d=5, k=2, p=2, r=5, a=5,
                        utility_class=cls, seed=seed,
                    )
                )
                order = legal_ordering(d)
                for eps in (0.5, 0.05, 0.005):
                    sol = elim_oom_id(convert(d, ConversionConfig(eps)), order=order)
                    ps = sol.policies
                    cells = [
                        (dec, ps.scopes[dec], [sorted(c) for c in ps.cells[dec]])
                        for dec in ps.decisions
                    ]
                    record = (str(sol.meu), cells, ps.count(), sol.max_table_cells)
                    digest.update(repr(record).encode())
    assert digest.hexdigest() == PAPER_GRID_DIGEST


def block_shuffle(d, order: list[str], rng: random.Random, window: int = 5) -> list[str]:
    """``order`` with its variables shuffled inside each run of ``window``
    consecutive variables of one temporal block: a legal ordering whose
    width stays near the min-fill ordering's."""
    block = {v: i for i, b in enumerate(temporal_partition(d)) for v in b}
    out: list[str] = []
    run: list[str] = []
    for v in order:
        if run and (block[v] != block[run[0]] or len(run) == window):
            rng.shuffle(run)
            out += run
            run = []
        run.append(v)
    rng.shuffle(run)
    return out + run


PAPER_SIZES = pytest.mark.parametrize(
    "n, cls", [(n, cls) for n in (25, 35, 45) for cls in "PM"], ids=lambda x: str(x)
)


@PAPER_SIZES
def test_paper_size_ordering_invariance(n, cls):
    check_ordering_invariance(n, cls, shuffles=2)


@pytest.mark.slow
@PAPER_SIZES
def test_paper_size_ordering_invariance_many(n, cls):
    check_ordering_invariance(n, cls, shuffles=64)


def check_ordering_invariance(n: int, cls: str, shuffles: int) -> None:
    """Random legal orderings of one paper-size diagram: ``elim_oom_id``
    gives the same MEU and policy set, ``solve_exact`` the same MEU within
    1e-12 and a policy that scores it."""
    seed = n + "PM".index(cls)
    d = generate(
        GeneratorParams(n_c=n - 5, n_d=5, k=2, p=2, r=5, a=5, utility_class=cls, seed=seed)
    )
    o = convert(d, ConversionConfig({25: 0.5, 35: 0.05, 45: 0.005}[n]))
    order = legal_ordering(d)
    base, meu = elim_oom_id(o, order=order), solve_exact(d, order=order).meu
    rng = random.Random(n)
    for _ in range(shuffles):
        shuffled = block_shuffle(d, order, rng)
        assert shuffled != order and is_legal_ordering(d, shuffled)
        sol = elim_oom_id(o, order=shuffled)
        assert sol.meu == base.meu
        assert sol.policies.cells == base.policies.cells
        assert sol.policies.count() == base.policies.count()
        exact = solve_exact(d, order=shuffled)
        assert abs(exact.meu - meu) <= 1e-12 * abs(meu)
        # the optimal policy may change only between tied actions
        value = PolicyEvaluator(d, shuffled).evaluate(exact.policy)
        assert abs(value - meu) <= 1e-9 * max(1.0, abs(meu))


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
        assert list(a) == list(b)

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
        scored = [evaluate_policy(d, p) for p in policies]
        assert PolicyEvaluator(d).evaluate_many(policies) == scored
        values = {round(v, 6) for v in scored}
        assert all(isinstance(v, float) for v in values)
        assert len(values) > 1  # the 128 tied policies differ numerically

    def test_rejects_bad_sample_size(self):
        _, ps = self.make()
        with pytest.raises(ValueError):
            ps.sample(0)


def reference_decode(ps: PolicySet, index: int) -> dict[str, tuple[int, ...]]:
    """One ``divmod`` per cell, least significant first, in decision order:
    each digit picks one of the cell's actions in ascending order."""
    actions = {}
    for d in ps.decisions:
        row = []
        for cell in ps.cells[d]:
            index, digit = divmod(index, len(cell))
            row.append(sorted(cell)[digit])
        actions[d] = tuple(row)
    assert index == 0
    return actions


def random_policy_set(rng: random.Random) -> PolicySet:
    decisions = tuple(f"D{j}" for j in range(rng.randint(3, 4)))
    k = {d: rng.randint(1, 5) for d in decisions}
    masks = {}
    for d in decisions:
        cells = [
            rng.sample(range(k[d]), rng.randint(1, k[d]))
            for _ in range(rng.randint(80, 150))
        ]
        masks[d] = np.array([[a in cell for cell in cells] for a in range(k[d])])
    return PolicySet(decisions, {d: () for d in decisions}, masks)


def uniform_policy_set(radix: int, cells: int) -> PolicySet:
    return PolicySet(("D",), {"D": ()}, {"D": np.ones((radix, cells), dtype=bool)})


@pytest.mark.parametrize(
    "make",
    [lambda seed=seed: random_policy_set(random.Random(seed)) for seed in range(20)]
    + [lambda r=r: uniform_policy_set(r, 200) for r in (1, 2, 4, 5)],
    ids=[f"random{seed}" for seed in range(20)] + [f"radix{r}" for r in (1, 2, 4, 5)],
)
def test_decoder_matches_divmod_reference(make):
    # runs of cells are split where their radix product would pass 2^62;
    # the all-radix-2 set fills a run exactly
    ps = make()
    count = ps.count()
    assert count == math.prod(len(c) for d in ps.decisions for c in ps.cells[d])
    rng = random.Random(count)
    indices = [0, count - 1] + [rng.randrange(count) for _ in range(50)]
    decoded = [
        {d: p.rules[d].actions for d in ps.decisions} for p in ps._batch(indices)
    ]
    assert decoded == [reference_decode(ps, i) for i in indices]


def test_empty_action_set_rejected():
    with pytest.raises(DiagramError, match="empty action set"):
        PolicySet(("D",), {"D": ()}, {"D": np.array([[True, False], [True, False]])})


def test_runs_fit_int64():
    # every run's radix product must fit int64 for its digits to decode
    sets = [random_policy_set(random.Random(seed)) for seed in range(20)]
    sets += [uniform_policy_set(r, 300) for r in (1, 2, 3, 5, 1000)]
    for ps in sets:
        assert max(ps._run_sizes) <= 1 << 62
        assert ps.count() == math.prod(len(c) for d in ps.decisions for c in ps.cells[d])
        indices = [0, ps.count() - 1, ps.count() // 3]
        decoded = [
            {d: p.rules[d].actions for d in ps.decisions} for p in ps._batch(indices)
        ]
        assert decoded == [reference_decode(ps, i) for i in indices]


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
        (PolicyEvaluator, wildcatter()),
        (PolicyEvaluator, wildcatter(nonforgetting=False)),
    ],
    ids=[
        "solve_exact", "elim_oom_id", "brute_force_oom", "evaluator", "evaluator-forgetting"
    ],
)
def test_illegal_order_rejected(solve, diagram, mutate):
    with pytest.raises(DiagramError, match="not a legal elimination ordering"):
        solve(diagram, order=mutate(legal_ordering(diagram)))


NOT_PERMUTATIONS = {
    "missing": ["Oil", "Drill", "Seismic"],
    "duplicated": ["Oil", "Drill", "Seismic", "Test", "Oil"],
    "duplicate in place of one": ["Oil", "Drill", "Seismic", "Oil"],
    "unknown": ["Oil", "Drill", "Seismic", "Test", "Rain"],
}


@pytest.mark.parametrize("order", NOT_PERMUTATIONS.values(), ids=NOT_PERMUTATIONS.keys())
def test_width_of_non_permutation_rejected(order):
    with pytest.raises(DiagramError, match="not an ordering of the diagram's variables"):
        induced_width(wildcatter(), order)


def test_width_of_illegal_permutation():
    assert induced_width(wildcatter(), ["Test", "Seismic", "Drill", "Oil"]) == 3


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
