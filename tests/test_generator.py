import hashlib
import itertools

import numpy as np
import pytest

from oomid.diagram import Kind, apply_nonforgetting, validate
from oomid.generator import EXTREME_HIGH, EXTREME_LOW, GeneratorParams, _samples, generate


def bench_params(seed: int, utility_class: str = "P", n: int = 25) -> GeneratorParams:
    return GeneratorParams(
        n_c=n - 5, n_d=5, k=2, p=2, r=5, a=5, utility_class=utility_class, seed=seed
    )


class TestParams:
    def test_rejects_bad_shapes(self):
        cases = [
            (dict(n_c=0, n_d=0), "need at least one variable"),
            (dict(n_c=-1, n_d=6), "need at least one variable"),
            (dict(n_c=3, n_d=0, r=5), "root count"),  # more roots than variables
            (dict(n_c=5, n_d=0, r=5, p=5), "parent count must be in"),
            (dict(n_c=5, n_d=0, r=2, p=-1), "parent count must be in"),
            (dict(n_c=5, n_d=0, r=2, p=3), "must not exceed the root count"),
            (dict(n_c=5, n_d=0, a=0), "utility arity"),
            (dict(n_c=5, n_d=1, a=7), "utility arity"),
            (dict(n_c=5, n_d=1, k=1), "domain size bound"),
            (dict(n_c=5, n_d=1, k=10_001), "domain size bound"),
            (dict(n_c=4, n_d=2, r=5), "needs n_c >= r"),
            (dict(n_c=5, n_d=1, utility_class="Q"), "utility class"),
        ]
        for kwargs, message in cases:
            with pytest.raises(ValueError, match=message):
                GeneratorParams(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 2.5), ("n_c", 20.5), ("k", True), ("a", "5"), ("seed", np.float64(1))],
    )
    def test_rejects_non_integers(self, field, value):
        kwargs = {"n_c": 20, "n_d": 5, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, not "):
            GeneratorParams(**kwargs)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be at least 0, not -1$"):
            GeneratorParams(n_c=20, n_d=5, seed=-1)

    def test_accepts_numpy_integers(self):
        params = GeneratorParams(n_c=np.int64(20), n_d=np.int32(5), seed=np.uint64(3))
        assert generate(params) == generate(GeneratorParams(n_c=20, n_d=5, seed=3))


class TestStructure:
    @pytest.mark.parametrize("nonforgetting", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("utility_class", "PM")
    @pytest.mark.parametrize("n", [25, 45, 80])
    def test_generated_diagram_validates_and_solves(self, n, utility_class, seed, nonforgetting):
        # generate records its output as valid without checking it: this
        # keeps the argument in its docstring honest.  A forgetting
        # diagram's optimal rule may read a variable its decision does not
        # observe, which solve_exact rejects, so its closure is solved.
        from oomid.exact import solve_exact

        d = generate(bench_params(seed, utility_class, n), nonforgetting=nonforgetting)
        assert d._valid
        assert validate(d) == []
        assert np.isfinite(solve_exact(apply_nonforgetting(d)).meu)

    def test_valid_at_the_domain_size_bound(self):
        # k - 1 near-deterministic entries below EXTREME_HIGH leave the last
        # one positive; past the bound a generated row went negative
        for seed in range(3):
            d = generate(GeneratorParams(n_c=5, n_d=0, k=10_000, p=0, r=5, a=1, seed=seed))
            assert max(len(v.domain) for v in d.variables) > 5_000
            assert validate(d) == []

    def test_deterministic(self):
        a = generate(bench_params(seed=42))
        b = generate(bench_params(seed=42))
        assert a == b
        c = generate(bench_params(seed=43))
        assert c != a

    @pytest.mark.parametrize("seed", range(100))
    def test_decisions_on_directed_path(self, seed):
        d = generate(bench_params(seed=seed), nonforgetting=False)
        arcs = {v.id: set() for v in d.variables}
        for cpt in d.cpts:
            for p in cpt.parents:
                arcs[p].add(cpt.child)
        for dec, parents in d.information_sets.items():
            for p in parents:
                arcs[p].add(dec)

        def reachable(a, b):
            stack, seen = [a], set()
            while stack:
                x = stack.pop()
                if x == b:
                    return True
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(arcs[x])
            return False

        order = d.decision_order
        assert len(order) == 5
        for prev, nxt in zip(order, order[1:]):
            assert reachable(prev, nxt)

    def test_decisions_without_parents_chained(self):
        # with no parents drawn, each decision but the first observes just
        # the one before it
        d = generate(GeneratorParams(n_c=4, n_d=3, p=0, r=2, a=2), nonforgetting=False)
        order = d.decision_order
        assert d.information_sets == {
            order[0]: (), **{nxt: (prev,) for prev, nxt in zip(order, order[1:])}
        }
        assert all(not c.parents for c in d.cpts)
        assert validate(d) == []

    def test_counts_and_arity(self):
        d = generate(bench_params(seed=3), nonforgetting=False)
        assert len(d.variables) == 25
        assert len(d.decision_vars) == 5
        assert len(d.utilities) == 1
        assert len(d.utilities[0].scope) == 5
        roots = [c.child for c in d.cpts if not c.parents]
        non_roots = [
            v.id
            for v in d.variables
            if (v.kind is Kind.CHANCE and v.id not in roots)
        ]
        for c in d.cpts:
            if c.child in non_roots:
                assert len(c.parents) == 2
        for dec in d.decision_vars:
            assert len(d.information_sets[dec]) == 2 or dec == d.decision_order[0]

    def test_root_count(self):
        d = generate(bench_params(seed=9), nonforgetting=False)
        chance_roots = [c.child for c in d.cpts if not c.parents]
        decision_roots = [
            dec for dec in d.decision_vars if not d.information_sets[dec]
        ]
        assert len(chance_roots) + len(decision_roots) == 5


class TestTables:
    def test_class_p_utilities_positive_powers_of_ten(self):
        d = generate(bench_params(seed=5, utility_class="P"))
        table = d.utilities[0].table
        assert all(u > 0 for u in table)
        exps = {round(np.log10(u), 9) for u in table}
        assert exps <= {0.0, 1.0, 2.0, 3.0, 4.0, 5.0}

    def test_class_m_signs_balanced(self):
        d = generate(bench_params(seed=5, utility_class="M"))
        table = d.utilities[0].table
        pos = sum(1 for u in table if u > 0)
        neg = sum(1 for u in table if u < 0)
        assert abs(pos - neg) <= 1
        assert {abs(u) for u in table} <= {10.0**k for k in range(6)}

    def test_extreme_rows_nearly_deterministic(self):
        d = generate(bench_params(seed=7), nonforgetting=False)
        extreme_rows = 0
        total_rows = 0
        for cpt in d.cpts:
            k = len(d.domain(cpt.child))
            rows = np.asarray(cpt.table).reshape(-1, k)
            for row in rows:
                total_rows += 1
                small = sorted(row)[:-1]
                if all(1e-5 <= x <= 1e-4 for x in small):
                    extreme_rows += 1
                assert abs(row.sum() - 1.0) < 1e-9
        # 75% of the chance nodes get extreme tables
        assert extreme_rows / total_rows > 0.5


# sha256 of the concatenated ``repr`` of every diagram the loops below
# generate, recorded before the table building was vectorised; any change
# to the RNG call sequence or to a table entry moves it
GENERATED_REPR_SHA256 = "565b8264039a25aed569f8c0a9ffad508a774c1ba9dcea12fcd37916f3fbcb58"


def test_generated_diagrams_pinned():
    digest = hashlib.sha256()
    for seed, k, cls, n in itertools.product(range(8), (2, 3, 5, 10), "PM", (10, 25, 45)):
        params = GeneratorParams(
            n_c=n - 5, n_d=5, k=k, p=2, r=5, a=5, utility_class=cls, seed=seed
        )
        digest.update(repr(generate(params)).encode())
    assert digest.hexdigest() == GENERATED_REPR_SHA256


# the same for n = 80 and p = 1 and 3, recorded before the draws were
# batched into one sampler
GENERATED_N80_REPR_SHA256 = "9079c9d1075112f3cc94287bea1e66838c24543b0a3347d57d848e1171858404"


def test_generated_n80_diagrams_pinned():
    digest = hashlib.sha256()
    for seed, k, cls, p in itertools.product(range(4), (2, 3, 5), "PM", (1, 3)):
        params = GeneratorParams(
            n_c=75, n_d=5, k=k, p=p, r=5, a=5, utility_class=cls, seed=seed
        )
        digest.update(repr(generate(params)).encode())
    assert digest.hexdigest() == GENERATED_N80_REPR_SHA256


class TestDraws:
    """The identities of numpy's ``Generator`` that batching the draws relies
    on: each batched form gives what the scalar or per-call form gives and
    leaves the generator in the same state."""

    @pytest.mark.parametrize(
        "populations, size",
        [(list(range(3, 40)), size) for size in range(4)] + [([75], 56), ([6], 6)],
    )
    def test_samples_equal_choice(self, populations, size):
        for seed in range(100):
            batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            want = [scalar.choice(n, size, replace=False).tolist() for n in populations]
            assert _samples(batched, populations, size) == want
            assert batched.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("low, high", [(2, 3), (2, 4), (2, 6), (2, 11), (0, 1), (0, 3)])
    def test_sized_integers_equal_scalar_draws(self, low, high):
        for seed in range(20):
            batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            want = [int(scalar.integers(low, high)) for _ in range(37)]
            assert batched.integers(low, high, size=37).tolist() == want
            assert batched.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize(
        "low, high, draw",
        [
            (0.0, 1.0, lambda rng: rng.random((7, 3))),
            (
                EXTREME_LOW,
                EXTREME_HIGH,
                lambda rng: EXTREME_LOW + (EXTREME_HIGH - EXTREME_LOW) * rng.random((7, 3)),
            ),
        ],
        ids=["random", "scaled random"],
    )
    def test_random_equals_uniform(self, low, high, draw):
        for seed in range(20):
            want = np.random.default_rng(seed).uniform(low, high, size=(7, 3))
            assert draw(np.random.default_rng(seed)).tobytes() == want.tobytes()
