import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oomid.values import INF, ZERO, OOMValue, Sign, add, maximal_set, mul
from oomid.sets import (
    OOMSet,
    ZERO_SET,
    canonicalize,
    convex_closure_bounded,
    equiv,
    max_sets,
    scale,
    set_dominates,
    singleton,
    sum_sets,
)


def v(sign: str, order) -> OOMValue:
    return OOMValue({"+": Sign.PLUS, "-": Sign.MINUS, "+-": Sign.PLUSMINUS}[sign], order)


def oset(*pairs) -> OOMSet:
    return OOMSet(tuple(v(s, o) for s, o in pairs))


ORDERS = list(range(-4, 5))
VALUE_POOL = [
    OOMValue(s, o) for s in (Sign.PLUS, Sign.MINUS, Sign.PLUSMINUS) for o in ORDERS
] + [ZERO]

values_st = st.sampled_from(VALUE_POOL)
value_lists_st = st.lists(values_st, min_size=1, max_size=6)
canonical_sets_st = value_lists_st.map(canonicalize)
positive_st = st.integers(min_value=-4, max_value=4).map(
    lambda o: OOMValue(Sign.PLUS, o)
)


def closure_maximal(values, bound=9, window_top=4):
    """Maximal set of the bounded convex closure, clipped to a shared window.

    With the zero element present the closure grows an unbounded tail of
    unknown-sign values; clipping to orders <= window_top (zero kept) makes
    two closures comparable when both inputs live inside the order window.
    """
    closure = convex_closure_bounded(list(values), bound)
    clipped = {c for c in closure if c.order <= window_top or c.is_zero}
    return frozenset(maximal_set(clipped))


def sets_equiv_by_oracle(a, b) -> bool:
    return closure_maximal(a) == closure_maximal(b)


class TestCanonicalShape:
    def test_singleton_ok(self):
        assert singleton(v("+", 2)).elements == (v("+", 2),)

    def test_pair_requires_unknown_sign_first_and_increasing_order(self):
        oset(("+-", 1), ("+", 3))
        oset(("+-", 0), ("+-", INF))
        for bad in [
            (("+", 1), ("+", 3)),
            (("+-", 3), ("+", 1)),
            (("+-", 2), ("+", 2)),
        ]:
            with pytest.raises(ValueError):
                oset(*bad)
        with pytest.raises(ValueError):
            OOMSet(tuple())


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize([v("+", 2), v("+", 5), v("-", 1)]) == oset(("+", 2))
        assert canonicalize([v("+-", 3), v("+-", 4), v("+-", 6)]) == oset(
            ("+-", 3), ("+-", 6)
        )
        a = oset(("-", 2))
        assert canonicalize(a.elements) == a

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonicalize([])

    def test_zero_pair_shape(self):
        assert canonicalize([v("+-", 1), ZERO]) == oset(("+-", 1), ("+-", INF))

    @given(value_lists_st)
    @settings(max_examples=1000)
    def test_idempotent(self, values):
        once = canonicalize(values)
        assert canonicalize(once.elements) == once

    @given(value_lists_st)
    @settings(max_examples=1000)
    def test_canonical_and_equivalent_to_input(self, values):
        result = canonicalize(values)
        assert len(result.elements) <= 2
        assert sets_equiv_by_oracle(values, result.elements)


class TestScale:
    def test_pair_shift(self):
        assert scale(v("+", 2), oset(("+-", 1), ("+-", 4))) == oset(
            ("+-", 3), ("+-", 6)
        )

    def test_identity_and_annihilator(self):
        a = oset(("-", -1))
        assert scale(v("+", 0), a) == a
        assert scale(ZERO, a) == ZERO_SET

    def test_singleton_shift(self):
        assert scale(v("+", 1), oset(("+", -2))) == oset(("+", -1))

    def test_rejects_non_positive_factor(self):
        with pytest.raises(ValueError):
            scale(v("-", 1), oset(("+", 0)))
        with pytest.raises(ValueError):
            scale(v("+-", 1), oset(("+", 0)))


class TestMaxSets:
    def test_example_pair(self):
        a1 = oset(("+-", 3), ("+-", 4))
        a2 = oset(("+-", 3), ("+-", 6))
        assert max_sets(a1, a2) == oset(("+-", 3), ("+-", 6))

    def test_positive_singletons(self):
        assert max_sets(oset(("+", 1)), oset(("+", 4))) == oset(("+", 1))

    def test_negative_singletons(self):
        assert max_sets(oset(("-", 0)), oset(("-", 3))) == oset(("-", 3))

    def test_needs_a_set(self):
        with pytest.raises(ValueError, match="at least one set"):
            max_sets()

    @given(canonical_sets_st, canonical_sets_st, canonical_sets_st)
    def test_commutative_associative_idempotent(self, a, b, c):
        assert max_sets(a, b) == max_sets(b, a)
        assert max_sets(max_sets(a, b), c) == max_sets(a, max_sets(b, c))
        assert max_sets(a, a) == a


class TestSumSets:
    def test_example_pair(self):
        a1 = oset(("+-", 3), ("+-", 4))
        a2 = oset(("+-", 3), ("+-", 6))
        assert sum_sets(a1, a2) == oset(("+-", 3), ("+-", 4))

    def test_zero_identity(self):
        for a in [oset(("+", 2)), oset(("+-", 1), ("-", 3)), ZERO_SET]:
            assert sum_sets(a, ZERO_SET) == a

    def test_mixed_singletons(self):
        assert sum_sets(oset(("+", -1)), oset(("-", -1))) == oset(("+-", -1))

    def test_collapse_when_signed_low_end(self):
        # a (+-,0)/(+,0) pair cannot stay a pair: the positive end absorbs it
        assert sum_sets(oset(("+-", 0), ("+", 3)), oset(("+", 0))) == oset(("+", 0))

    def test_needs_a_set(self):
        with pytest.raises(ValueError, match="at least one set"):
            sum_sets()

    @given(canonical_sets_st, canonical_sets_st, canonical_sets_st)
    def test_commutative_associative(self, a, b, c):
        assert sum_sets(a, b) == sum_sets(b, a)
        assert sum_sets(sum_sets(a, b), c) == sum_sets(a, sum_sets(b, c))


class TestSetDominates:
    def test_examples(self):
        assert set_dominates(oset(("+", 0)), [v("+", 3), v("-", 1)])
        assert not set_dominates(oset(("+-", 2)), oset(("+-", 2)))
        a = oset(("+", 1))
        assert set_dominates(a, a)

    def test_unknown_sign_vs_zero_incomparable(self):
        assert not set_dominates(oset(("+-", 0)), ZERO_SET)
        assert not set_dominates(ZERO_SET, oset(("+-", 0)))


class TestEquiv:
    def test_examples(self):
        assert equiv(oset(("+", 2)), oset(("+", 2)))
        assert not equiv(oset(("+-", 3), ("+-", 6)), oset(("+-", 3), ("+-", 4)))
        assert equiv(
            canonicalize([v("+-", 3), v("+-", 4), v("+-", 6)]),
            oset(("+-", 3), ("+-", 6)),
        )


class TestConvexClosureBounded:
    def test_singleton(self):
        for bound in (0, 1, 3):
            assert convex_closure_bounded([v("+", 1)], bound) == {v("+", 1)}

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError, match="nonnegative"):
            convex_closure_bounded([v("+", 1)], -1)

    def test_opposite_pair_bound_two(self):
        # combinations of two order-1 elements stay at order 1: a nonzero
        # coefficient of order 0 pins the sum's order
        got = convex_closure_bounded([v("+", 1), v("-", 1)], 2)
        assert got == {v("+", 1), v("-", 1), v("+-", 1)}

    def test_two_positives_span(self):
        got = convex_closure_bounded([v("+", 0), v("+", 2)], 1)
        assert got == {v("+", 0), v("+", 1), v("+", 2)}

    def test_matches_naive_enumeration(self):
        # cross-check the scanning construction against literal coefficient
        # assignment over sub-multisets
        rng = random.Random(7)
        for _ in range(60):
            values = rng.sample(VALUE_POOL, rng.randint(1, 3))
            bound = rng.randint(0, 3)
            naive = set()
            for size in range(1, len(values) + 1):
                for subset in itertools.combinations(values, size):
                    for coeffs in itertools.product(range(bound + 1), repeat=size):
                        if min(coeffs) != 0:
                            continue
                        total = ZERO
                        for k, a in zip(coeffs, subset):
                            total = add(total, mul(OOMValue(Sign.PLUS, k), a))
                        naive.add(total)
            assert convex_closure_bounded(values, bound) == naive

    def test_pair_span_property(self):
        # elements of the closure of a two-element set stay within the order
        # window; below the top order the first element's sign is forced
        rng = random.Random(3)
        for _ in range(200):
            a, b = sorted(rng.sample(VALUE_POOL[:-1], 2), key=lambda x: x.order)
            closure = convex_closure_bounded([a, b], (b.order - a.order) + 5)
            for c in closure:
                assert a.order <= c.order <= b.order
                if c.order < b.order:
                    assert c.sign is a.sign


class TestDistributivityLaws:
    @given(positive_st, canonical_sets_st, canonical_sets_st)
    @settings(max_examples=1000)
    def test_scale_over_sum(self, q, a, b):
        assert equiv(scale(q, sum_sets(a, b)), sum_sets(scale(q, a), scale(q, b)))

    @given(positive_st, positive_st, canonical_sets_st)
    @settings(max_examples=1000)
    def test_split_factor_over_sum(self, q1, q2, a):
        assert equiv(
            scale(add(q1, q2), a), sum_sets(scale(q1, a), scale(q2, a))
        )

    @given(canonical_sets_st, canonical_sets_st, canonical_sets_st)
    @settings(max_examples=1000)
    def test_max_over_sum(self, a, b, c):
        assert equiv(
            sum_sets(max_sets(a, b), c),
            max_sets(sum_sets(a, c), sum_sets(b, c)),
        )

    def test_split_factor_counterexample_raw_vs_canonical(self):
        # element-wise evaluation distinguishes (q1+q2)*A from q1*A + q2*A;
        # canonicalization reconciles them
        q1, q2 = v("+", 2), v("+", 3)
        a = [v("+-", 1), v("+-", 4)]
        lhs_raw = {mul(add(q1, q2), x) for x in a}
        rhs_raw = {
            add(mul(q1, x), mul(q2, y)) for x in a for y in a
        }
        assert lhs_raw == {v("+-", 3), v("+-", 6)}
        assert rhs_raw == {v("+-", 3), v("+-", 4), v("+-", 6)}
        assert lhs_raw != rhs_raw
        assert equiv(canonicalize(lhs_raw), canonicalize(rhs_raw))


class TestSerialization:
    def test_str_forms(self):
        assert str(oset(("+", 2))) == "{(+,2)}"
        assert str(oset(("+-", 3), ("-", 5))) == "{(+-,3),(-,5)}"
        assert repr(oset(("+-", 3), ("-", 5))) == "OOMSet{(+-,3),(-,5)}"

    def test_parse_helper(self):
        from oomid.sets import parse_set

        assert parse_set("{(+,2)}") == oset(("+", 2))
        assert parse_set("{(+-,3),(-,5)}") == oset(("+-", 3), ("-", 5))
        assert parse_set("{(+,inf)}") == ZERO_SET
        with pytest.raises(ValueError):
            parse_set("{}")
        with pytest.raises(ValueError):
            parse_set("(+,2)")
