import itertools

import pytest

from oomid.values import (
    INF,
    MINUS_ONE,
    ONE,
    ZERO,
    OOMValue,
    Sign,
    add,
    dominates,
    inverse,
    maximal_set,
    mul,
    negate,
    parse_value,
    strictly_dominates,
)


def v(sign: str, order) -> OOMValue:
    return OOMValue({"+": Sign.PLUS, "-": Sign.MINUS, "+-": Sign.PLUSMINUS}[sign], order)


# All values with orders in [-5, 5], plus the zero element.
ALL = [
    OOMValue(s, o)
    for s in (Sign.PLUS, Sign.MINUS, Sign.PLUSMINUS)
    for o in range(-5, 6)
] + [ZERO]


class TestConstruction:
    def test_zero_normalizes_sign(self):
        assert OOMValue(Sign.PLUS, INF) == ZERO
        assert OOMValue(Sign.MINUS, INF) == ZERO
        assert ZERO.sign is Sign.PLUSMINUS

    def test_constants(self):
        assert ONE == v("+", 0)
        assert MINUS_ONE == v("-", 0)
        assert ZERO.is_zero

    def test_rejects_non_integer_order(self):
        with pytest.raises(ValueError):
            OOMValue(Sign.PLUS, 1.5)

    def test_predicates(self):
        assert v("+", 3).is_positive
        assert not v("-", 3).is_positive
        assert not ZERO.is_positive
        assert v("+-", 2).sign is Sign.PLUSMINUS
        assert ZERO.sign is Sign.PLUSMINUS


class TestMul:
    def test_examples(self):
        assert mul(v("+", 2), v("+", 3)) == v("+", 5)
        assert mul(v("-", 1), v("-", 2)) == v("+", 3)
        assert mul(v("+-", 4), ZERO) == ZERO

    def test_identity_and_annihilator(self):
        for a in ALL:
            assert mul(a, ONE) == a
            assert mul(a, ZERO) == ZERO

    def test_associative_commutative(self):
        for a, b in itertools.product(ALL, repeat=2):
            assert mul(a, b) == mul(b, a)
        for a, b, c in itertools.product(ALL, repeat=3):
            assert mul(mul(a, b), c) == mul(a, mul(b, c))


class TestAdd:
    def test_examples(self):
        assert add(v("+", 2), v("-", 5)) == v("+", 2)
        assert add(v("+", 2), v("-", 2)) == v("+-", 2)
        assert add(v("-", 0), ZERO) == v("-", 0)

    def test_identity(self):
        for a in ALL:
            assert add(a, ZERO) == a

    def test_associative_commutative(self):
        for a, b in itertools.product(ALL, repeat=2):
            assert add(a, b) == add(b, a)
        for a, b, c in itertools.product(ALL, repeat=3):
            assert add(add(a, b), c) == add(a, add(b, c))

    def test_distributivity(self):
        for a, b, c in itertools.product(ALL, repeat=3):
            assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))


class TestNegate:
    def test_examples(self):
        assert negate(v("+", 3)) == v("-", 3)
        assert negate(v("+-", 1)) == v("+-", 1)
        assert negate(ZERO) == ZERO

    def test_self_cancellation_has_unknown_sign(self):
        for a in ALL:
            s = add(a, negate(a))
            assert s.sign is Sign.PLUSMINUS
            assert s.order == a.order


class TestInverse:
    def test_examples(self):
        assert inverse(v("+", 3)) == v("+", -3)
        assert inverse(v("-", -2)) == v("-", 2)

    def test_rejects_unknown_sign_and_zero(self):
        with pytest.raises(ValueError):
            inverse(v("+-", 1))
        with pytest.raises(ValueError):
            inverse(ZERO)

    def test_positive_inverse_multiplies_to_one(self):
        for a in ALL:
            if a.is_positive:
                assert mul(a, inverse(a)) == ONE


class TestDominates:
    def test_examples(self):
        assert dominates(v("+", 1), v("+", 2))
        assert dominates(v("+", 5), v("-", 0))
        assert not dominates(v("+-", 1), v("+-", 2))

    def test_zero_extension(self):
        # zero dominates every negative; every positive dominates zero
        for a in ALL:
            if a.sign is Sign.MINUS:
                assert dominates(ZERO, a)
            if a.is_positive:
                assert dominates(a, ZERO)
        assert not dominates(ZERO, ZERO)

    def test_reflexive_where_granted(self):
        for a in ALL:
            if a.sign is Sign.PLUSMINUS:
                assert not dominates(a, a)
            else:
                assert dominates(a, a)

    def test_antisymmetric(self):
        for a, b in itertools.product(ALL, repeat=2):
            if dominates(a, b) and dominates(b, a):
                assert a == b

    def test_transitive(self):
        for a, b, c in itertools.product(ALL, repeat=3):
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)

    def test_monotone_under_add_and_positive_mul(self):
        # monotonicity up to reflexivity: adding c can collapse a dominating
        # pair onto one unknown-sign value, which does not dominate itself
        for a, b, c in itertools.product(ALL, repeat=3):
            if dominates(a, b):
                ac, bc = add(a, c), add(b, c)
                assert dominates(ac, bc) or ac == bc
                if c.is_positive:
                    assert dominates(mul(a, c), mul(b, c))


class TestMaximalSet:
    def test_examples(self):
        assert maximal_set([v("+", 1), v("+", 3), v("-", 0)]) == {v("+", 1)}
        assert maximal_set([v("+-", 1), v("+-", 4)]) == {v("+-", 1), v("+-", 4)}
        assert maximal_set([v("-", 2)]) == {v("-", 2)}

    def test_no_strictly_dominated_survivor(self):
        pool = [v("+", 2), v("+-", 0), v("-", 1), ZERO]
        result = maximal_set(pool)
        for a in result:
            assert not any(strictly_dominates(b, a) for b in pool)


class TestSerialization:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("(+,3)", v("+", 3)),
            ("(-,-1)", v("-", -1)),
            ("(+-,2)", v("+-", 2)),
            ("(+-,inf)", ZERO),
        ],
    )
    def test_round_trip(self, text, value):
        assert parse_value(text) == value
        assert str(value) == text
        assert parse_value(str(value)) == value

    def test_sign_repr(self):
        assert [repr(s) for s in Sign] == ["Sign('+')", "Sign('-')", "Sign('+-')"]

    def test_signed_inf_normalizes(self):
        assert parse_value("(+,inf)") == ZERO
        assert parse_value("(-,inf)") == ZERO

    def test_rejects_garbage(self):
        for bad in ["", "(+)", "(+,a)", "(*,1)", "+,1"]:
            with pytest.raises(ValueError):
                parse_value(bad)
