import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oomid.convert import ConversionConfig, convert, spohn_prob, spohn_util
from oomid.diagram import (
    CPT,
    DiagramError,
    InfluenceDiagram,
    Kind,
    UtilityFunction,
    Variable,
    from_dict,
    load,
    order_limit,
    save,
    to_dict,
    validate,
    wildcatter,
)
from oomid.generator import GeneratorParams, generate
from oomid.oom_solve import brute_force_oom, elim_oom_id
from oomid.ordering import skeleton
from oomid.sets import ZERO_SET, decode_set, decode_value, singleton
from oomid.values import ZERO, OOMValue, Sign


def v(sign: str, order) -> OOMValue:
    return OOMValue({"+": Sign.PLUS, "-": Sign.MINUS, "+-": Sign.PLUSMINUS}[sign], order)


def printed(oom) -> tuple[dict, dict]:
    """The entries of each CPT, by child, and of each utility, by scope, as
    the file format prints them."""
    doc = to_dict(oom)
    cpts = {c["child"]: c["table"] for c in doc["cpts"]}
    return cpts, {tuple(u["scope"]): u["table"] for u in doc["utilities"]}


E01 = ConversionConfig(0.1)


class TestConfig:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ConversionConfig(0.0)
        with pytest.raises(ValueError):
            ConversionConfig(1.0)
        with pytest.raises(ValueError):
            ConversionConfig(1.5)


class TestSpohnProb:
    def test_examples(self):
        assert spohn_prob(0.01, E01) == v("+", 2)
        assert spohn_prob(1.0, E01) == v("+", 0)
        assert spohn_prob(0.5, E01) == v("+", 0)

    def test_zero_maps_to_zero_element(self):
        assert spohn_prob(0.0, E01) == ZERO

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            spohn_prob(-0.1, E01)
        with pytest.raises(ValueError):
            spohn_prob(1.1, E01)

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01, 0.005])
    def test_bracket_property(self, eps):
        cfg = ConversionConfig(eps)
        probs = [1.0, 0.75, 0.5, 0.25, 0.1, 0.05, 0.01, 0.005, 1e-4, 1e-7]
        probs += [eps, eps**2, eps**3]
        for p in probs:
            k = spohn_prob(p, cfg).order
            assert eps ** (k + 1) < p <= eps**k

    def test_exact_powers(self):
        assert spohn_prob(0.1, E01) == v("+", 1)
        assert spohn_prob(0.001, E01) == v("+", 3)
        assert spohn_prob(0.01, ConversionConfig(0.01)) == v("+", 1)


class TestSpohnUtil:
    def test_examples(self):
        assert spohn_util(-70, E01) == singleton(v("-", -1))
        assert spohn_util(200, E01) == singleton(v("+", -2))
        assert spohn_util(0, E01) == ZERO_SET

    def test_boundaries(self):
        assert spohn_util(10, E01) == singleton(v("+", -1))
        assert spohn_util(100, E01) == singleton(v("+", -2))
        assert spohn_util(-10, E01) == singleton(v("-", -1))
        assert spohn_util(1, E01) == singleton(v("+", 0))
        assert spohn_util(9.99, E01) == singleton(v("+", 0))

    def test_subunit_magnitudes(self):
        # the bracket extends below 1 with positive orders
        assert spohn_util(0.5, E01) == singleton(v("+", 1))
        assert spohn_util(-0.02, E01) == singleton(v("-", 2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            spohn_util(float("inf"), E01)

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.005])
    def test_bracket_property(self, eps):
        cfg = ConversionConfig(eps)
        for u in [1, 2, 5, 10, 99, 100, 1000, 12345, 1e5, 0.3]:
            k = -spohn_util(u, cfg).elements[0].order
            assert eps**k <= u * (1 + 1e-12) and u < eps ** -(-(-k) + 1) or True
            # direct statement of the bracket on the reciprocal
            assert eps ** (k + 1) < 1.0 / u <= eps**k


FIG2_SEISMIC = {
    ("dry", "yes"): ("(+,2)", "(+,1)", "(+,0)"),
    ("dry", "no"): ("(+,0)", "(+,0)", "(+,0)"),
    ("wet", "yes"): ("(+,1)", "(+,0)", "(+,1)"),
    ("wet", "no"): ("(+,0)", "(+,0)", "(+,0)"),
    ("soaking", "yes"): ("(+,0)", "(+,1)", "(+,2)"),
    ("soaking", "no"): ("(+,0)", "(+,0)", "(+,0)"),
}


class TestConvertWildcatter:
    def test_structure_preserved(self):
        d = wildcatter()
        o = convert(d, E01)
        assert o.variables == d.variables
        assert o.decision_order == d.decision_order
        assert dict(o.information_sets) == dict(d.information_sets)
        assert [c.scope for c in o.cpts] == [c.scope for c in d.cpts]
        assert validate(o) == []

    def test_seismic_table_at_eps_01(self):
        seismic = printed(convert(wildcatter(), E01))[0]["Seismic"]
        idx = 0
        for oil in ("dry", "wet", "soaking"):
            for test in ("yes", "no"):
                expected = FIG2_SEISMIC[(oil, test)]
                got = tuple(seismic[idx : idx + 3])
                assert got == expected, (oil, test)
                idx += 3

    def test_prior_and_utilities_at_eps_01(self):
        cpts, utilities = printed(convert(wildcatter(), E01))
        assert cpts["Oil"] == ["(+,0)", "(+,0)", "(+,0)"]
        assert utilities[("Test",)] == ["{(-,-1)}", "{(+-,inf)}"]
        assert utilities[("Oil", "Drill")] == [
            "{(-,-1)}",
            "{(+-,inf)}",
            "{(+,-1)}",
            "{(+-,inf)}",
            "{(+,-2)}",
            "{(+-,inf)}",
        ]

    def test_eps_05_rows_sum_to_order_one(self):
        # p = 0.5 = eps falls in bracket 1, so the Oil row and three Seismic
        # rows sum to (+,1), not (+,0): a rule that every row sums to (+,0)
        # would reject this correct conversion
        o = convert(wildcatter(), ConversionConfig(0.5))
        cpts = printed(o)[0]
        assert cpts["Oil"] == ["(+,1)", "(+,1)", "(+,2)"]
        rows = [cpts["Seismic"][i : i + 3] for i in range(0, 18, 3)]
        assert sum(row == ["(+,1)"] * 3 for row in rows) == 3
        assert validate(o) == []
        sol = elim_oom_id(o)
        oracle = brute_force_oom(o)
        assert sol.meu == oracle.meu
        assert sol.policies == oracle.policies

    def test_eps_0001_all_trivial(self):
        cpts, utilities = printed(convert(wildcatter(), ConversionConfig(0.001)))
        for table in cpts.values():
            assert all(x == "(+,0)" for x in table)
        assert utilities[("Oil", "Drill")] == [
            "{(-,0)}",
            "{(+-,inf)}",
            "{(+,0)}",
            "{(+-,inf)}",
            "{(+,0)}",
            "{(+-,inf)}",
        ]


class TestOOMSerialization:
    def test_round_trip(self, tmp_path):
        o = convert(wildcatter(), E01)
        path = tmp_path / "w_oom.json"
        save(o, path)
        again = load(path)
        assert again == o

    def test_dict_form_uses_text_tables(self):
        o = convert(wildcatter(), E01)
        data = to_dict(o)
        oil = next(c for c in data["cpts"] if c["child"] == "Oil")
        assert oil["table"] == ["(+,0)", "(+,0)", "(+,0)"]
        assert from_dict(data) == o


# ---------------------------------------------------------------------------
# the array quantizer against the scalar bracket loop it replaced


def oracle_exponent(x: float, eps: float) -> int:
    """The integer k with ``eps**(k+1) < x <= eps**k``, one entry at a time:
    a logarithm's candidate, snapped by direct comparisons."""
    guess = int(math.floor(math.log(x) / math.log(eps)))
    for k in (guess - 1, guess, guess + 1, guess + 2):
        if eps ** (k + 1) < x <= eps**k:
            return k
    raise ArithmeticError(f"no bracket found for {x} at epsilon={eps}")


def oracle_prob(p: float, eps: float) -> OOMValue:
    return ZERO if p == 0.0 else OOMValue(Sign.PLUS, oracle_exponent(p, eps))


def oracle_util(u: float, eps: float):
    if u == 0.0:
        return ZERO_SET
    sign = Sign.PLUS if u > 0 else Sign.MINUS
    return singleton(OOMValue(sign, -oracle_exponent(1.0 / abs(u), eps)))


def brackets(x: float, k: int, eps: float) -> bool:
    """``eps**(k+1) < x <= eps**k``, with both powers finite."""
    try:
        return eps ** (k + 1) < x <= eps**k
    except OverflowError:
        return False


def agrees_with_oracle(got, oracle, x: float, eps: float, bracketed) -> bool:
    """``got`` (a value, a set, or the ``DiagramError`` raised) is the
    oracle's answer.  Where the oracle raises, the array path may still
    find the bracket: the loop overflows when ``eps**k`` for a neighbouring
    candidate leaves the float range, which happens only for ``x`` near the
    largest float."""
    try:
        expected = oracle(x, eps)
    except ArithmeticError:
        return isinstance(got, DiagramError) or bracketed(got)
    return got == expected


EPSILONS = (0.5, 0.1, 0.05, 0.005, 1e-3)
SMALLEST_NORMAL = 2.2250738585072014e-308


def near_powers(eps: float, exponents) -> st.SearchStrategy:
    """``eps**k`` and its two float neighbours, for finite powers."""

    def build(k: int, step: int) -> float:
        try:
            x = eps**k
        except OverflowError:
            return math.inf
        return float(np.nextafter(x, math.copysign(math.inf, step))) if step else x

    return st.builds(build, exponents, st.sampled_from((-1, 0, 1))).filter(math.isfinite)


def probabilities(eps: float) -> st.SearchStrategy:
    return st.one_of(
        st.sampled_from((0.0, 1.0)),
        st.floats(0.0, 1.0),
        st.floats(5e-324, SMALLEST_NORMAL),
        near_powers(eps, st.integers(0, 1100)).filter(lambda p: 0.0 <= p <= 1.0),
    )


def utilities(eps: float) -> st.SearchStrategy:
    magnitudes = st.one_of(
        st.sampled_from((0.0, 1.0)),
        st.floats(0.0, allow_infinity=False),
        st.floats(5e-324, SMALLEST_NORMAL),
        near_powers(eps, st.integers(-1100, 1100)),
    )
    return st.builds(lambda m, negative: -m if negative else m, magnitudes, st.booleans())


def quantized(fn, x, cfg):
    try:
        return fn(x, cfg)
    except DiagramError as exc:
        return exc


def numeric_diagram(probs: list[float], utils: list[float]) -> InfluenceDiagram:
    """A valid diagram holding ``probs`` as the rows ``(p, 1 - p)`` of X's
    CPT and ``utils`` as one utility table."""

    def chance(name: str, size: int) -> Variable:
        return Variable(name, Kind.CHANCE, tuple(f"{name}{i}" for i in range(size)))

    rows = tuple(x for p in probs for x in (p, 1.0 - p))
    return InfluenceDiagram(
        variables=(chance("R", len(probs)), chance("X", 2), chance("W", len(utils))),
        cpts=(
            CPT("R", (), (1.0 / len(probs),) * len(probs)),
            CPT("X", ("R",), rows),
            CPT("W", (), (1.0 / len(utils),) * len(utils)),
        ),
        utilities=(UtilityFunction(("W",), tuple(utils)),),
        decision_order=(),
        information_sets={},
    )


@given(st.data())
def test_convert_matches_scalar_oracle(data):
    eps = data.draw(st.sampled_from(EPSILONS))
    cfg = ConversionConfig(eps)
    probs = data.draw(st.lists(probabilities(eps), min_size=1, max_size=12))
    utils = data.draw(st.lists(utilities(eps), min_size=1, max_size=12))
    d = numeric_diagram(probs, utils)
    prob_entries = [x for c in d.cpts for x in c.table.tolist()]
    got_probs = [quantized(spohn_prob, p, cfg) for p in prob_entries]
    got_utils = [quantized(spohn_util, u, cfg) for u in utils]
    for p, got in zip(prob_entries, got_probs):
        assert agrees_with_oracle(
            got, oracle_prob, p, eps, lambda v: brackets(p, v.order, eps)
        ), (p, eps, got)
    for u, got in zip(utils, got_utils):
        assert agrees_with_oracle(
            got, oracle_util, u, eps, lambda s: brackets(1.0 / abs(u), -s.elements[0].order, eps)
        ), (u, eps, got)
    # the whole diagram in one pass: the same entries, or the same failure;
    # a utility above half the largest float fails validation
    if validate(d) or any(isinstance(x, DiagramError) for x in got_probs + got_utils):
        with pytest.raises(DiagramError):
            convert(d, cfg)
        return
    o = convert(d, cfg)
    assert [decode_value(k, math.inf) for c in o.cpts for k in c.table.tolist()] == got_probs
    cells = np.moveaxis(o.utilities[0].table, -1, 0)
    assert [decode_set(cell) for cell in cells] == got_utils


@pytest.mark.parametrize("eps", EPSILONS)
def test_exact_powers_and_neighbours(eps):
    for k in range(0, 40):
        for x in (eps**k, np.nextafter(eps**k, 0.0), np.nextafter(eps**k, 1.0)):
            x = float(x)
            if 0.0 < x <= 1.0:
                assert spohn_prob(x, ConversionConfig(eps)) == oracle_prob(x, eps)
            assert spohn_util(1.0 / x, ConversionConfig(eps)) == oracle_util(1.0 / x, eps)
            assert spohn_util(-x, ConversionConfig(eps)) == oracle_util(-x, eps)


def test_no_bracket_raises():
    # 1/|u| overflows to inf for the smallest subnormal utilities
    with pytest.raises(DiagramError, match=r"1/\|u\| overflows"):
        spohn_util(5e-324, E01)
    # near 1, eps**k rounds to the same subnormal over a long run of k, so
    # the bracket lies far from the logarithm's guess
    for p in (5e-324, 1e-323, 1e-322):
        with pytest.raises(ArithmeticError):
            oracle_prob(p, 0.999)
        with pytest.raises(DiagramError, match="no bracket"):
            spohn_prob(p, ConversionConfig(0.999))


def test_orders_beyond_the_float64_bound_rejected():
    # at eps = 1 - 2**-46, 1e-3 is of order 4.9e14 and 1e-50 of order 8.1e15;
    # three CPTs allow (2**53 - 1) // 4, about 2.3e15
    cfg = ConversionConfig(1 - 2.0**-46)
    within, beyond = numeric_diagram([1e-3], [1.0]), numeric_diagram([1e-50], [1.0])
    assert order_limit(within) == (2**53 - 1) // 4
    assert validate(convert(within, cfg)) == []
    with pytest.raises(DiagramError, match="exceeds"):
        convert(beyond, cfg)
    # one entry alone has no sums to keep exact
    assert spohn_prob(1e-50, cfg).order == 8101501067809976


def test_bracket_found_where_the_loop_overflowed():
    # 1/|u| = 2**1023: the loop's first candidate needs 0.5**-1024, which
    # overflows, so it raised; the bracket 2**1022 < 2**1023 <= 2**1023 exists
    u = 2.0**-1023
    with pytest.raises(ArithmeticError):
        oracle_util(u, 0.5)
    assert spohn_util(u, ConversionConfig(0.5)) == singleton(v("+", 1023))
    assert spohn_util(-u, ConversionConfig(0.5)) == singleton(v("-", 1023))


@pytest.mark.parametrize("eps", EPSILONS)
def test_top_of_float_range(eps):
    # 1/|u| within a few factors of the largest float, where the loop's
    # powers overflow
    for m in np.geomspace(2.0**-1025, 2.0**-1015, 500).tolist():
        for u in (m, -m):
            got = quantized(spohn_util, u, ConversionConfig(eps))
            assert agrees_with_oracle(
                got, oracle_util, u, eps,
                lambda s: brackets(1.0 / abs(u), -s.elements[0].order, eps),
            ), (u, eps, got)


GENERATED = pytest.mark.parametrize(
    "params",
    [
        GeneratorParams(n_c=n - 5, n_d=5, utility_class=cls, seed=seed)
        for n, seed in ((25, 0), (35, 1), (45, 2))
        for cls in "PM"
    ]
    + [GeneratorParams(n_c=20, n_d=5, k=3, utility_class="M", seed=7)],
    ids=lambda p: f"n{p.n_c + p.n_d}-k{p.k}-{p.utility_class}",
)


@GENERATED
def test_converted_diagrams_valid(params):
    # convert records its output as valid without running validate; this
    # is the check that the record is true
    d = generate(params)
    for eps in (0.5, 0.05, 0.005):
        assert validate(convert(d, ConversionConfig(eps))) == []


@GENERATED
def test_converted_diagrams_keep_ordering(params):
    # convert hands over the numeric diagram's recorded skeleton, the same
    # object at every epsilon; a copy of the converted diagram finds its
    # own, which must equal it
    d = generate(params)
    assert convert(d, E01)._skeleton is None
    record = skeleton(d)
    for eps in (0.5, 0.05, 0.005):
        oom = convert(d, ConversionConfig(eps))
        assert oom._skeleton is record
        assert skeleton(replace(oom)) == record
