import math
import random
import re
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oomid.diagram as diagram_module
from oomid.convert import ConversionConfig, convert
from oomid.diagram import (
    CPT,
    ROW_TOLERANCE,
    DiagramError,
    InfluenceDiagram,
    Kind,
    OOMInfluenceDiagram,
    UtilityFunction,
    Variable,
    apply_nonforgetting,
    from_dict,
    load,
    order_limit,
    save,
    to_dict,
    validate,
    wildcatter,
    _cpt_problem,
    _orders_beyond,
)
from oomid.exact import solve_exact
from oomid.generator import GeneratorParams, generate
from oomid.oom_solve import elim_oom_id
from oomid.ordering import (
    induced_width,
    is_legal_ordering,
    legal_ordering,
    temporal_partition,
)
from oomid.sets import ZERO_SET, encode_orders, encode_sets, singleton
from oomid.values import ZERO, OOMValue, Sign

PROBABILITY_MESSAGE = "entries must be positive or zero order-of-magnitude values"


def tiny_chain_doc():
    """X -> D -> Y with a utility on (D, Y); D observes X."""
    return {
        "variables": [
            {"id": "X", "kind": "chance", "domain": ["a", "b"]},
            {"id": "D", "kind": "decision", "domain": ["l", "r"]},
            {"id": "Y", "kind": "chance", "domain": ["t", "f"]},
        ],
        "cpts": [
            {"child": "X", "parents": [], "table": [0.4, 0.6]},
            {"child": "Y", "parents": ["D"], "table": [0.9, 0.1, 0.2, 0.8]},
        ],
        "utilities": [{"scope": ["D", "Y"], "table": [10, 0, 2, 5]}],
        "decision_order": ["D"],
        "information_sets": {"D": ["X"]},
    }


def tiny_chain(nonforgetting=True):
    return from_dict(tiny_chain_doc(), nonforgetting=nonforgetting)


def edited_chain(edit):
    doc = tiny_chain_doc()
    edit(doc)
    return doc


class TestWildcatterFixture:
    def test_validates(self):
        assert validate(wildcatter()) == []

    def test_golden_tables(self):
        # row-major layout: parents first (first slowest), child fastest
        d = wildcatter()
        oil = next(c for c in d.cpts if c.child == "Oil")
        assert oil.table.tolist() == [0.5, 0.3, 0.2]
        seismic = next(c for c in d.cpts if c.child == "Seismic")
        assert seismic.parents == ("Oil", "Test")
        assert seismic.table[0:3].tolist() == [0.01, 0.04, 0.95]  # Oil=dry, Test=yes
        assert seismic.table[6:9].tolist() == [0.08, 0.9, 0.02]  # Oil=wet, Test=yes
        assert seismic.table[12:15].tolist() == [0.9, 0.095, 0.005]  # Oil=soaking, Test=yes
        u2 = next(u for u in d.utilities if u.scope == ("Oil", "Drill"))
        assert u2.table.tolist() == [-70, 0, 50, 0, 200, 0]
        u1 = next(u for u in d.utilities if u.scope == ("Test",))
        assert u1.table.tolist() == [-10, 0]

    def test_nonforgetting_closure_adds_earlier_decision(self):
        raw = wildcatter(nonforgetting=False)
        assert raw.information_sets["Drill"] == ("Seismic",)
        closed = wildcatter()
        assert closed.information_sets["Drill"] == ("Test", "Seismic")

    def test_closed_diagram_is_its_own_closure(self):
        closed = wildcatter()
        assert apply_nonforgetting(closed) is closed
        raw = wildcatter(nonforgetting=False)
        closure = apply_nonforgetting(raw)
        assert closure is not raw
        assert closure.information_sets == closed.information_sets
        assert apply_nonforgetting(closure) is closure

    def test_temporal_partition(self):
        assert temporal_partition(wildcatter()) == [
            ("Oil",), ("Drill",), ("Seismic",), ("Test",), ()
        ]

    def test_round_trip(self, tmp_path):
        d = wildcatter(nonforgetting=False)
        path = tmp_path / "w.json"
        save(d, path)
        again = load(path, nonforgetting=False)
        assert again == d


class TestValidate:
    def test_cpt_row_not_normalized(self):
        d = tiny_chain()
        bad = InfluenceDiagram(
            variables=d.variables,
            cpts=(d.cpts[0], CPT("Y", ("D",), (0.8, 0.1, 0.2, 0.8))),
            utilities=d.utilities,
            decision_order=d.decision_order,
            information_sets=d.information_sets,
        )
        assert any("sum to 1" in v for v in validate(bad))

    def test_decision_parent_follows_it(self):
        data = {
            "variables": [
                {"id": "D1", "kind": "decision", "domain": ["a", "b"]},
                {"id": "D2", "kind": "decision", "domain": ["a", "b"]},
            ],
            "cpts": [],
            "utilities": [{"scope": ["D2"], "table": [1, 0]}],
            "decision_order": ["D1", "D2"],
            "information_sets": {"D1": ["D2"], "D2": []},
        }
        d = from_dict(data, nonforgetting=False)
        assert any("does not precede" in v for v in validate(d))

    def test_missing_cpt(self):
        d = tiny_chain()
        bad = InfluenceDiagram(
            variables=d.variables,
            cpts=d.cpts[:1],
            utilities=d.utilities,
            decision_order=d.decision_order,
            information_sets=d.information_sets,
        )
        assert any("missing cpt" in v for v in validate(bad))

    def test_no_utilities(self):
        d = tiny_chain()
        bad = InfluenceDiagram(
            variables=d.variables,
            cpts=d.cpts,
            utilities=(),
            decision_order=d.decision_order,
            information_sets=d.information_sets,
        )
        assert any("no utility" in v for v in validate(bad))

    def test_cycle_detected(self):
        data = {
            "variables": [
                {"id": "X", "kind": "chance", "domain": ["a", "b"]},
                {"id": "Y", "kind": "chance", "domain": ["a", "b"]},
            ],
            "cpts": [
                {"child": "X", "parents": ["Y"], "table": [0.5, 0.5, 0.5, 0.5]},
                {"child": "Y", "parents": ["X"], "table": [0.5, 0.5, 0.5, 0.5]},
            ],
            "utilities": [{"scope": ["X"], "table": [1, 0]}],
            "decision_order": [],
            "information_sets": {},
        }
        d = from_dict(data)
        assert any("cycle" in v for v in validate(d))

    def test_observed_chance_depending_on_later_decision(self):
        # S depends on D but is observed when D is made
        data = {
            "variables": [
                {"id": "S", "kind": "chance", "domain": ["a", "b"]},
                {"id": "D", "kind": "decision", "domain": ["l", "r"]},
            ],
            "cpts": [
                {"child": "S", "parents": ["D"], "table": [0.5, 0.5, 0.5, 0.5]},
            ],
            "utilities": [{"scope": ["D"], "table": [1, 0]}],
            "decision_order": ["D"],
            "information_sets": {"D": ["S"]},
        }
        assert validate(from_dict(data)) == ["graph has a directed cycle"]

    def test_evidence_checked(self):
        data = {
            "variables": [{"id": "X", "kind": "chance", "domain": ["a", "b"]}],
            "cpts": [{"child": "X", "parents": [], "table": [0.3, 0.7]}],
            "utilities": [{"scope": ["X"], "table": [1, 2]}],
            "decision_order": [],
            "information_sets": {},
            "evidence": {},
        }
        assert validate(from_dict(data)) == []
        data["evidence"] = {"X": "a"}
        with pytest.raises(DiagramError, match="evidence"):
            from_dict(data)

    def test_observed_chance_depending_on_later_decision_open_sets(self):
        # S depends on D2 and is observed at D1; closing the sets makes D2
        # observe D1, and D2 -> S -> D1 -> D2 a cycle, open sets or not
        data = {
            "variables": [
                {"id": "S", "kind": "chance", "domain": ["a", "b"]},
                {"id": "D1", "kind": "decision", "domain": ["l", "r"]},
                {"id": "D2", "kind": "decision", "domain": ["l", "r"]},
            ],
            "cpts": [{"child": "S", "parents": ["D2"], "table": [0.5, 0.5, 0.5, 0.5]}],
            "utilities": [{"scope": ["D1"], "table": [1, 0]}],
            "decision_order": ["D1", "D2"],
            "information_sets": {"D1": ["S"], "D2": []},
        }
        assert validate(from_dict(data, nonforgetting=False)) == ["graph has a directed cycle"]
        assert validate(from_dict(data)) == ["graph has a directed cycle"]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["variables"][0].update(domain=[]), "variable X: empty domain"),
            (
                lambda d: d["variables"][0].update(domain=["a", "a"]),
                "variable X: duplicate domain labels",
            ),
            (
                lambda d: d["information_sets"].update(D=["X", "X"]),
                "decision D: duplicate parents",
            ),
            (
                lambda d: d["information_sets"].update(D=["X", "D"]),
                "decision D: observes itself",
            ),
        ],
        ids=["empty domain", "duplicate labels", "duplicate parents", "observes itself"],
    )
    def test_structure_messages(self, edit, message):
        assert validate(from_dict(edited_chain(edit), nonforgetting=False)) == [message]

    def test_entry_type_messages(self):
        d = tiny_chain()
        text_cpt = CPT("X", (), ("a", 0.6))
        float_cpt = CPT("X", (), (0.4, 0.6))
        none_utility = UtilityFunction(("D", "Y"), (10, None, 2, 5))
        utility_name = "utility 0 over ['D', 'Y']"
        assert validate(replace(d, cpts=(text_cpt, d.cpts[1]))) == [
            "cpt for X: non-numeric entries"
        ]
        assert validate(replace(d, utilities=(none_utility,))) == [
            f"{utility_name}: non-numeric entries"
        ]
        oom = convert(d, ConversionConfig(0.1))
        assert validate(replace(oom, cpts=(float_cpt, oom.cpts[1]))) == [
            "cpt for X: entries must be positive or zero order-of-magnitude values"
        ]
        assert validate(replace(oom, utilities=d.utilities)) == [
            f"{utility_name}: entries must be order-of-magnitude sets"
        ]

    def test_non_float_tables_of_the_right_shape(self):
        # a qualitative table laid out as its kind needs, holding text or
        # objects where orders belong, is named by its kind, and the
        # solver rejects it before elimination
        oom = convert(tiny_chain(), ConversionConfig(0.1))
        text_cpt = CPT("X", (), ("a", "b"))
        object_utility = UtilityFunction(("D", "Y"), oom.utilities[0].table.astype(object))
        cases = [
            (replace(oom, cpts=(text_cpt, oom.cpts[1])), f"cpt for X: {PROBABILITY_MESSAGE}"),
            (
                replace(oom, utilities=(object_utility,)),
                "utility 0 over ['D', 'Y']: entries must be order-of-magnitude sets",
            ),
        ]
        for edited, message in cases:
            assert validate(edited) == [message]
            with pytest.raises(DiagramError, match=re.escape(message)):
                elim_oom_id(edited)

    def test_orders_within_the_float64_bound(self):
        oom = convert(tiny_chain(), ConversionConfig(0.1))
        limit = order_limit(oom)
        assert limit == (2**53 - 1) // 3  # two CPTs
        for k in (limit, -limit, limit + 1, -limit - 1):
            one = singleton(OOMValue(Sign.PLUS, k))
            utility = UtilityFunction(("D", "Y"), encode_sets((one, ZERO_SET, ZERO_SET, one)))
            orders = encode_orders((OOMValue(Sign.PLUS, abs(k)), OOMValue(Sign.PLUS, 0)))
            cpt = CPT("X", (), orders)
            for edited in (
                replace(oom, utilities=(utility,)),
                replace(oom, cpts=(cpt, oom.cpts[1])),
            ):
                problems = validate(edited)
                if abs(k) <= limit:
                    assert problems == []
                else:
                    assert len(problems) == 1 and "orders must lie within" in problems[0]

    def test_utilities_summing_past_the_largest_float(self):
        d = tiny_chain()
        half = UtilityFunction(("D", "Y"), (8.9e307, 0.0, 0.0, -8.9e307))
        assert validate(replace(d, utilities=(half,))) == []
        assert validate(replace(d, utilities=(half, half))) == [
            "utilities: largest magnitudes sum above half the largest float"
        ]

    @pytest.mark.parametrize(
        "cpt, message",
        [
            (CPT("X", (), (math.nan, 0.0)), PROBABILITY_MESSAGE),
            (CPT("X", (), (1.5, 0.0)), PROBABILITY_MESSAGE),
            (CPT("X", (), (-math.inf, 0.0)), PROBABILITY_MESSAGE),
            (CPT("X", (), encode_orders((ZERO, ZERO))), "row 0 has no non-zero entry"),
        ],
        ids=["nan", "1.5", "-inf", "zero row"],
    )
    def test_library_built_order_arrays(self, cpt, message):
        oom = convert(tiny_chain(), ConversionConfig(0.1))
        assert validate(replace(oom, cpts=(cpt, oom.cpts[1]))) == [f"cpt for X: {message}"]

    @pytest.mark.parametrize(
        "cell",
        [
            [[1.0, 1.0], [2.0, 2.0]],  # an end with two finite bit orders
            [[0.0, 1.0], [np.inf, np.inf]],  # a pair whose low end is (+,0)
            [[2.0, 1.0], [2.0, np.inf]],  # a +- low end above the high end
            [[1.0, 1.0], [1.0, np.inf]],  # (+-,1) then (+,1)
            [[np.nan, np.nan], [np.nan, np.nan]],
            [[0.5, 0.5], [np.inf, np.inf]],
        ],
        ids=["two orders", "positive low end", "low above high", "equal orders", "nan", "0.5"],
    )
    def test_library_built_non_canonical_sets(self, cell):
        oom = convert(tiny_chain(), ConversionConfig(0.1))
        table = np.array(oom.utilities[0].table)
        table[:, :, 1] = cell
        edited = replace(oom, utilities=(UtilityFunction(("D", "Y"), table),))
        assert validate(edited) == [
            "utility 0 over ['D', 'Y']: entries must be order-of-magnitude sets"
        ]

    def test_two_dimensional_numeric_table(self):
        d = tiny_chain()
        cpt = CPT("X", (), [[0.4, 0.6]])
        assert validate(replace(d, cpts=(cpt, d.cpts[1]))) == [
            "cpt for X: table has shape (1, 2), expected (2,)"
        ]

    def test_malformed_document(self):
        with pytest.raises(DiagramError):
            from_dict({"variables": []})

    @pytest.mark.parametrize(
        "document, message",
        [
            ([], "not a JSON object"),
            ({**tiny_chain_doc(), "information_sets": []}, "information_sets must be an object"),
            (edited_chain(lambda d: d["variables"][0].update(id=3)), "expected a name, got 3"),
            (
                edited_chain(lambda d: d["cpts"][0].update(parents="X")),
                "expected a list of names, got 'X'",
            ),
        ],
        ids=["not an object", "information sets", "name", "list of names"],
    )
    def test_malformed_document_messages(self, document, message):
        with pytest.raises(DiagramError, match=message):
            from_dict(document)

    @pytest.mark.parametrize("entry", ["(+,0)", None, True, [0.5]])
    def test_table_entries_decide_the_kind(self, entry):
        data = {
            "variables": [{"id": "X", "kind": "chance", "domain": ["a", "b"]}],
            "cpts": [{"child": "X", "parents": [], "table": [entry, 0.5]}],
            "utilities": [{"scope": ["X"], "table": [1, 2]}],
            "decision_order": [],
            "information_sets": {},
        }
        with pytest.raises(DiagramError, match="mix|neither"):
            from_dict(data)


def renamed(d, old, new):
    """``d`` with variable ``old`` called ``new`` in every field."""

    def one(x):
        return new if x == old else x

    def names(xs):
        return tuple(map(one, xs))

    return replace(
        d,
        variables=tuple(replace(v, id=one(v.id)) for v in d.variables),
        cpts=tuple(replace(c, child=one(c.child), parents=names(c.parents)) for c in d.cpts),
        utilities=tuple(replace(u, scope=names(u.scope)) for u in d.utilities),
        decision_order=names(d.decision_order),
        information_sets={one(k): names(ps) for k, ps in d.information_sets.items()},
    )


def with_utility_only_variable(d, kind):
    """``d`` plus a variable of ``kind`` that only a new utility names."""
    table = d.utilities[0].table
    z = Variable("Z", kind, tuple(map(str, range(table.shape[-1]))))
    return replace(
        d, variables=d.variables + (z,), utilities=d.utilities + (UtilityFunction(("Z",), table),)
    )


def wrong_typed(value):
    """Values of another type than ``value`` that code may still pass."""
    out = [None]
    if isinstance(value, tuple):
        out.append(list(value))
        if all(isinstance(x, str) for x in value):
            out.append((0, *value[1:]))  # an integer id or label
    if isinstance(value, Kind):
        out += [value.value, "other"]
    if isinstance(value, str):
        out += [0, [value]]
    if isinstance(value, dict):
        out += [list(value.items())]
    return out


def wrong_typed_mutants(d):
    """Builders of ``d`` with one field, or one field of a variable, CPT,
    utility or information set, of a wrong type, with one variable renamed
    to an integer, or with a variable of a wrong-typed kind that only a
    utility names."""

    def swap(group, i, **change):
        items = list(getattr(d, group))
        items[i] = replace(items[i], **change)
        return replace(d, **{group: tuple(items)})

    for name in ("variables", "cpts", "utilities", "decision_order", "information_sets"):
        for w in wrong_typed(getattr(d, name)):
            yield partial(replace, d, **{name: w})
    for group, attrs in (
        ("variables", ("id", "kind", "domain")),
        ("cpts", ("child", "parents")),
        ("utilities", ("scope",)),
    ):
        for i, item in enumerate(getattr(d, group)):
            for a in attrs:
                for w in wrong_typed(getattr(item, a)):
                    yield partial(swap, group, i, **{a: w})
    for k, ps in d.information_sets.items():
        for w in wrong_typed(ps):
            yield partial(replace, d, information_sets={**d.information_sets, k: w})
    for v in d.variables:
        yield partial(renamed, d, v.id, 0)
    for kind in wrong_typed(Kind.CHANCE):
        yield partial(with_utility_only_variable, d, kind)


class TestLibraryBuiltFields:
    # from_dict gives every field its type; a diagram built in Python may
    # not have it, and gets one message instead of a traceback
    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda d: with_utility_only_variable(d, "chance"),
                "variable 'Z': id must be a string, kind a Kind, domain a tuple of strings",
            ),
            (
                lambda d: renamed(d, "Y", 1),
                "variable 1: id must be a string, kind a Kind, domain a tuple of strings",
            ),
            (
                lambda d: replace(d, cpts=(d.cpts[0], replace(d.cpts[1], parents=["D"]))),
                "cpt for 'Y': child must be a string and parents a tuple of strings",
            ),
            (
                lambda d: replace(d, information_sets=None),
                "information_sets must map strings to tuples of strings",
            ),
            (
                lambda d: replace(d, decision_order=None),
                "decision_order must be a tuple of strings",
            ),
        ],
        ids=["string kind", "integer id", "list of parents", "no information sets", "no order"],
    )
    def test_wrong_type_is_one_message(self, edit, message):
        numeric = tiny_chain()
        assert validate(edit(numeric)) == [message]
        with pytest.raises(DiagramError, match=re.escape(message)):
            solve_exact(edit(numeric))
        with pytest.raises(DiagramError, match=re.escape(message)):
            convert(edit(numeric), ConversionConfig(0.1))
        oom = edit(convert(numeric, ConversionConfig(0.1)))
        assert validate(oom) == [message]
        with pytest.raises(DiagramError, match=re.escape(message)):
            elim_oom_id(oom)

    def test_wrong_typed_mutants_solve_or_raise_diagram_error(self):
        sources = [wildcatter()] + [
            generate(GeneratorParams(n_c=4, n_d=2, k=3, p=2, r=2, a=2, seed=seed))
            for seed in range(3)
        ]
        built, config = 0, ConversionConfig(0.1)
        for numeric in sources:
            for d in (numeric, convert(numeric, config)):
                for make in wrong_typed_mutants(d):
                    try:
                        mutant = make()
                    except TypeError:
                        continue  # does not construct
                    built += 1
                    assert isinstance(validate(mutant), list)
                    if isinstance(mutant, OOMInfluenceDiagram):
                        runs = [elim_oom_id]
                    else:
                        runs = [solve_exact, lambda m: elim_oom_id(convert(m, config))]
                    for run in runs:
                        try:
                            run(mutant)
                        except DiagramError:
                            pass
        assert built >= 400, built


def round_trip_diagrams():
    yield "wildcatter", wildcatter()
    yield "wildcatter-open", wildcatter(nonforgetting=False)
    for eps in (0.5, 0.1, 0.005):
        yield f"wildcatter-eps{eps}", convert(wildcatter(), ConversionConfig(eps))
    for n in (25, 45):
        for cls in "PM":
            params = GeneratorParams(n_c=n - 5, n_d=5, utility_class=cls, seed=n)
            yield f"n{n}-{cls}", generate(params)


class TestTables:
    @pytest.mark.parametrize("name, diagram", list(round_trip_diagrams()))
    def test_save_load_round_trip(self, name, diagram, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save(diagram, first)
        again = load(first, nonforgetting=False)
        assert again == diagram
        save(again, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("source", ["generate", "from_dict", "convert", "tuple"])
    def test_tables_are_read_only(self, source):
        if source == "tuple":
            functions = [CPT("X", (), (0.4, 0.6)), UtilityFunction(("X",), (1, 2))]
        else:
            diagram = {
                "generate": lambda: generate(GeneratorParams(n_c=10, n_d=2, seed=1)),
                "from_dict": wildcatter,
                "convert": lambda: convert(wildcatter(), ConversionConfig(0.1)),
            }[source]()
            functions = [*diagram.cpts, *diagram.utilities]
        for f in functions:
            assert f.table.dtype == float
            with pytest.raises(ValueError):
                f.table[..., 0] = 0.5
            with pytest.raises(ValueError):
                np.asarray(f.table)[...] = 0.5

    def test_equal_tables_compare_equal_and_are_unhashable(self):
        a, b = CPT("X", (), (0.4, 0.6)), CPT("X", (), np.array([0.4, 0.6]))
        assert a == b and a != CPT("X", (), (0.6, 0.4))
        assert a.__eq__((0.4, 0.6)) is NotImplemented and (a == (0.4, 0.6)) is False
        with pytest.raises(TypeError):
            hash(a)

    def test_repr_lists_every_entry(self):
        table = np.arange(1024) / 1024
        u = UtilityFunction(tuple(f"X{i}" for i in range(10)), table)
        assert repr(u) == f"UtilityFunction(scope={u.scope!r}, table={tuple(table.tolist())!r})"
        assert "..." not in repr(u)

    def test_qualitative_file_entries_print_back(self):
        oom = convert(wildcatter(), ConversionConfig(0.1))
        doc = to_dict(oom)
        assert from_dict(doc) == oom
        assert doc["utilities"][0]["table"] == ["{(-,-1)}", "{(+-,inf)}"]


def oracle_graph_violations(diagram):
    """The graph checks that one cycle check on the non-forgetting closure
    replaced: a cycle in the diagram's own arcs, then each chance variable
    observed at a decision it depends on or that precedes one it depends on."""
    parents = {v.id: set() for v in diagram.variables}
    for cpt in diagram.cpts:
        parents[cpt.child].update(cpt.parents)
    for d, observed in diagram.information_sets.items():
        parents[d].update(observed)

    # ancestors in topological order; variables left over lie on a cycle
    children = {v: [] for v in parents}
    for v, ps in parents.items():
        for p in ps:
            children[p].append(v)
    waiting = {v: len(ps) for v, ps in parents.items()}
    ready = [v for v, n in waiting.items() if n == 0]
    ancestors = {}
    while ready:
        u = ready.pop()
        ancestors[u] = set(parents[u]).union(*(ancestors[p] for p in parents[u]))
        for w in children[u]:
            waiting[w] -= 1
            if waiting[w] == 0:
                ready.append(w)
    if len(ancestors) != len(parents):
        return ["graph has a directed cycle"]

    # a chance variable observed at decision k must not depend on a decision
    # made at k or later
    out = []
    chance = set(diagram.chance_vars)
    order = diagram.decision_order
    for k, d in enumerate(order):
        not_yet_made = set(order[k:])
        for p in diagram.information_sets.get(d, ()):
            if p in chance and ancestors[p] & not_yet_made:
                out.append(
                    f"chance variable {p} is observed at {d} but depends on a later decision"
                )
    return out


def random_structure(rng):
    """A diagram of 1-4 chance variables and 1-3 decisions with random CPT
    parents, information sets and decision order, and uniform tables.  Each
    decision observes chance variables and decisions earlier in the order,
    so ``validate`` reaches its graph check."""
    chance = [f"X{i}" for i in range(rng.randint(1, 4))]
    decisions = [f"D{i}" for i in range(rng.randint(1, 3))]
    order = rng.sample(decisions, len(decisions))
    names = chance + decisions
    cpts = []
    for x in chance:
        parents = tuple(v for v in names if v != x and rng.random() < 0.25)
        cpts.append(CPT(x, parents, (0.5,) * 2 ** (len(parents) + 1)))
    info = {
        d: tuple(v for v in chance + order[:k] if rng.random() < 0.25)
        for k, d in enumerate(order)
    }
    return InfluenceDiagram(
        variables=tuple(
            Variable(v, Kind.CHANCE if v in chance else Kind.DECISION, ("a", "b"))
            for v in names
        ),
        cpts=tuple(cpts),
        utilities=(UtilityFunction((rng.choice(names),), (1.0, 0.0)),),
        decision_order=tuple(order),
        information_sets=info,
    )


class TestGraphCheckOracle:
    def test_same_verdicts_on_random_diagrams(self):
        # open and closed information sets: one cycle check on the closure
        # rejects exactly what the raw cycle and temporal checks rejected
        rng = random.Random(0)
        seen = Counter()
        for _ in range(2000):
            raw = random_structure(rng)
            for sets, diagram in (("open", raw), ("closed", apply_nonforgetting(raw))):
                problems = validate(diagram)
                assert problems in ([], ["graph has a directed cycle"])
                expected = oracle_graph_violations(diagram)
                assert bool(problems) == bool(expected), (diagram, expected)
                verdict = "accepted"
                if expected:
                    verdict = "cycle" if "cycle" in expected[0] else "temporal"
                seen[sets, verdict] += 1
        # every verdict occurs; only open sets let a temporal violation
        # through the oracle's cycle check
        assert set(seen) == {
            ("open", "accepted"),
            ("open", "cycle"),
            ("open", "temporal"),
            ("closed", "accepted"),
            ("closed", "cycle"),
        }, seen
        assert min(seen.values()) >= 20, seen


def oracle_cpt_problems(tables, widths, qualitative, limit):
    """The first entry problem of each float CPT table, ``widths`` giving
    its row length, found in one array pass over all the tables: each row
    gets the index of the first check it fails, each table the least."""
    if not tables:
        return []
    rows = [t.size // k for t, k in zip(tables, widths)]
    row_widths = np.repeat(widths, rows)
    row_starts = np.cumsum(row_widths) - row_widths
    flat = np.concatenate(tables)
    any_in_row = partial(np.logical_or.reduceat, indices=row_starts)
    with np.errstate(all="ignore"):  # nan and inf entries are reported, not warned
        if qualitative:
            zero = flat == math.inf
            integral = np.isfinite(flat) & (flat == np.floor(flat))
            checks = [
                (PROBABILITY_MESSAGE, any_in_row(~(zero | integral))),
                ("probability orders must be at least 0", any_in_row(flat < 0)),
                ("row {} has no non-zero entry", ~any_in_row(~zero)),
                (_orders_beyond(limit), any_in_row(integral & (np.abs(flat) > limit))),
            ]
        else:
            sums = np.add.reduceat(flat, row_starts)
            checks = [
                ("entries outside [0, 1]", any_in_row(~((flat >= 0.0) & (flat <= 1.0)))),
                ("rows do not sum to 1", np.abs(sums - 1.0) > ROW_TOLERANCE),
            ]
    messages, bad = zip(*checks)
    first = np.argmax(np.vstack([*bad, np.ones_like(bad[0])]), axis=0)  # per row
    first_rows = np.cumsum(rows) - rows
    least = np.minimum.reduceat(first, first_rows)
    problems = [None] * len(tables)
    for j in np.flatnonzero(least < len(messages)).tolist():
        # a row message names the table's first row that fails the check
        problems[j] = messages[least[j]].format(np.argmax(first[first_rows[j] :] == least[j]))
    return problems


def near_one_row(rng, k):
    """``k`` probabilities whose float sum lies within a few ulps of 1 or of
    1 +- ROW_TOLERANCE, where the order of the additions decides the verdict."""
    xs = [rng.random() + 0.01 for _ in range(k)]
    target = 1.0 + rng.choice((-ROW_TOLERANCE, 0.0, ROW_TOLERANCE))
    total = sum(xs)
    xs = [x * target / total for x in xs]
    xs[-1] += target - math.fsum(xs) + rng.randint(-4, 4) * math.ulp(1.0)
    return xs


def random_cpt_row(rng, k, qualitative, limit):
    """A row of ``k`` entries, well formed or failing one or more checks."""
    fault = rng.choice(["none"] * 4 + ["nan", "inf", "-inf", "negative", "other"])
    if qualitative:
        row = [rng.choice((0.0, 1.0, 2.0, 5.0, math.inf)) for _ in range(k)]
        bad = {
            "nan": math.nan,
            "inf": -math.inf,
            "-inf": -math.inf,
            "negative": -float(rng.randint(1, 3)),
            "other": rng.choice((0.5, limit + 1.0, float(limit), -limit - 1.0)),
        }
        if fault == "none" and rng.random() < 0.2:
            return [math.inf] * k  # no non-zero entry
    else:
        row = near_one_row(rng, k)
        bad = {
            "nan": math.nan,
            "inf": math.inf,
            "-inf": -math.inf,
            "negative": -rng.random(),
            "other": 1.0 + rng.random(),
        }
    if fault != "none":
        row[rng.randrange(k)] = bad[fault]
    return row


def random_cpt_diagram(rng, qualitative):
    """A chain of 2-5 chance variables of 2-12 values, each child's CPT
    over at most its predecessor, with random rows from ``random_cpt_row``;
    now and then a table one entry short."""
    count = rng.randint(2, 5)
    limit = (2**53 - 1) // (count + 1)
    names = [f"X{i}" for i in range(count)]
    sizes = [rng.randint(2, 12) for _ in names]
    cpts = []
    for i, x in enumerate(names):
        parents = (names[i - 1],) if i and rng.random() < 0.5 else ()
        rows = sizes[i - 1] if parents else 1
        table = [e for _ in range(rows) for e in random_cpt_row(rng, sizes[i], qualitative, limit)]
        if rng.random() < 0.05:
            table = table[:-1]
        cpts.append(CPT(x, parents, table))
    utility = (1.0, 0.0) + (0.0,) * (sizes[0] - 2)
    if qualitative:
        utility = encode_sets([singleton(OOMValue(Sign.PLUS, 0))] + [ZERO_SET] * (sizes[0] - 1))
    cls = OOMInfluenceDiagram if qualitative else InfluenceDiagram
    return cls(
        variables=tuple(
            Variable(x, Kind.CHANCE, tuple(map(str, range(k)))) for x, k in zip(names, sizes)
        ),
        cpts=tuple(cpts),
        utilities=(UtilityFunction((names[0],), utility),),
        decision_order=(),
        information_sets={},
    )


class TestCptCheckOracle:
    @pytest.mark.parametrize("qualitative", [False, True], ids=["numeric", "qualitative"])
    def test_same_messages_as_the_batched_pass(self, qualitative, monkeypatch):
        # the per-CPT check finds what the one array pass over all CPTs
        # found, table by table and message by message, in order
        rng = random.Random(1 + qualitative)
        seen, several = Counter(), 0
        diagrams = [random_cpt_diagram(rng, qualitative) for _ in range(600)]
        found = [validate(d) for d in diagrams]
        monkeypatch.setattr(
            diagram_module,
            "_cpt_problem",
            lambda table, k, q, limit: oracle_cpt_problems([table], [k], q, limit)[0],
        )
        for d, problems in zip(diagrams, found):
            assert validate(d) == problems, d
            shaped = [c for c in d.cpts if c.table.size == math.prod(d.domain_sizes(c.scope))]
            widths = [len(d.domain(c.child)) for c in shaped]
            tables = [c.table for c in shaped]
            assert oracle_cpt_problems(tables, widths, qualitative, order_limit(d)) == [
                _cpt_problem(t, k, qualitative, order_limit(d)) for t, k in zip(tables, widths)
            ]
            seen.update(re.sub(r"\d+", "N", p.split(": ", 1)[1]) for p in problems)
            several += len(set(problems)) > 1
        # every check fails somewhere, and many diagrams fail several
        expected = {"table has N entries, expected N"}
        if qualitative:
            expected |= {
                PROBABILITY_MESSAGE,
                "probability orders must be at least N",
                "row N has no non-zero entry",
                "orders must lie within +-N, where floatN sums stay exact",
            }
        else:
            expected |= {"entries outside [N, N]", "rows do not sum to N"}
        assert set(seen) == expected and min(seen.values()) >= 20, seen
        assert several >= 100


class TestTemporalPartition:
    def test_no_decisions_single_block(self):
        data = {
            "variables": [{"id": "X", "kind": "chance", "domain": ["a", "b"]}],
            "cpts": [{"child": "X", "parents": [], "table": [0.3, 0.7]}],
            "utilities": [{"scope": ["X"], "table": [1, 2]}],
            "decision_order": [],
            "information_sets": {},
        }
        assert temporal_partition(from_dict(data)) == [("X",)]

    def test_all_chance_observed_first(self):
        data = {
            "variables": [
                {"id": "X", "kind": "chance", "domain": ["a", "b"]},
                {"id": "D", "kind": "decision", "domain": ["l", "r"]},
            ],
            "cpts": [{"child": "X", "parents": [], "table": [0.3, 0.7]}],
            "utilities": [{"scope": ["X", "D"], "table": [1, 2, 3, 4]}],
            "decision_order": ["D"],
            "information_sets": {"D": ["X"]},
        }
        assert temporal_partition(from_dict(data)) == [(), ("D",), ("X",)]

    def test_forgetting_diagram_has_closure_blocks(self):
        # D2 forgets X, which no rule reads: the diagram solves
        data = {
            "variables": [
                {"id": "X", "kind": "chance", "domain": ["a", "b"]},
                {"id": "D1", "kind": "decision", "domain": ["l", "r"]},
                {"id": "D2", "kind": "decision", "domain": ["l", "r"]},
            ],
            "cpts": [{"child": "X", "parents": [], "table": [0.3, 0.7]}],
            "utilities": [{"scope": ["D2"], "table": [1, 0]}],
            "decision_order": ["D1", "D2"],
            "information_sets": {"D1": ["X"], "D2": []},
        }
        d = from_dict(data, nonforgetting=False)
        blocks = [(), ("D2",), (), ("D1",), ("X",)]
        assert temporal_partition(d) == temporal_partition(apply_nonforgetting(d)) == blocks
        assert solve_exact(d).meu == 1.0

    @settings(max_examples=60)
    @given(
        st.integers(0, 3), st.integers(1, 5), st.integers(2, 3), st.integers(0, 10**6)
    )
    def test_open_generated_diagrams_have_closure_blocks(self, p, n_d, k, seed):
        params = GeneratorParams(n_c=12 - n_d, n_d=n_d, k=k, p=p, r=3, a=3, seed=seed)
        d = generate(params, nonforgetting=False)
        assert temporal_partition(d) == temporal_partition(apply_nonforgetting(d))


class TestOrdering:
    def test_wildcatter_order(self):
        d = wildcatter()
        assert legal_ordering(d) == ["Oil", "Drill", "Seismic", "Test"]

    def test_reverse_extends_temporal_order(self):
        d = wildcatter()
        assert is_legal_ordering(d, legal_ordering(d))
        assert not is_legal_ordering(d, ["Test", "Seismic", "Drill", "Oil"])
        assert not is_legal_ordering(d, ["Oil", "Drill", "Seismic"])

    def test_single_variable(self):
        data = {
            "variables": [{"id": "X", "kind": "chance", "domain": ["a", "b"]}],
            "cpts": [{"child": "X", "parents": [], "table": [0.3, 0.7]}],
            "utilities": [{"scope": ["X"], "table": [1, 2]}],
            "decision_order": [],
            "information_sets": {},
        }
        assert legal_ordering(from_dict(data)) == ["X"]

    def test_width_counts_neighbours(self):
        d = wildcatter()
        assert induced_width(d, legal_ordering(d)) == 3
