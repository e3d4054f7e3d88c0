import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oomid.convert import ConversionConfig, convert
from oomid.diagram import (
    CPT,
    DiagramError,
    InfluenceDiagram,
    Kind,
    UtilityFunction,
    Variable,
    apply_nonforgetting,
    from_dict,
    load,
    order_limit,
    save,
    validate,
    wildcatter,
)
from oomid.exact import solve_exact
from oomid.generator import GeneratorParams, generate
from oomid.ordering import (
    induced_width,
    interaction_graph,
    is_legal_ordering,
    legal_ordering,
    temporal_partition,
)
from oomid.sets import ZERO_SET, singleton
from oomid.values import OOMValue, Sign


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
        assert oil.table == (0.5, 0.3, 0.2)
        seismic = next(c for c in d.cpts if c.child == "Seismic")
        assert seismic.parents == ("Oil", "Test")
        assert seismic.table[0:3] == (0.01, 0.04, 0.95)  # Oil=dry, Test=yes
        assert seismic.table[6:9] == (0.08, 0.9, 0.02)  # Oil=wet, Test=yes
        assert seismic.table[12:15] == (0.9, 0.095, 0.005)  # Oil=soaking, Test=yes
        u2 = next(u for u in d.utilities if u.scope == ("Oil", "Drill"))
        assert u2.table == (-70, 0, 50, 0, 200, 0)
        u1 = next(u for u in d.utilities if u.scope == ("Test",))
        assert u1.table == (-10, 0)

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

    def test_orders_within_the_float64_bound(self):
        oom = convert(tiny_chain(), ConversionConfig(0.1))
        limit = order_limit(oom)
        assert limit == (2**53 - 1) // 3  # two CPTs
        for k in (limit, -limit, limit + 1, -limit - 1):
            one = singleton(OOMValue(Sign.PLUS, k))
            utility = UtilityFunction(("D", "Y"), (one, ZERO_SET, ZERO_SET, one))
            cpt = CPT("X", (), (OOMValue(Sign.PLUS, abs(k)), OOMValue(Sign.PLUS, 0)))
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
        g = interaction_graph(d)
        assert g["Oil"] == {"Seismic", "Test", "Drill"}
