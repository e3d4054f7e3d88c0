import pytest

from oomid.diagram import (
    CPT,
    DiagramError,
    InfluenceDiagram,
    apply_nonforgetting,
    from_dict,
    load,
    save,
    temporal_partition,
    validate,
    wildcatter,
)
from oomid.ordering import (
    induced_width,
    interaction_graph,
    is_legal_ordering,
    legal_ordering,
)


def tiny_chain(nonforgetting=True):
    """X -> D -> Y with a utility on (D, Y)."""
    data = {
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
    return from_dict(data, nonforgetting=nonforgetting)


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
        d = from_dict(data)
        violations = validate(d)
        assert violations  # reported either as a cycle or a temporal violation

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

    def test_malformed_document(self):
        with pytest.raises(DiagramError):
            from_dict({"variables": []})

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

    def test_forgetting_information_sets_rejected(self):
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
        with pytest.raises(DiagramError):
            temporal_partition(d)


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
