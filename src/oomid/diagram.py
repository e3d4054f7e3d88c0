"""Influence diagram data model, validation, and file I/O.

A diagram has chance variables with conditional probability tables,
decision variables with information sets (the variables known when the
decision is made), and utility functions.  Tables are stored flat in
row-major order over their scope: the first scope variable varies slowest
and the last (the child, for CPTs) varies fastest.

Numeric and order-of-magnitude (qualitative) diagrams share this model:
only the table entries differ.  A numeric diagram holds floats; an
``OOMInfluenceDiagram`` holds ``OOMValue`` probabilities and ``OOMSet``
utilities.
"""

from __future__ import annotations

import graphlib
import json
import math
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .sets import OOMSet, parse_set
from .values import OOMValue, parse_value


# How far from 1 the entries of a numeric CPT row may sum.
ROW_TOLERANCE = 1e-9


class DiagramError(ValueError):
    """Structural problem that prevents using a diagram."""


class GuardExceeded(RuntimeError):
    """A brute-force guard limit was exceeded."""


class Kind(Enum):
    CHANCE = "chance"
    DECISION = "decision"


@dataclass(frozen=True)
class Variable:
    id: str
    kind: Kind
    domain: tuple[str, ...]


@dataclass(frozen=True)
class CPT:
    child: str
    parents: tuple[str, ...]
    table: tuple  # row-major over parents + (child,): floats or OOMValues

    @property
    def scope(self) -> tuple[str, ...]:
        return self.parents + (self.child,)


@dataclass(frozen=True)
class UtilityFunction:
    scope: tuple[str, ...]
    table: tuple  # row-major over scope: floats or OOMSets


@dataclass(frozen=True)
class InfluenceDiagram:
    variables: tuple[Variable, ...]
    cpts: tuple[CPT, ...]
    utilities: tuple[UtilityFunction, ...]
    decision_order: tuple[str, ...]
    information_sets: Mapping[str, tuple[str, ...]]
    chance_vars: tuple[str, ...] = field(init=False, repr=False, compare=False)
    decision_vars: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _index: Mapping[str, Variable] = field(init=False, repr=False, compare=False)
    # set by the first ``require_valid`` that finds no problem
    _valid: bool = field(default=False, init=False, repr=False, compare=False)
    # set by the first ``ordering.legal_ordering``
    _ordering: tuple[str, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # derived once: the id index and the variables of each kind
        set_ = partial(object.__setattr__, self)
        set_("_index", {v.id: v for v in self.variables})
        set_("chance_vars", tuple(v.id for v in self.variables if v.kind is Kind.CHANCE))
        set_("decision_vars", tuple(v.id for v in self.variables if v.kind is Kind.DECISION))

    def domain(self, var_id: str) -> tuple[str, ...]:
        return self._index[var_id].domain

    def domain_sizes(self, scope: Iterable[str]) -> tuple[int, ...]:
        return tuple(len(self._index[v].domain) for v in scope)


class OOMInfluenceDiagram(InfluenceDiagram):
    """A qualitative diagram: ``OOMValue`` probabilities, ``OOMSet`` utilities."""


def apply_nonforgetting(diagram: InfluenceDiagram) -> InfluenceDiagram:
    """Close the information sets: every decision also observes all earlier
    decisions and everything those decisions observed.  A decision without
    an information set is left without one, for ``validate`` to report.
    A diagram whose sets are already closed is returned itself."""
    info = diagram.information_sets
    closed: dict[str, tuple[str, ...]] = {}
    seen: list[str] = []  # earlier decisions and their observations, in order
    for d in diagram.decision_order:
        if d in info:
            closed[d] = tuple(seen) + tuple(p for p in info[d] if p not in seen)
            seen.extend(p for p in closed[d] if p not in seen)
        if d not in seen:
            seen.append(d)
    closed.update((d, ps) for d, ps in info.items() if d not in closed)
    if closed == info:
        return diagram
    return replace(diagram, information_sets=closed)


def arcs(diagram: InfluenceDiagram) -> dict[str, tuple[str, ...]]:
    """Each variable's parents: a chance variable's CPT parents and a
    decision's information set."""
    parents = {v.id: () for v in diagram.variables}
    parents.update((cpt.child, cpt.parents) for cpt in diagram.cpts)
    parents.update(diagram.information_sets)
    return parents


def validate(diagram: InfluenceDiagram) -> list[str]:
    """Collect invariant violations; an empty list means the diagram is usable.

    The structural and graph checks are the same for both kinds of diagram;
    only the table entry checks depend on the kind.  The graph check is the
    rule of a regular diagram: the ``arcs`` of the non-forgetting closure
    form no directed cycle.  So no decision observes a chance variable that
    depends on it or on a later decision, whether its sets are closed or not.
    """
    if len(diagram._index) != len(diagram.variables):
        return ["duplicate variable ids"]
    out: list[str] = []
    for v in diagram.variables:
        if len(v.domain) < 1:
            out.append(f"variable {v.id}: empty domain")
        if len(set(v.domain)) != len(v.domain):
            out.append(f"variable {v.id}: duplicate domain labels")
    if out:
        return out

    known = diagram._index
    chance = set(diagram.chance_vars)
    decisions = set(diagram.decision_vars)
    qualitative = isinstance(diagram, OOMInfluenceDiagram)
    if qualitative:
        cpt_problem = partial(_oom_cpt_problem, limit=order_limit(diagram))
        utility_problem = partial(_oom_utility_problem, limit=order_limit(diagram))
    else:
        cpt_problem, utility_problem = _numeric_cpt_problem, _numeric_utility_problem

    seen_children = set()
    for cpt in diagram.cpts:
        name = f"cpt for {cpt.child}"
        if cpt.child not in known:
            out.append(f"{name}: unknown child")
            continue
        if cpt.child not in chance:
            out.append(f"{name}: child is not a chance variable")
            continue
        if cpt.child in seen_children:
            out.append(f"{name}: duplicate")
            continue
        seen_children.add(cpt.child)
        if any(p not in known for p in cpt.parents) or len(set(cpt.scope)) != len(cpt.scope):
            out.append(f"{name}: bad parent list")
            continue
        expected = math.prod(diagram.domain_sizes(cpt.scope))
        if len(cpt.table) != expected:
            out.append(f"{name}: table has {len(cpt.table)} entries, expected {expected}")
            continue
        problem = cpt_problem(cpt.table, len(known[cpt.child].domain))
        if problem:
            out.append(f"{name}: {problem}")
    for x in sorted(chance - seen_children):
        out.append(f"chance variable {x}: missing cpt")

    if not diagram.utilities:
        out.append("no utility functions")
    for i, u in enumerate(diagram.utilities):
        name = f"utility {i} over {list(u.scope)}"
        if not u.scope:
            out.append(f"{name}: empty scope")
            continue
        if any(s not in known for s in u.scope) or len(set(u.scope)) != len(u.scope):
            out.append(f"{name}: bad scope")
            continue
        expected = math.prod(diagram.domain_sizes(u.scope))
        if len(u.table) != expected:
            out.append(f"{name}: table has {len(u.table)} entries, expected {expected}")
            continue
        problem = utility_problem(u.table)
        if problem:
            out.append(f"{name}: {problem}")
    if not qualitative and not out:
        # every message is a probability-weighted sum of sums of one entry
        # per utility; the factor 2 covers rows that sum to 1 only within
        # ROW_TOLERANCE
        if sum(max(map(abs, u.table)) for u in diagram.utilities) > sys.float_info.max / 2:
            out.append("utilities: largest magnitudes sum above half the largest float")

    order = diagram.decision_order
    if set(order) != decisions or len(order) != len(decisions):
        out.append("decision_order must list each decision variable exactly once")
    position = {d: k for k, d in enumerate(order)}
    for d, parents in diagram.information_sets.items():
        if d not in decisions:
            out.append(f"information set for non-decision {d}")
            continue
        if len(set(parents)) != len(parents):
            out.append(f"decision {d}: duplicate parents")
        for p in parents:
            if p not in known:
                out.append(f"decision {d}: unknown parent {p}")
            elif p == d:
                out.append(f"decision {d}: observes itself")
            elif d in position and position.get(p, -1) > position[d]:
                out.append(f"decision {d}: parent {p} does not precede it")
    for d in sorted(decisions - diagram.information_sets.keys()):
        out.append(f"decision {d}: missing information set")

    if not out:
        # This also checks the temporal rule.  A chance variable p observed
        # at D_k that depends on D_j, j >= k, closes D_k (-> D_j) ~> p -> D_k,
        # D_k -> D_j being a closure arc.  And with no such p, no raw cycle
        # and only earlier decisions observed, the closure is ordered by: for
        # each D_k in turn, its information set's unlisted ancestors, then D_k.
        try:
            graphlib.TopologicalSorter(arcs(apply_nonforgetting(diagram))).prepare()
        except graphlib.CycleError:
            out.append("graph has a directed cycle")
    return out


def require_valid(diagram: InfluenceDiagram, qualitative: bool) -> InfluenceDiagram:
    """``diagram`` itself if it is of the wanted kind and valid, else a
    ``DiagramError`` naming every violation.

    A diagram is frozen, so a successful validation is recorded on it and
    not repeated; the kind is checked on every call."""
    if isinstance(diagram, OOMInfluenceDiagram) != qualitative:
        wanted = "an order-of-magnitude" if qualitative else "a numeric"
        raise DiagramError(f"expected {wanted} diagram")
    if not diagram._valid:
        problems = validate(diagram)
        if problems:
            raise DiagramError("; ".join(problems))
        mark_valid(diagram)
    return diagram


def mark_valid(diagram: InfluenceDiagram) -> InfluenceDiagram:
    """Record ``diagram`` as valid, so ``require_valid`` does not check it.

    Besides ``require_valid``, the one caller is ``convert``, whose output
    is valid by construction: it starts from a valid numeric diagram and
    keeps its variables, scopes, decision order and information sets, so
    every structural and graph check passes as before.  Each probability
    p becomes zero or the ``(+,k)`` with ``eps**(k+1) < p <= eps**k``, and
    p <= 1 gives k >= 0; a numeric row sums to 1, so it has a positive
    entry, which becomes non-zero.  Each utility becomes an ``OOMSet``.
    ``convert`` checks the bound of ``order_limit`` itself.
    ``test_convert`` checks ``validate`` on converted diagrams to keep this
    argument honest.
    """
    object.__setattr__(diagram, "_valid", True)
    return diagram


def order_limit(diagram: InfluenceDiagram) -> int:
    """The largest order magnitude a qualitative table may hold.  The solver
    adds at most one order per CPT and one utility order in float64, so
    within this bound every such sum stays below 2**53 and exact."""
    return (2**53 - 1) // (len(diagram.cpts) + 1)


def _numeric_cpt_problem(table: tuple, k: int) -> str | None:
    try:
        if not all(0.0 <= x <= 1.0 for x in table):  # also rejects nan
            return "entries outside [0, 1]"
    except TypeError:
        return "non-numeric entries"
    for start in range(0, len(table), k):
        if abs(sum(table[start : start + k]) - 1.0) > ROW_TOLERANCE:
            return "rows do not sum to 1"
    return None


def _numeric_utility_problem(table: tuple) -> str | None:
    try:
        return None if all(math.isfinite(x) for x in table) else "non-finite entries"
    except TypeError:
        return "non-numeric entries"


def _oom_cpt_problem(table: tuple, k: int, limit: int) -> str | None:
    if not all(isinstance(x, OOMValue) and (x.is_positive or x.is_zero) for x in table):
        return "entries must be positive or zero order-of-magnitude values"
    if any(x.order < 0 for x in table):  # a probability is at most 1
        return "probability orders must be at least 0"
    for start in range(0, len(table), k):
        if all(x.is_zero for x in table[start : start + k]):
            return f"row {start // k} has no non-zero entry"
    return _order_problem((x.order for x in table), limit)


def _oom_utility_problem(table: tuple, limit: int) -> str | None:
    if not all(isinstance(x, OOMSet) for x in table):
        return "entries must be order-of-magnitude sets"
    return _order_problem((e.order for x in table for e in x.elements), limit)


def _order_problem(orders: Iterable, limit: int) -> str | None:
    if any(limit < abs(k) < math.inf for k in orders):
        return f"orders must lie within +-{limit}, where float64 sums stay exact"
    return None


@dataclass(frozen=True)
class PolicyRule:
    """Decision rule: an action index for every parent configuration."""

    decision: str
    scope: tuple[str, ...]
    actions: tuple[int, ...]  # row-major over scope, values index the domain


@dataclass(frozen=True)
class Policy:
    rules: Mapping[str, PolicyRule]


@dataclass(frozen=True, eq=False)
class PolicyBatch:
    """``size`` policies as arrays: per decision, its information set and a
    ``(size, cells)`` integer array whose rows are the policies' rule
    ``actions``.  Indexing (and so iterating) gives one ``Policy``."""

    size: int
    scopes: Mapping[str, tuple[str, ...]]
    actions: Mapping[str, np.ndarray]

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> Policy:
        i = range(self.size)[i]  # IndexError outside the batch
        return Policy(
            rules={
                d: PolicyRule(d, self.scopes[d], tuple(a[i].tolist()))
                for d, a in self.actions.items()
            }
        )


# ---------------------------------------------------------------------------
# file format
#
# Both kinds share one JSON skeleton.  Numeric tables hold numbers;
# qualitative tables hold text: values like ``(+,2)`` in CPTs and sets like
# ``{(+-,0),(+-,inf)}`` in utilities.  The entries decide the kind.

def to_dict(diagram: InfluenceDiagram) -> dict:
    entry = str if isinstance(diagram, OOMInfluenceDiagram) else (lambda x: x)
    return {
        "variables": [
            {"id": v.id, "kind": v.kind.value, "domain": list(v.domain)}
            for v in diagram.variables
        ],
        "cpts": [
            {
                "child": c.child,
                "parents": list(c.parents),
                "table": [entry(x) for x in c.table],
            }
            for c in diagram.cpts
        ],
        "utilities": [
            {"scope": list(u.scope), "table": [entry(x) for x in u.table]}
            for u in diagram.utilities
        ],
        "decision_order": list(diagram.decision_order),
        "information_sets": {d: list(ps) for d, ps in diagram.information_sets.items()},
    }


def from_dict(data: Mapping, nonforgetting: bool = True) -> InfluenceDiagram:
    """Build a numeric or a qualitative diagram, whichever its tables hold."""
    if not isinstance(data, Mapping):
        raise DiagramError("malformed diagram document: not a JSON object")
    if data.get("evidence"):
        raise DiagramError("evidence is not supported; remove the 'evidence' field")
    try:
        tables = [doc["table"] for doc in (*data["cpts"], *data["utilities"])]
        qualitative = _is_qualitative(x for table in tables for x in table)
        prob, util = (parse_value, parse_set) if qualitative else (float, float)
        cls = OOMInfluenceDiagram if qualitative else InfluenceDiagram
        info = data.get("information_sets", {})
        if not isinstance(info, Mapping):
            raise TypeError(f"information_sets must be an object, got {info!r}")
        diagram = cls(
            variables=tuple(
                Variable(_name(v["id"]), Kind(v["kind"]), _names(v["domain"]))
                for v in data["variables"]
            ),
            cpts=tuple(
                CPT(
                    _name(c["child"]),
                    _names(c["parents"]),
                    tuple(prob(x) for x in c["table"]),
                )
                for c in data["cpts"]
            ),
            utilities=tuple(
                UtilityFunction(_names(u["scope"]), tuple(util(x) for x in u["table"]))
                for u in data["utilities"]
            ),
            decision_order=_names(data["decision_order"]),
            information_sets={_name(d): _names(ps) for d, ps in info.items()},
        )
    except DiagramError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DiagramError(f"malformed diagram document: {exc}") from exc
    if nonforgetting:
        diagram = apply_nonforgetting(diagram)
    return diagram


def _is_qualitative(entries: Iterable) -> bool:
    kinds = {_entry_kind(x) for x in entries}
    if len(kinds) > 1:
        raise DiagramError("tables mix numbers and strings")
    return kinds == {str}


def _entry_kind(x) -> type:
    if isinstance(x, str):
        return str
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return float
    raise DiagramError(f"table entry {x!r} is neither a number nor a string")


def _name(x) -> str:
    if not isinstance(x, str):
        raise TypeError(f"expected a name, got {x!r}")
    return x


def _names(xs) -> tuple[str, ...]:
    if not isinstance(xs, (list, tuple)):
        raise TypeError(f"expected a list of names, got {xs!r}")
    return tuple(_name(x) for x in xs)


def load(path: str | Path, nonforgetting: bool = True) -> InfluenceDiagram:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"{path}: not valid JSON: {exc}") from exc
    return from_dict(data, nonforgetting=nonforgetting)


def save(diagram: InfluenceDiagram, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(to_dict(diagram), fh, indent=2)
        fh.write("\n")


def wildcatter(nonforgetting: bool = True) -> InfluenceDiagram:
    """The bundled oil wildcatter example diagram."""
    text = resources.files("oomid").joinpath("data/wildcatter.json").read_text()
    return from_dict(json.loads(text), nonforgetting=nonforgetting)
