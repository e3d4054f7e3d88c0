"""Influence diagram data model, validation, and file I/O.

A diagram has chance variables with conditional probability tables,
decision variables with information sets (the variables known when the
decision is made), and utility functions.

Numeric and order-of-magnitude (qualitative) diagrams share this model:
only the table entries differ.  Every table is a read-only float64 array
whose last axis runs row-major over its scope: the first scope variable
varies slowest and the last (the child, for CPTs) varies fastest.  A
numeric diagram holds probabilities and utilities as floats; an
``OOMInfluenceDiagram`` holds each probability as its order (``inf`` for
zero) and its utility sets as a (bit, end, cell) table, the encoding of
``sets``.  The solvers reshape these arrays into factors as they are;
``OOMValue``/``OOMSet`` objects appear only where the file format is
parsed and printed, through the codec of ``sets``.
"""

from __future__ import annotations

import graphlib
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import partial
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .sets import canonical, decode_set, decode_value, encode_orders, encode_sets, parse_set
from .values import parse_value

if TYPE_CHECKING:
    from .ordering import Skeleton


# How far from 1 the entries of a numeric CPT row may sum.
ROW_TOLERANCE = 1e-9

# The most cells the largest bucket of a solve may span (see
# ``ordering.checked_skeleton``): 256 MiB as one float64 table.  That is
# eight times the widest bucket, 2**22, of 6,300 generated n = 80 diagrams
# (the exact-solve benchmark's pools for workload seeds 0-20), and far below
# the 2**40 of a 4 KB file of 20 chained decisions.
CELL_LIMIT = 2**25


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


class _Tabled:
    """A frozen dataclass whose last field is its ``table``.  The table is
    kept as a read-only array: numbers as float64, anything else as numpy
    reads it, for ``validate`` to reject.  Tables compare entry by entry,
    so instances are unhashable, and print as the tuple of their entries
    along the last axis."""

    def __post_init__(self) -> None:
        table = self.table
        if isinstance(table, np.ndarray) and table.dtype == float and not table.flags.writeable:
            return  # frozen already: tables may share one buffer
        table = np.array(table)
        if table.dtype.kind in "biuf":
            table = table.astype(float, copy=False)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def _head(self) -> tuple:
        """The values of the fields before ``table``."""
        return tuple(getattr(self, f.name) for f in fields(self)[:-1])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._head() == other._head() and np.array_equal(self.table, other.table)

    def __repr__(self) -> str:
        cells = np.moveaxis(np.atleast_1d(self.table), -1, 0)
        values = (*self._head(), tuple(cells.tolist()))
        shown = ", ".join(f"{f.name}={v!r}" for f, v in zip(fields(self), values))
        return f"{type(self).__name__}({shown})"


@dataclass(frozen=True, eq=False, repr=False)
class CPT(_Tabled):
    child: str
    parents: tuple[str, ...]
    table: np.ndarray  # row-major over parents + (child,)

    @property
    def scope(self) -> tuple[str, ...]:
        return self.parents + (self.child,)


@dataclass(frozen=True, eq=False, repr=False)
class UtilityFunction(_Tabled):
    scope: tuple[str, ...]
    table: np.ndarray  # last axis row-major over scope


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
    # set by the first ``ordering.skeleton``, or by ``convert`` to its input's
    _skeleton: Skeleton | None = field(default=None, init=False, repr=False, compare=False)

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
    """A qualitative diagram: probability orders and (bit, end, cell)
    utility set tables."""


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
    only the table entry checks depend on the kind.  Each table is checked
    on its own, in the order of the diagram's fields.  The graph check is
    the rule of a regular diagram: the ``arcs`` of the non-forgetting
    closure form no directed cycle.  So no decision observes a chance
    variable that depends on it or on a later decision, whether its sets
    are closed or not.
    """
    problem = _type_problem(diagram)
    if problem:
        return [problem]
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
    limit = order_limit(diagram)

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
        cells = math.prod(diagram.domain_sizes(cpt.scope))
        problem = _layout_problem(cpt.table, cells, qualitative, False) or (
            _cpt_problem(cpt.table, len(known[cpt.child].domain), qualitative, limit)
        )
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
        cells = math.prod(diagram.domain_sizes(u.scope))
        problem = _layout_problem(u.table, cells, qualitative, qualitative) or (
            _utility_problem(u.table, qualitative, limit)
        )
        if problem:
            out.append(f"{name}: {problem}")
    if not qualitative and not out:
        # every message is a probability-weighted sum of sums of one entry
        # per utility; the factor 2 covers rows that sum to 1 only within
        # ROW_TOLERANCE
        if sum(float(np.abs(u.table).max()) for u in diagram.utilities) > sys.float_info.max / 2:
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


def _type_problem(d: InfluenceDiagram) -> str | None:
    """The first field without the type ``from_dict`` gives it, which only
    a diagram built in Python can lack: ids and labels are strings, kinds
    ``Kind`` members, sequences tuples and the information sets a mapping."""

    def names(xs) -> bool:
        return isinstance(xs, tuple) and all(isinstance(x, str) for x in xs)

    if not all(isinstance(xs, tuple) for xs in (d.variables, d.cpts, d.utilities)):
        return "variables, cpts and utilities must be tuples"
    for v in d.variables:
        if not (isinstance(v.id, str) and isinstance(v.kind, Kind) and names(v.domain)):
            return f"variable {v.id!r}: id must be a string, kind a Kind, domain a tuple of strings"
    for c in d.cpts:
        if not (isinstance(c.child, str) and names(c.parents)):
            return f"cpt for {c.child!r}: child must be a string and parents a tuple of strings"
    for u in d.utilities:
        if not names(u.scope):
            return f"utility over {u.scope!r}: scope must be a tuple of strings"
    if not names(d.decision_order):
        return "decision_order must be a tuple of strings"
    info = d.information_sets
    if not (isinstance(info, Mapping) and names(tuple(info)) and all(map(names, info.values()))):
        return "information_sets must map strings to tuples of strings"
    return None


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

    Besides ``require_valid``, the callers are ``generator.generate`` (see
    there) and ``convert``, whose outputs are valid by construction.
    ``convert`` starts from a valid numeric diagram and keeps its
    variables, scopes, decision order and information sets, so every
    structural and graph check passes as before.  Each probability p
    becomes zero or the ``(+,k)`` with ``eps**(k+1) < p <= eps**k``, and
    p <= 1 gives k >= 0; a numeric row sums to 1, so it has a positive
    entry, which becomes non-zero.  Each utility becomes the (bit, end)
    table of a singleton, which is canonical.  ``convert`` checks the bound
    of ``order_limit`` itself.  ``test_convert`` and ``test_generator``
    check ``validate`` on their outputs to keep these arguments honest.
    """
    object.__setattr__(diagram, "_valid", True)
    return diagram


def order_limit(diagram: InfluenceDiagram) -> int:
    """The largest order magnitude a qualitative table may hold.  The solver
    adds at most one order per CPT and one utility order in float64, so
    within this bound every such sum stays below 2**53 and exact."""
    return (2**53 - 1) // (len(diagram.cpts) + 1)


_NOT_PROBABILITIES = "entries must be positive or zero order-of-magnitude values"
_NOT_SETS = "entries must be order-of-magnitude sets"


def _orders_beyond(limit: int) -> str:
    return f"orders must lie within +-{limit}, where float64 sums stay exact"


def _layout_problem(table: np.ndarray, cells: int, qualitative: bool, sets: bool) -> str | None:
    """What keeps ``table`` from being a float array of ``cells`` entries:
    along its only axis, or (bit, end) set tables along its last if
    ``sets``."""
    lead = (2, 2) if sets else ()
    if table.ndim != len(lead) + 1 or table.shape[:-1] != lead:
        return _NOT_SETS if sets else f"table has shape {table.shape}, expected ({cells},)"
    if table.shape[-1] != cells:
        return f"table has {table.shape[-1]} entries, expected {cells}"
    if table.dtype == float:
        return None
    if not qualitative:
        return "non-numeric entries"
    return _NOT_SETS if sets else _NOT_PROBABILITIES


def _cpt_problem(table: np.ndarray, width: int, qualitative: bool, limit: int) -> str | None:
    """The first entry problem of a float CPT table whose rows are ``width``
    entries long."""
    xs = table.tolist()
    if not qualitative:
        if not all(0.0 <= x <= 1.0 for x in xs):  # nan fails too
            return "entries outside [0, 1]"
        # numpy's sums: a row's first entry plus the rest added pairwise,
        # which may differ from a left-to-right sum in the last ulps
        sums = np.add.reduceat(table, range(0, len(xs), width)).tolist()
        return "rows do not sum to 1" if any(abs(s - 1.0) > ROW_TOLERANCE for s in sums) else None
    if not all(x == math.inf or x.is_integer() for x in xs):
        return _NOT_PROBABILITIES
    if any(x < 0 for x in xs):
        return "probability orders must be at least 0"
    for i in range(0, len(xs), width):
        if all(x == math.inf for x in xs[i : i + width]):
            return f"row {i // width} has no non-zero entry"
    return _orders_beyond(limit) if any(limit < x < math.inf for x in xs) else None


def _utility_problem(table: np.ndarray, qualitative: bool, limit: int) -> str | None:
    """The entry problem of a float utility table of the right shape."""
    if not qualitative:
        return None if np.isfinite(table).all() else "non-finite entries"
    if not _canonical_sets(table).all():
        return _NOT_SETS
    return _orders_beyond(limit) if (np.abs(table[table < math.inf]) > limit).any() else None


def _canonical_sets(table: np.ndarray) -> np.ndarray:
    """Which cells of a (bit, end, cell) table hold a canonical set, as the
    kernels assume: every order an integer or ``inf`` (``canonical`` keeps a
    ``(+,0.5)`` or ``(+,-inf)`` singleton), and the cell its own ``canonical``."""
    integral = (table == np.floor(table)) & (table > -math.inf)  # drops nan
    return (integral & (canonical(table[0], table[1], 0) == table)).all((0, 1))


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

def _entries(table: np.ndarray, qualitative: bool, sets: bool) -> list:
    """A table's entries as the file format holds them."""
    if not qualitative:
        return table.tolist()
    if sets:
        return [str(decode_set(cell)) for cell in np.moveaxis(table, -1, 0).tolist()]
    return [str(decode_value(k, math.inf)) for k in table.tolist()]


def _table(entries: list, qualitative: bool, sets: bool) -> list | np.ndarray:
    """The table of a file's entries."""
    if not qualitative:
        return [float(x) for x in entries]
    if sets:
        return encode_sets([parse_set(x) for x in entries])
    return encode_orders([parse_value(x) for x in entries])


def to_dict(diagram: InfluenceDiagram) -> dict:
    qualitative = isinstance(diagram, OOMInfluenceDiagram)
    return {
        "variables": [
            {"id": v.id, "kind": v.kind.value, "domain": list(v.domain)}
            for v in diagram.variables
        ],
        "cpts": [
            {
                "child": c.child,
                "parents": list(c.parents),
                "table": _entries(c.table, qualitative, False),
            }
            for c in diagram.cpts
        ],
        "utilities": [
            {"scope": list(u.scope), "table": _entries(u.table, qualitative, True)}
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
                    _table(c["table"], qualitative, False),
                )
                for c in data["cpts"]
            ),
            utilities=tuple(
                UtilityFunction(_names(u["scope"]), _table(u["table"], qualitative, True))
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
