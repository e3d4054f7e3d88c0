"""The bitset orderings against set-based reference oracles.

The oracles are the set-based min-fill ordering, induced width and
largest bucket, over a set-based interaction graph, that the bitset
versions replaced: the pair loop that recounts every fill at every step.
Results must be equal, including every tie-break.
``oracle_is_legal_ordering`` is the position-interval walk that the
block-rank legality check replaced.  ``TestRecordedOrdering`` checks the
``Skeleton`` that ``skeleton`` records on a diagram, and that the solvers
walk each diagram's graph once.  ``along`` gives other test modules a
diagram recorded along a hand-set ordering.
"""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oomid import exact, ordering
from oomid.bench import run_experiment
from oomid.diagram import DiagramError, from_dict, wildcatter
from oomid.exact import PolicyEvaluator, evaluate_policy, solve_exact
from oomid.generator import GeneratorParams, generate
from oomid.ordering import (
    induced_width,
    legal_ordering,
    skeleton,
    temporal_partition,
)
from oracles import is_legal_ordering


def oracle_scope_graph(scopes):
    adj = {}
    for scope in scopes:
        for v in scope:
            adj.setdefault(v, set()).update(scope)
    for v, neighbours in adj.items():
        neighbours.discard(v)
    return adj


def oracle_interaction_graph(diagram):
    scopes = [(v.id,) for v in diagram.variables]
    scopes += [cpt.scope for cpt in diagram.cpts]
    scopes += [u.scope for u in diagram.utilities]
    scopes += [(d,) + tuple(ps) for d, ps in diagram.information_sets.items()]
    return oracle_scope_graph(scopes)


def oracle_fill_count(adj, v):
    neighbours = list(adj[v])
    missing = 0
    for i, a in enumerate(neighbours):
        for b in neighbours[i + 1 :]:
            if b not in adj[a]:
                missing += 1
    return missing


def oracle_eliminate_node(adj, v):
    neighbours = adj.pop(v)
    for n in neighbours:
        adj[n] |= neighbours
        adj[n] -= {n, v}


def oracle_legal_ordering(diagram):
    adj = oracle_interaction_graph(diagram)
    order = []
    for block in temporal_partition(diagram):
        remaining = list(block)
        while remaining:
            best = min(remaining, key=lambda v: (oracle_fill_count(adj, v), v))
            order.append(best)
            oracle_eliminate_node(adj, best)
            remaining.remove(best)
    return order


def oracle_induced_width(diagram, order):
    adj = oracle_interaction_graph(diagram)
    width = 0
    for v in order:
        width = max(width, len(adj[v]))
        oracle_eliminate_node(adj, v)
    return width


def oracle_largest_bucket(diagram, order):
    adj = oracle_interaction_graph(diagram)
    largest = 1
    for v in order:
        largest = max(largest, math.prod(diagram.domain_sizes({v} | adj[v])))
        oracle_eliminate_node(adj, v)
    return largest


def assert_matches_oracles(diagram):
    order = legal_ordering(diagram)
    assert order == oracle_legal_ordering(diagram)
    assert induced_width(diagram, order) == oracle_induced_width(diagram, order)
    assert skeleton(diagram).largest_bucket == oracle_largest_bucket(diagram, order)


def along(diagram, order):
    """A copy of ``diagram`` whose recorded skeleton, which every solve and
    evaluation of it reads, has the legal ``order`` and its largest bucket
    by the oracle; the utilities' ancestors do not depend on the order."""
    assert is_legal_ordering(diagram, order), order
    copy = replace(diagram)
    largest = oracle_largest_bucket(diagram, order)
    record = replace(skeleton(diagram), order=tuple(order), largest_bucket=largest)
    object.__setattr__(copy, "_skeleton", record)
    return copy


def generated(i: int) -> GeneratorParams:
    # n = 10..80, k = 2..4, both classes; three in four at n <= 40, where
    # the oracles are fast, and domains of 4 only there
    if i % 4 == 0:
        n, k = 80 - (i * 37) % 71, 2 + (i // 8) % 2
    else:
        n, k = 10 + (i * 37) % 31, 2 + i % 3
    n_d = 1 + i % 5
    return GeneratorParams(
        n_c=n - n_d, n_d=n_d, k=k, p=1 + i % 3, r=min(5, n - n_d),
        a=1 + i % 5, utility_class="PM"[(i // 4 + i) % 2], seed=7000 + i,
    )


def test_generated_diagrams_match_oracles():
    for i in range(200):
        assert_matches_oracles(generate(generated(i)))


def test_wildcatter_matches_oracles():
    assert_matches_oracles(wildcatter())


@st.composite
def diagrams(draw):
    """Random small diagrams whose names mix one and two digits (X2 sorts
    after X10), listed in an order unrelated to their names."""
    numbers = draw(st.lists(st.integers(0, 30), min_size=2, max_size=12, unique=True))
    names = [f"X{i}" for i in numbers]
    decisions = set(draw(st.lists(st.sampled_from(names), max_size=3, unique=True)))
    variables, cpts = [], []
    info = {}
    for pos, v in enumerate(names):
        parents = draw(st.lists(st.sampled_from(names[:pos]), max_size=3, unique=True)) if pos else []
        k = draw(st.integers(2, 3))
        kind = "decision" if v in decisions else "chance"
        variables.append({"id": v, "kind": kind, "domain": [f"v{j}" for j in range(k)]})
        if v in decisions:
            info[v] = parents
        else:
            cells = k * math.prod(len(variables[names.index(p)]["domain"]) for p in parents)
            cpts.append({"child": v, "parents": parents, "table": [1 / k] * cells})
    utilities = []
    for _ in range(draw(st.integers(1, 3))):
        scope = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
        cells = math.prod(len(variables[names.index(v)]["domain"]) for v in scope)
        utilities.append({"scope": scope, "table": [1.0] * cells})
    data = {
        "variables": variables,
        "cpts": cpts,
        "utilities": utilities,
        "decision_order": [v for v in names if v in decisions],
        "information_sets": info,
    }
    return draw(st.permutations(range(len(names)))), data


@settings(max_examples=100)
@given(diagrams())
def test_random_diagrams_match_oracles(case):
    permutation, data = case
    data["variables"] = [data["variables"][i] for i in permutation]
    assert_matches_oracles(from_dict(data))


def oracle_is_legal_ordering(diagram, order):
    """The position-interval walk that the block-rank check replaced: in
    the reversed ordering, each non-empty block lies wholly after the one
    before it."""
    if sorted(order) != sorted(v.id for v in diagram.variables):
        return False
    position = {v: i for i, v in enumerate(reversed(order))}
    upper = -1
    for block in reversed(temporal_partition(diagram)):
        if not block:
            continue
        lo = min(position[v] for v in block)
        hi = max(position[v] for v in block)
        if lo <= upper:
            return False
        upper = hi
    return True


def candidate_orders(diagram, rng):
    """The legal ordering and its variants: shuffled whole and within
    blocks, each adjacent pair swapped, truncated and duplicated."""
    base = legal_ordering(diagram)
    blocks = temporal_partition(diagram)
    orders = [base, base[:-1], base + base[:1], base[:-1] + base[:1], base[1:] + base[1:2]]
    for _ in range(4):
        orders.append(rng.sample(base, len(base)))
        orders.append([v for block in blocks for v in rng.sample(block, len(block))])
    for i in range(len(base) - 1):
        orders.append(base[:i] + [base[i + 1], base[i]] + base[i + 2 :])
    return orders


def test_block_rank_matches_interval_oracle():
    rng = random.Random(11)
    outcomes = set()
    diagrams = [wildcatter(), wildcatter(nonforgetting=False)]
    for i in range(40):
        n_c = 4 + i % 7
        params = GeneratorParams(
            n_c=n_c, n_d=1 + i % 3, k=2, p=i % 3, r=min(3, n_c), a=1 + i % 3, seed=i
        )
        diagrams.append(generate(params, nonforgetting=i % 2 == 0))
    for d in diagrams:
        for order in candidate_orders(d, rng):
            got = is_legal_ordering(d, order)
            assert got == oracle_is_legal_ordering(d, order), order
            outcomes.add(got)
    assert outcomes == {True, False}


def counted_walks(monkeypatch) -> list:
    """Patch the min-fill walk to record the id of each diagram it walks;
    diagrams compare equal by content, so identity tells copies apart."""
    walked = []
    walk = ordering._min_fill

    def counting(diagram):
        walked.append(id(diagram))
        return walk(diagram)

    monkeypatch.setattr(ordering, "_min_fill", counting)
    return walked


def counted_ancestor_walks(monkeypatch) -> list:
    """Patch the ancestor walk to record each utility scope it starts from."""
    scopes = []
    walk = ordering._ancestors

    def counting(scope, parents):
        scopes.append(scope)
        return walk(scope, parents)

    monkeypatch.setattr(ordering, "_ancestors", counting)
    return scopes


class TestRecordedOrdering:
    def test_fresh_list_each_call(self, monkeypatch):
        walked = counted_walks(monkeypatch)
        d = wildcatter()
        first = legal_ordering(d)
        second = legal_ordering(d)
        assert first == second == ["Oil", "Drill", "Seismic", "Test"]
        assert first is not second
        first.reverse()
        second.append("X")
        assert legal_ordering(d) == ["Oil", "Drill", "Seismic", "Test"]
        assert walked == [id(d)]

    def test_replaced_copy_walks_its_own_graph(self, monkeypatch):
        walked = counted_walks(monkeypatch)
        d = wildcatter()
        order = legal_ordering(d)
        same = replace(d)
        assert d._skeleton is not None and same._skeleton is None
        assert legal_ordering(same) == order
        # Drill no longer observes Seismic, which joins Oil's block
        changed = replace(d, information_sets={"Test": (), "Drill": ("Test",)})
        assert legal_ordering(changed) == ["Seismic", "Oil", "Drill", "Test"]
        assert walked == [id(d), id(same), id(changed)]

    def test_forgetting_diagram_walks_once(self, monkeypatch):
        # the evaluators order the diagram itself, not a closure of it;
        # Drill's optimal rule reads Test, which Drill forgets
        walked = counted_walks(monkeypatch)
        d = wildcatter(nonforgetting=False)
        with pytest.raises(DiagramError, match=r"Drill: rule depends on unobserved \['Test'\]"):
            solve_exact(d)
        PolicyEvaluator(d)
        PolicyEvaluator(d)
        assert walked == [id(d)]

    def test_solve_then_evaluate_walks_once(self, monkeypatch):
        # the evaluators read the record: neither the min-fill nor the
        # ancestor walk runs again
        walked = counted_walks(monkeypatch)
        ancestors = counted_ancestor_walks(monkeypatch)
        d = generate(GeneratorParams(n_c=40, n_d=5, utility_class="P", seed=1))
        solution = solve_exact(d)
        assert walked == [id(d)] and ancestors == [u.scope for u in d.utilities]
        assert evaluate_policy(d, solution.policy) == pytest.approx(solution.meu)
        PolicyEvaluator(d).evaluate(solution.policy)
        assert walked == [id(d)] and ancestors == [u.scope for u in d.utilities]

    def test_experiment_walks_once_per_instance(self, monkeypatch):
        walked = counted_walks(monkeypatch)
        params = GeneratorParams(n_c=20, n_d=5, utility_class="M", seed=0)
        results = run_experiment(params, [0.5, 0.05, 0.005], s=5, instances=2, seed=4)
        assert len(results) == 6
        assert len(walked) == len(set(walked)) == 2

    def test_chunk_bound_read_from_the_record(self, monkeypatch):
        # the min-fill walk counts the largest bucket; the solves and the
        # evaluator's chunks read that count and walk the graph no second time
        walked = counted_walks(monkeypatch)
        d = wildcatter()
        policy = solve_exact(d).policy
        evaluator = PolicyEvaluator(d)
        evaluator.evaluate_many([policy, policy])
        chunk = evaluator._chunk
        assert walked == [id(d)]
        largest = oracle_largest_bucket(d, legal_ordering(d))
        assert chunk == exact._CHUNK_CELLS // largest
