"""The array kernels of ``oom_solve`` and the codec of ``sets`` against the
scalar calculus.

Every kernel runs once over a whole batch of operand tuples, and each
result must equal the scalar result exactly.  Values come from the
acceptance window; sets are every canonical set built from it.  Given an
axis counted from the end, as the steps give it, every kernel and float
reduction must pass leading axes through.
"""

import itertools

import numpy as np
import pytest

from oomid.oom_solve import (
    _max_value,
    _maximal_actions,
    canonical,
    max_ends,
    maximal_mask,
    sum_ends,
)
from oomid.sets import (
    ZERO_SET,
    OOMSet,
    canonicalize,
    decode_set,
    decode_value,
    encode_sets,
    encode_value,
    max_sets,
    scale,
    singleton,
    sum_sets,
)
from oomid.values import ZERO, OOMValue, Sign, add, mul

# the order window of the acceptance tests
WINDOW = [
    OOMValue(s, o) for s in (Sign.PLUS, Sign.MINUS, Sign.PLUSMINUS) for o in range(-4, 5)
] + [ZERO]

PROBABILITIES = [v for v in WINDOW if v.is_positive or v.is_zero]


def canonical_sets(values):
    """Singletons, +- pairs with every second element above them, zero."""
    pairs = [
        OOMSet((lo, hi))
        for lo in values
        if lo.sign is Sign.PLUSMINUS and not lo.is_zero
        for hi in values
        if lo.order < hi.order
    ]
    return [singleton(v) for v in values] + pairs


SETS = canonical_sets(WINDOW)
assert ZERO_SET in SETS
# all triples of SETS are ~3M scalar oracle calls; triples run over the sets
# built from the window's orders -1..2, which still give every tie and
# strict order among the four extremes a canonicalization compares
SMALL_SETS = canonical_sets([v for v in WINDOW if v.is_zero or -1 <= v.order <= 2])


def bits(values) -> np.ndarray:
    """(bit, value) orders of a list of values."""
    return np.array([encode_value(v) for v in values]).T


def decoded_values(table: np.ndarray) -> list:
    return [decode_value(p, m) for p, m in table.T.tolist()]


def tuples_table(sets, arity: int):
    """All ``arity``-tuples of ``sets`` and their (bit, end, tuple, member)
    table."""
    combos = list(itertools.product(sets, repeat=arity))
    index = {s: i for i, s in enumerate(sets)}
    picks = np.array([[index[s] for s in combo] for combo in combos])
    return combos, encode_sets(sets)[:, :, picks]


def decoded_sets(table: np.ndarray) -> list:
    return [decode_set(table[:, :, i]) for i in range(table.shape[2])]


def test_window_values_round_trip():
    assert decoded_values(bits(WINDOW)) == WINDOW
    assert decoded_sets(encode_sets(SETS)) == SETS


@pytest.mark.parametrize("order", [1.5, np.nan, -np.inf])
def test_decode_rejects_what_encode_never_writes(order):
    # a library-built table may hold such orders; printing it must not
    # round them into a value
    with pytest.raises(ValueError):
        decode_value(order, np.inf)
    with pytest.raises(ValueError):
        decode_set(np.array([[order, order], [np.inf, np.inf]]))


@pytest.mark.parametrize("arity", [2, 3])
def test_add_is_bitwise_min(arity):
    combos = list(itertools.product(WINDOW, repeat=arity))
    got = np.minimum.reduce([bits([c[i] for c in combos]) for i in range(arity)])
    want = []
    for combo in combos:
        total = combo[0]
        for v in combo[1:]:
            total = add(total, v)
        want.append(total)
    assert decoded_values(got) == want


@pytest.mark.parametrize("arity", [2, 3])
def test_mul_by_probabilities_adds_orders(arity):
    # the array calculus multiplies only by probabilities (positive or
    # zero): their orders add, and a value's bit orders take the sum
    for *probs, v in itertools.product(*[PROBABILITIES] * (arity - 1), WINDOW):
        order = sum(p.order for p in probs)
        want = probs[0]
        for p in probs[1:] + [v]:
            want = mul(want, p)
        assert decode_value(*(np.array(encode_value(v)) + order)) == want


def test_probability_sum_and_maximum_are_min():
    for a, b in itertools.product(PROBABILITIES, repeat=2):
        assert decode_value(min(a.order, b.order), np.inf) == add(a, b)
        assert decode_value(min(a.order, b.order), np.inf) == _max_value(a, b)


def test_scale():
    table = encode_sets(SETS)
    for q in PROBABILITIES:
        assert decoded_sets(table + q.order) == [scale(q, s) for s in SETS]


def test_pair_canonicalization():
    pairs = list(itertools.product(WINDOW, repeat=2))
    lo, hi = bits([a for a, _ in pairs]), bits([b for _, b in pairs])
    got = canonical(np.array([lo[0], hi[0]]), np.array([lo[1], hi[1]]), 0)
    assert decoded_sets(got) == [canonicalize(pair) for pair in pairs]


@pytest.mark.parametrize("sets, arity", [(SETS, 2), (SMALL_SETS, 3)], ids=["pairs", "triples"])
def test_sum_sets(sets, arity):
    combos, table = tuples_table(sets, arity)
    assert decoded_sets(sum_ends(table, -1)) == [sum_sets(*c) for c in combos]


@pytest.mark.parametrize("sets, arity", [(SETS, 2), (SMALL_SETS, 3)], ids=["pairs", "triples"])
def test_max_sets(sets, arity):
    combos, table = tuples_table(sets, arity)
    assert decoded_sets(max_ends(table, -1)) == [max_sets(*c) for c in combos]


@pytest.mark.parametrize("sets, arity", [(SETS, 2), (SMALL_SETS, 3)], ids=["pairs", "triples"])
def test_maximal_actions(sets, arity):
    combos, table = tuples_table(sets, arity)
    got = [frozenset(np.flatnonzero(col).tolist()) for col in maximal_mask(table, -1).T]
    assert got == [_maximal_actions(*c) for c in combos]


def test_single_sets_are_fixed_points_of_sum():
    # the solver skips ``sum_ends`` on a bucket with one utility: an encoded
    # canonical set, a sum or maximum of sets, or one shifted by a finite
    # order must come back unchanged
    _, table = tuples_table(SETS, 2)
    for t in [encode_sets(SETS), sum_ends(table, -1), max_ends(table, -1)]:
        for shift in range(-4, 5):
            assert np.array_equal(sum_ends(t + shift), t + shift)
    # while a pair of arbitrary ends is not a fixed point in general
    pairs = list(itertools.product(WINDOW, repeat=2))
    lo, hi = bits([a for a, _ in pairs]), bits([b for _, b in pairs])
    raw = np.array([[lo[0], hi[0]], [lo[1], hi[1]]])
    assert not np.array_equal(sum_ends(raw), raw)


# the steps hand each reduction its axis counted from the end, so an
# extra leading axis (after (bit, end) for sets, in front for floats) must
# reduce to its slices' results, stacked where that axis lands in the result
LEADING_LANDS = {sum_ends: 2, max_ends: 2, maximal_mask: 1}


@pytest.mark.parametrize(
    "reduce",
    [*LEADING_LANDS, np.ndarray.min, np.ndarray.sum, np.ndarray.max, np.ndarray.argmax],
    ids=lambda r: r.__name__,
)
def test_reduce_out_passes_leading_axes_through(reduce):
    rng = np.random.default_rng(0)
    shape = (3, 4, 3, 2)  # the leading axis, then three scope axes
    if reduce in LEADING_LANDS:
        table, lead = encode_sets(SETS)[:, :, rng.integers(len(SETS), size=shape)], 2
    else:
        table, lead = rng.integers(-2, 3, size=shape).astype(float), 0  # with ties
    for axis in (-3, -2, -1):
        got = reduce(table, axis)
        slices = [reduce(np.take(table, e, lead), axis) for e in range(shape[0])]
        assert got.shape[got.ndim - 2 :] == tuple(np.delete(shape[1:], axis))
        assert np.array_equal(got, np.stack(slices, LEADING_LANDS.get(reduce, 0)))
