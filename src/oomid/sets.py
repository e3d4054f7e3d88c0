"""Canonical sets of order-of-magnitude values.

Up to convex-closure equivalence, every finite set of order-of-magnitude
values collapses to either a singleton ``{a}`` or a pair
``{(+-,m), (sign,n)}`` with ``m < n`` (``n`` may be ``inf``).  ``OOMSet``
stores exactly that canonical form.  Its operations here (scaling by a
positive value, summation, maximization) are the paper's calculus and the
reference for the array kernels that the solver runs instead.

The codec at the end is the one translation between these objects and
the float64 tables that qualitative diagrams hold; ``elim_oom_id`` decodes
only its MEU with it, and the test oracle ``brute_force_oom`` every table.
``canonical`` is ``canonicalize`` on those tables, for the kernels and
``validate``, which accepts a utility table only as its fixed point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .values import (
    INF,
    ZERO,
    OOMValue,
    Sign,
    add,
    dominates,
    mul,
    parse_value,
)


@dataclass(frozen=True)
class OOMSet:
    """One or two values in canonical form (unknown-sign element first)."""

    elements: tuple[OOMValue, ...]

    def __post_init__(self) -> None:
        els = self.elements
        if len(els) == 1:
            return
        if len(els) == 2:
            lo, hi = els
            if lo.sign is Sign.PLUSMINUS and lo.order < hi.order:
                return
        raise ValueError(f"not in canonical form: {els}")

    def __iter__(self):
        return iter(self.elements)

    def __str__(self) -> str:
        return "{" + ",".join(str(v) for v in self.elements) + "}"

    def __repr__(self) -> str:
        return f"OOMSet{self}"


def singleton(value: OOMValue) -> OOMSet:
    return OOMSet((value,))

ZERO_SET = singleton(ZERO)


def canonicalize(values: Iterable[OOMValue]) -> OOMSet:
    """Reduce a finite value set to its canonical equivalent.

    Per sign, only the extreme orders can matter: ``m_s`` is the lowest
    (largest magnitude) and ``n_s`` the highest.  The case split:

    * only negatives: keep the highest-order (least bad) one;
    * a positive at least as low as every unknown-sign value: it wins;
    * otherwise a lower unknown-sign value survives next to the best
      positive, or (with no positives) the unknown-sign extremes bracket
      the result, with a less-bad negative replacing the upper end when it
      beats every unknown-sign element.
    """
    pool = list(values)
    if not pool:
        raise ValueError("cannot canonicalize an empty set")

    m: dict[Sign, int | float] = {}
    n: dict[Sign, int | float] = {}
    for v in pool:
        if v.sign not in m:
            m[v.sign] = n[v.sign] = v.order
        else:
            m[v.sign] = min(m[v.sign], v.order)
            n[v.sign] = max(n[v.sign], v.order)

    plus, pm, minus = Sign.PLUS, Sign.PLUSMINUS, Sign.MINUS
    if plus not in m and pm not in m:
        return singleton(OOMValue(minus, n[minus]))
    if plus in m and (pm not in m or m[plus] <= m[pm]):
        return singleton(OOMValue(plus, m[plus]))
    if plus in m:
        return OOMSet((OOMValue(pm, m[pm]), OOMValue(plus, m[plus])))
    if minus not in m or n[pm] >= n[minus]:
        if m[pm] == n[pm]:
            return singleton(OOMValue(pm, m[pm]))
        return OOMSet((OOMValue(pm, m[pm]), OOMValue(pm, n[pm])))
    return OOMSet((OOMValue(pm, m[pm]), OOMValue(minus, n[minus])))


def scale(q: OOMValue, a: OOMSet) -> OOMSet:
    """Multiply every element by a positive value ``q`` (or by zero)."""
    if q.is_zero:
        return ZERO_SET
    if q.sign is not Sign.PLUS:
        raise ValueError(f"scale factor must be positive or zero, got {q}")
    return OOMSet(tuple(mul(q, v) for v in a.elements))


def max_sets(*sets: OOMSet) -> OOMSet:
    """Canonical maximum of one or more canonical sets."""
    if not sets:
        raise ValueError("max_sets needs at least one set")
    return canonicalize(v for s in sets for v in s.elements)


def sum_sets(*sets: OOMSet) -> OOMSet:
    """Canonical sum of one or more canonical sets.

    Writing each operand as ``{a_i, b_i}`` (``a_i = b_i`` for singletons),
    the sum is equivalent to ``{sum of a_i, sum of b_i}``; the pair is then
    re-canonicalized, which also collapses it when both ends agree.
    """
    if not sets:
        raise ValueError("sum_sets needs at least one set")
    lo, hi = sets[0].elements[0], sets[0].elements[-1]
    for s in sets[1:]:
        lo, hi = add(lo, s.elements[0]), add(hi, s.elements[-1])
    return canonicalize((lo, hi))


def set_dominates(
    a: OOMSet | Iterable[OOMValue], b: OOMSet | Iterable[OOMValue]
) -> bool:
    """True iff every element of ``b`` is dominated by some element of ``a``.

    Defined for arbitrary value collections, not just canonical sets.
    """
    xs = list(a)
    return all(any(dominates(x, y) for x in xs) for y in b)


def equiv(a: OOMSet, b: OOMSet) -> bool:
    """Equality of canonical forms, finer than closure equivalence (ROADMAP item 14)."""
    return a.elements == b.elements


def parse_set(text: str) -> OOMSet:
    """Parse ``{(+,2)}`` or ``{(+-,3),(-,5)}`` (canonical order expected)."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"not an order-of-magnitude set: {text!r}")
    parts = body[1:-1].split("),")
    if parts == [""]:
        raise ValueError("empty order-of-magnitude set")
    values = [parse_value(p if p.endswith(")") else p + ")") for p in parts]
    return canonicalize(values)


# ---------------------------------------------------------------------------
# the array codec
#
# A probability is its order, ``inf`` for zero.  A signed value reads its
# sign as two bits, + = 1, - = 2, +- = 3, and stores one order per bit,
# ``inf`` where the bit is unset: ``(+,k)`` is ``(k, inf)``, ``(-,k)`` is
# ``(inf, k)``, ``(+-,k)`` is ``(k, k)`` and zero is ``(inf, inf)``.  A set
# is a (bit, end) table: its low and its high element, equal for a
# singleton, as ``OOMSet`` stores them.  A table of sets has them along its
# last axis, (bit, end, set).

def _order(k: int | float) -> float:
    """``k`` as a float, one past float64's range as the largest float of
    its sign: an order no valid diagram holds."""
    try:
        return float(k)
    except OverflowError:
        return sys.float_info.max if k > 0 else -sys.float_info.max


def encode_value(v: OOMValue) -> tuple[float, float]:
    """A value's (+ bit, - bit) orders."""
    order = _order(v.order)
    return (
        INF if v.sign is Sign.MINUS else order,
        INF if v.sign is Sign.PLUS else order,
    )


def encode_orders(values: Sequence[OOMValue]) -> np.ndarray:
    """Probabilities as their orders.  A value that is neither positive nor
    zero is no probability and becomes nan, which ``validate`` rejects."""
    return np.array(
        [_order(v.order) if v.is_positive or v.is_zero else math.nan for v in values],
        dtype=float,
    )


def encode_sets(sets: Sequence[OOMSet]) -> np.ndarray:
    """Canonical sets as a (bit, end, set) table."""
    ends = [encode_value(s.elements[0]) + encode_value(s.elements[-1]) for s in sets]
    return np.array(ends, dtype=float).reshape(-1, 2, 2).transpose(2, 1, 0)


def decode_value(plus: float, minus: float) -> OOMValue:
    """The value of a pair of bit orders; ``decode_value(k, inf)`` is the
    probability of order ``k``."""
    if plus == minus == INF:
        return ZERO
    sign = Sign.PLUS if plus < minus else Sign.MINUS if minus < plus else Sign.PLUSMINUS
    order = min(plus, minus)
    # a nan or non-integral order stays as it is, for OOMValue to reject
    return OOMValue(sign, int(order) if float(order).is_integer() else order)


def decode_set(table) -> OOMSet:
    """The set of a (bit, end) table."""
    (lo_plus, hi_plus), (lo_minus, hi_minus) = table
    lo, hi = decode_value(lo_plus, lo_minus), decode_value(hi_plus, hi_minus)
    return OOMSet((lo,) if lo == hi else (lo, hi))


def canonical(plus: np.ndarray, minus: np.ndarray, axis) -> np.ndarray:
    """``canonicalize`` of the values along ``axis`` (an axis or a tuple of
    them), given by their bit orders; a (bit, end, rest) table.

    Per sign: ``m_s`` is its lowest order, ``n_s`` its highest, and a sign
    that does not occur has ``m_s = inf`` and ``n_s = -inf``.  Zero counts as
    a +- value at order ``inf``.
    """
    is_pm = plus == minus
    m_plus = np.min(plus, axis, initial=INF, where=plus < minus)
    m_pm = np.min(plus, axis, initial=INF, where=is_pm)
    n_pm = np.max(plus, axis, initial=-INF, where=is_pm)
    n_minus = np.max(minus, axis, initial=-INF, where=minus < plus)
    has_plus = m_plus < INF
    # a positive at least as low as every +- value is the whole set
    lone_plus = has_plus & (m_plus <= m_pm)
    only_minus = ~has_plus & (n_pm == -INF)
    # otherwise a +- value at m_pm is the low end (there are no +- values
    # only when all are negative, and then m_pm is inf)
    lo_minus = np.where(lone_plus, INF, np.where(only_minus, n_minus, m_pm))
    lo_plus = np.where(lone_plus, m_plus, m_pm)
    # the high end: the best positive, else the +- extreme or a less-bad
    # negative, whichever is higher
    hi_plus = np.where(has_plus, m_plus, np.where(n_pm >= n_minus, n_pm, INF))
    hi_minus = np.where(has_plus, INF, np.maximum(n_pm, n_minus))
    return np.array([[lo_plus, hi_plus], [lo_minus, hi_minus]])
