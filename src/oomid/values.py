"""Scalar order-of-magnitude values and their arithmetic.

An order-of-magnitude value is a pair ``(sign, order)`` standing for a
quantity of order ``sign * eps**order`` for an unknown, arbitrarily small
positive ``eps``.  Signs are ``+``, ``-`` or ``+-`` (sign unknown); orders
are integers, with larger orders meaning *smaller* magnitudes.  A single
zero element ``(+-, inf)`` closes the calculus: any value written with an
infinite order denotes it.

The dominance relation ``dominates`` is a partial order: positive values
beat negative ones, lower orders beat higher orders within a sign, and two
``+-`` values are never comparable (neither knows its sign, so neither can
be guaranteed at least as good as the other).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

INF = math.inf


class Sign(Enum):
    PLUS = "+"
    MINUS = "-"
    PLUSMINUS = "+-"

    # Members are singletons, so identity hashing is consistent with
    # equality, and it runs in C where ``Enum.__hash__`` runs in Python; the
    # calculus hashes signs on every table lookup.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Sign({self.value!r})"


# Sign tables for multiplication and equal-order addition.
_SIGN_MUL = {
    (Sign.PLUS, Sign.PLUS): Sign.PLUS,
    (Sign.PLUS, Sign.MINUS): Sign.MINUS,
    (Sign.MINUS, Sign.PLUS): Sign.MINUS,
    (Sign.MINUS, Sign.MINUS): Sign.PLUS,
}

_SIGN_ADD = {
    (Sign.PLUS, Sign.PLUS): Sign.PLUS,
    (Sign.MINUS, Sign.MINUS): Sign.MINUS,
}

_SIGN_NEG = {Sign.PLUS: Sign.MINUS, Sign.MINUS: Sign.PLUS, Sign.PLUSMINUS: Sign.PLUSMINUS}


@dataclass(frozen=True)
class OOMValue:
    """A sign/order pair; order ``inf`` is the unique zero element."""

    sign: Sign
    order: int | float

    def __post_init__(self) -> None:
        if self.order == INF:
            # Single zero element: any sign at infinite order collapses to it.
            object.__setattr__(self, "sign", Sign.PLUSMINUS)
        elif not isinstance(self.order, int):
            raise ValueError(f"order must be an integer or inf, got {self.order!r}")

    @property
    def is_zero(self) -> bool:
        return self.order == INF

    @property
    def is_positive(self) -> bool:
        """True for finite PLUS-signed values."""
        return self.sign is Sign.PLUS

    def __str__(self) -> str:
        order = "inf" if self.order == INF else str(self.order)
        return f"({self.sign.value},{order})"

    def __repr__(self) -> str:
        return f"OOMValue{self}"


ZERO = OOMValue(Sign.PLUSMINUS, INF)
ONE = OOMValue(Sign.PLUS, 0)
MINUS_ONE = OOMValue(Sign.MINUS, 0)


def mul(a: OOMValue, b: OOMValue) -> OOMValue:
    """Multiply two values: signs multiply, orders add (inf absorbs)."""
    if a.is_zero or b.is_zero:
        return ZERO
    sign = _SIGN_MUL.get((a.sign, b.sign), Sign.PLUSMINUS)
    return OOMValue(sign, a.order + b.order)


def add(a: OOMValue, b: OOMValue) -> OOMValue:
    """Add two values: the lower order wins; equal orders combine signs."""
    if a.order < b.order:
        return a
    if a.order > b.order:
        return b
    if a.is_zero:  # both zero
        return ZERO
    return OOMValue(_SIGN_ADD.get((a.sign, b.sign), Sign.PLUSMINUS), a.order)


def negate(a: OOMValue) -> OOMValue:
    return OOMValue(_SIGN_NEG[a.sign], a.order)


def inverse(b: OOMValue) -> OOMValue:
    """Multiplicative inverse; defined only for signed finite values."""
    if b.sign is Sign.PLUSMINUS or b.is_zero:
        raise ValueError(f"{b} has no multiplicative inverse")
    return OOMValue(b.sign, -b.order)


def dominates(a: OOMValue, b: OOMValue) -> bool:
    """The at-least-as-good partial order on values.

    Case by case on the signs: (1) two positives compare by order, lower
    wins; (2) a positive dominates an unknown-sign value of equal or higher
    order; (3) a positive dominates any negative; (4) an unknown sign
    dominates a negative of equal or lower order; (5) two negatives compare
    by order, higher wins.  Two unknown-sign values are never comparable.
    """
    sa, sb = a.sign, b.sign
    if sa is Sign.PLUS:
        if sb is Sign.MINUS:
            return True
        return a.order <= b.order  # vs PLUS or PLUSMINUS
    if sa is Sign.PLUSMINUS:
        return sb is Sign.MINUS and a.order >= b.order
    # sa is MINUS
    return sb is Sign.MINUS and a.order >= b.order


def strictly_dominates(a: OOMValue, b: OOMValue) -> bool:
    return dominates(a, b) and not dominates(b, a)


def maximal_set(values: Iterable[OOMValue]) -> set[OOMValue]:
    """The undominated elements of a finite value set."""
    pool = set(values)
    return {a for a in pool if not any(strictly_dominates(b, a) for b in pool)}


_VALUE_RE = re.compile(r"\(\s*(\+-|-\+|\+|-)\s*,\s*(-?\d+|inf)\s*\)")


def parse_value(text: str) -> OOMValue:
    """Parse ``(+,3)``, ``(-,-1)``, ``(+-,2)`` or ``(+-,inf)``.

    ``(+,inf)`` and ``(-,inf)`` are accepted and normalize to the zero
    element.
    """
    m = _VALUE_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"not an order-of-magnitude value: {text!r}")
    sign = {"+": Sign.PLUS, "-": Sign.MINUS}.get(m.group(1), Sign.PLUSMINUS)
    order: int | float = INF if m.group(2) == "inf" else int(m.group(2))
    return OOMValue(sign, order)
