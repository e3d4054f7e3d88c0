"""The epsilon quantization of numeric diagrams into order-of-magnitude ones.

A numeric diagram converts entry-by-entry: a probability ``p`` maps to the
positive value ``(+,k)`` whose bracket ``eps**(k+1) < p <= eps**k``
contains it (zero maps to the zero element); a utility ``u`` maps to the
singleton ``{(sign,-k)}`` with ``eps**-k <= |u| < eps**-(k+1)``.  The
candidate exponent comes from a logarithm and is then snapped by direct
inequality tests, so exact powers of ``eps`` land in the right bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagram import (
    CPT,
    InfluenceDiagram,
    OOMInfluenceDiagram,
    UtilityFunction,
    require_valid,
)
from .sets import OOMSet, ZERO_SET, singleton
from .values import ZERO, OOMValue, Sign


@dataclass(frozen=True)
class ConversionConfig:
    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")


def _bracket_exponent(x: float, eps: float) -> int:
    """The integer k with ``eps**(k+1) < x <= eps**k``.

    The log gives a candidate that can sit one off at exact powers of
    ``eps``; the direct comparisons snap it.
    """
    guess = int(math.floor(math.log(x) / math.log(eps)))
    for k in (guess - 1, guess, guess + 1, guess + 2):
        if eps ** (k + 1) < x <= eps**k:
            return k
    raise ArithmeticError(f"no bracket found for {x} at epsilon={eps}")


def spohn_prob(p: float, cfg: ConversionConfig) -> OOMValue:
    """Probability quantization; zero maps to the zero element."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if p == 0.0:
        return ZERO
    return OOMValue(Sign.PLUS, _bracket_exponent(p, cfg.epsilon))


def spohn_util(u: float, cfg: ConversionConfig) -> OOMSet:
    """Utility quantization; the sign carries over, zero maps to zero.

    ``eps**-k <= |u| < eps**-(k+1)`` is evaluated as the probability-style
    bracket on ``1/|u|``, which keeps the powers of ``eps`` nonnegative for
    the common case ``|u| >= 1``.
    """
    if not math.isfinite(u):
        raise ValueError(f"utility must be finite: {u}")
    if u == 0.0:
        return ZERO_SET
    sign = Sign.PLUS if u > 0 else Sign.MINUS
    k = _bracket_exponent(1.0 / abs(u), cfg.epsilon)
    return singleton(OOMValue(sign, -k))


def convert(diagram: InfluenceDiagram, cfg: ConversionConfig) -> OOMInfluenceDiagram:
    """Entry-wise quantization; the graph structure carries over unchanged."""
    require_valid(diagram, qualitative=False)
    return OOMInfluenceDiagram(
        variables=diagram.variables,
        cpts=tuple(
            CPT(c.child, c.parents, tuple(spohn_prob(p, cfg) for p in c.table))
            for c in diagram.cpts
        ),
        utilities=tuple(
            UtilityFunction(u.scope, tuple(spohn_util(x, cfg) for x in u.table))
            for u in diagram.utilities
        ),
        decision_order=diagram.decision_order,
        information_sets=dict(diagram.information_sets),
    )
