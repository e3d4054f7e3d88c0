"""The epsilon quantization of numeric diagrams into order-of-magnitude ones.

A probability ``p`` maps to the positive value ``(+,k)`` whose bracket
``eps**(k+1) < p <= eps**k`` contains it (zero maps to the zero element); a
utility ``u`` maps to the singleton ``{(sign,-k)}`` with
``eps**-k <= |u| < eps**-(k+1)``.

``convert`` quantizes a diagram in one array pass: every CPT entry goes
into one float array and every utility entry into another.  A logarithm
gives each entry's candidate exponent, and exact comparisons against
``eps**k`` (Python float powers) snap it, so exact powers of ``eps`` land
in the right bracket.  The results are the qualitative tables themselves
(see ``diagram``): one array of probability orders and one (bit, end,
cell) table of singleton utility sets, each frozen once and handed out in
per-function views.  ``spohn_prob`` and ``spohn_util`` quantize one
number and decode it with the codec of ``sets``.

The converted diagram keeps the numeric diagram's variables, scopes,
decision order and information sets, so ``convert`` records it as valid
(see ``diagram.mark_valid``) instead of validating it again, once its
orders are within ``diagram.order_limit``.  It hands the result the
numeric diagram's recorded ``ordering.Skeleton``, if any, as the same
object: the graph and the domains it is found from are the same.
An entry that cannot be quantized raises ``DiagramError``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .diagram import (
    CPT,
    DiagramError,
    InfluenceDiagram,
    OOMInfluenceDiagram,
    UtilityFunction,
    mark_valid,
    order_limit,
    require_valid,
)
from .sets import decode_set, decode_value


@dataclass(frozen=True)
class ConversionConfig:
    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")


def _power(eps: float, k: int) -> float:
    """``eps**k`` as a Python float, inf where it overflows."""
    try:
        return eps**k
    except OverflowError:
        return math.inf


def _bracket_exponents(x: np.ndarray, eps: float, limit: float) -> np.ndarray:
    """The integer k with ``eps**(k+1) < x <= eps**k`` for each positive
    finite x, and ``DiagramError`` if an x has none or a k exceeds ``limit``
    in magnitude.

    A logarithm guesses ``g``; ``np.log`` can land one further off than
    ``math.log`` at an exact power of ``eps``, so the powers ``eps**(g-2)``
    to ``eps**(g+3)`` of every distinct guess go into one ascending table,
    and a binary search finds the smallest power ``eps**k >= x``.  It is
    the bracket's upper edge if it is finite and the power below it in the
    table is ``eps**(k+1)``.
    """
    if not len(x):
        return np.zeros(0, dtype=np.int64)
    guesses = set(np.floor(np.log(x) / math.log(eps)).tolist())
    window = sorted({int(g) + j for g in guesses for j in range(-2, 4)}, reverse=True)
    # between the sentinels 0.0 and inf, each two exponents away from its
    # neighbour so that neither edges a bracket
    exponents = [window[0] + 2, *window, window[-1] - 2]
    powers = [0.0, *(_power(eps, k) for k in window), math.inf]
    upper = [False] + [
        math.isfinite(powers[i]) and exponents[i - 1] == exponents[i] + 1
        for i in range(1, len(powers))
    ]
    at = np.searchsorted(powers, x)
    found = np.array(upper)[at]
    if not found.all():
        raise DiagramError(f"cannot quantize {x[~found][0]} at epsilon={eps}: no bracket")
    k = np.array(exponents)[at]
    if np.abs(k).max() > limit:
        raise DiagramError(f"order {np.abs(k).max()} at epsilon={eps} exceeds +-{limit}")
    return k


def _probabilities(p: np.ndarray, eps: float, limit: float) -> np.ndarray:
    """The order of each probability in [0, 1], ``inf`` for zero."""
    orders = np.full(p.shape, math.inf)
    positive = p > 0.0
    orders[positive] = _bracket_exponents(p[positive], eps, limit)
    return orders


def _utilities(u: np.ndarray, eps: float, limit: float) -> np.ndarray:
    """Each finite utility quantized: the (bit, end, utility) table of its
    singleton set.

    The bracket of ``|u|`` is evaluated as the probability-style bracket on
    ``1/|u|``, which keeps the powers of ``eps`` nonnegative for the common
    case ``|u| >= 1``.
    """
    orders = np.full(u.shape, math.inf)
    nonzero = u != 0.0
    with np.errstate(over="ignore"):
        inverse = 1.0 / np.abs(u[nonzero])
    tiny = np.isinf(inverse)
    if tiny.any():
        raise DiagramError(f"cannot quantize {u[nonzero][tiny][0]}: 1/|u| overflows")
    orders[nonzero] = -_bracket_exponents(inverse, eps, limit)
    bits = np.array([np.where(u < 0.0, math.inf, orders), np.where(u > 0.0, math.inf, orders)])
    return np.repeat(bits[:, None], 2, axis=1)  # both ends of a singleton


def spohn_prob(p: float, cfg: ConversionConfig):
    """Probability quantization as an ``OOMValue``; zero maps to the zero
    element."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    order = _probabilities(np.array([p], dtype=float), cfg.epsilon, math.inf)[0]
    return decode_value(order, math.inf)


def spohn_util(u: float, cfg: ConversionConfig):
    """Utility quantization as an ``OOMSet``; the sign carries over, zero
    maps to zero."""
    if not math.isfinite(u):
        raise ValueError(f"utility must be finite: {u}")
    return decode_set(_utilities(np.array([u], dtype=float), cfg.epsilon, math.inf)[:, :, 0])


def _quantized(functions: tuple, quantize: Callable) -> list[np.ndarray]:
    """``quantize`` over the entries of all ``functions`` at once, frozen
    and cut along its last axis into one view per function, in order."""
    if not functions:
        return []
    table = quantize(np.concatenate([f.table for f in functions]))
    table.setflags(write=False)
    ends = list(itertools.accumulate(f.table.size for f in functions))
    return [table[..., a:b] for a, b in zip([0, *ends], ends)]


def convert(diagram: InfluenceDiagram, cfg: ConversionConfig) -> OOMInfluenceDiagram:
    """Entry-wise quantization; the graph structure carries over unchanged."""
    require_valid(diagram, qualitative=False)
    eps, limit = cfg.epsilon, order_limit(diagram)
    probabilities = _quantized(diagram.cpts, partial(_probabilities, eps=eps, limit=limit))
    utilities = _quantized(diagram.utilities, partial(_utilities, eps=eps, limit=limit))
    oom = OOMInfluenceDiagram(
        variables=diagram.variables,
        cpts=tuple(
            CPT(c.child, c.parents, table)
            for c, table in zip(diagram.cpts, probabilities)
        ),
        utilities=tuple(
            UtilityFunction(u.scope, table)
            for u, table in zip(diagram.utilities, utilities)
        ),
        decision_order=diagram.decision_order,
        information_sets=dict(diagram.information_sets),
    )
    object.__setattr__(oom, "_skeleton", diagram._skeleton)
    return mark_valid(oom)
