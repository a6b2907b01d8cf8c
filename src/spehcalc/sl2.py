"""Finite-dimensional SL2(C) tensor combinatorics.

Irreducibles are identified by their dimension d >= 1 (V_d); the zero
object V_0 is never stored, so multisets of dimensions contain positive
integers only.  A restriction to the diagonal SL2 is stored and compared
by its ends, in the format that ``core._restriction_lines`` states and
in O(terms) whatever the dimensions; its entries are built on their
first read.  A parameter's restriction wraps the ends it keeps
(``ArthurParameter._ends``).
"""

from __future__ import annotations

from operator import mul
from typing import Iterable

from .core import (
    ArthurParameter,
    CuspidalSymbol,
    _ByLines,
    _canonical_lines,
    _set_lines,
)


def clebsch_gordan(a: int, b: int) -> tuple[int, ...]:
    """Decompose V_a (x) V_b into irreducibles.

    Returns the dimensions a+b-1, a+b-3, ..., |a-b|+1 in decreasing
    order; their sum is a*b.
    """
    if a < 1 or b < 1:
        raise ValueError(f"tensor factors must have dimension >= 1, got ({a}, {b})")
    return tuple(a + b - 1 - 2 * k for k in range(min(a, b)))


def tensor_pair_recovery(a: int, b: int, c: int, d: int) -> bool:
    """True when V_a (x) V_b and V_c (x) V_d decompose identically.

    A tensor product of two SL2 irreducibles determines its factors up to
    order, so this holds exactly when {a, b} = {c, d} as multisets; the
    function exists so that property tests can confirm the equivalence by
    brute force.
    """
    return sorted(clebsch_gordan(a, b)) == sorted(clebsch_gordan(c, d))


class DiagonalRestriction(_ByLines):
    """Restriction of a parameter to the diagonally embedded SL2: a
    canonical multiset of (cuspidal symbol, irreducible dimension) pairs.

    ``entries`` holds the pairs sorted by (symbol id, degree, dimension).
    The value itself keeps only the ends, as its lines, in the format of
    ``core._restriction_lines``.  Equality, hashing, pickling and ``len``
    read these ints alone, in O(terms) for a restriction of a parameter;
    ``entries`` is built from them on its first read, stepping from one
    end to the next, in O(entries + ends).  Dimensions are positive: an
    entry below 1 raises ``ValueError``.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[CuspidalSymbol, int]] = ()) -> None:
        steps = []
        for symbol, d in entries:
            if d < 1:
                raise ValueError(f"restriction dimensions must be >= 1, got {d}")
            steps += ((symbol, d, 1), (symbol, d + 2, -1))
        _set_lines(self, _canonical_lines(steps))

    def _expand(self) -> tuple[tuple[CuspidalSymbol, int], ...]:
        entries = []
        for symbol, ends, steps in self._lines:
            # between two ends, each parity's multiplicity is constant;
            # a gap where both are 0 holds no entry and is skipped
            height = [0, 0]
            for start, stop, step in zip(ends, ends[1:], steps):
                height[start & 1] += step
                if height[0] or height[1]:
                    for d in range(start, stop):
                        entries += [(symbol, d)] * height[d & 1]
        return tuple(entries)

    def __len__(self) -> int:
        # each entry d adds +1 at d and -1 at d+2: -2 to the sum of d * step
        return -sum(sum(map(mul, ends, steps)) for _, ends, steps in self._lines) // 2


def diagonal_restriction(param: ArthurParameter) -> DiagonalRestriction:
    """Restrict each term's V_a (x) V_b to the diagonal SL2 and collect
    the resulting (symbol, dimension) multiset: a wrapper of the ends the
    parameter keeps (``ArthurParameter._ends``; see
    ``core._restriction_lines``); no entry is built."""
    return DiagonalRestriction._from_lines(param._ends)
