"""Finite-dimensional SL2(C) tensor combinatorics.

Irreducibles are identified by their dimension d >= 1 (V_d); the zero
object V_0 is never stored, so multisets of dimensions contain positive
integers only.  A restriction to the diagonal SL2 is stored and compared
by the ends of its runs of equal multiplicity, in O(terms) whatever the
dimensions; its entries are built on their first read.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, Iterator

from .core import (
    ArthurParameter,
    CuspidalSymbol,
    _by_dims,
    _by_rho,
    _ByLines,
    _canonical_lines,
    _line_triple,
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
    The value itself keeps, per cuspidal symbol, the first difference of
    the multiplicities by dimension with stride 2: the multiplicity of
    V_d minus that of V_(d-2), nonzero only at the ends of the runs of
    equal multiplicity.  Equality, hashing, pickling and ``len`` read
    these ints alone, in O(terms) for a restriction of a parameter;
    ``entries`` is built from them on its first read, stepping from one
    end to the next, in O(entries + ends).
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[CuspidalSymbol, int]] = ()) -> None:
        _set_lines(self, _canonical_lines(
            step for symbol, d in entries for step in ((symbol, d, 1), (symbol, d + 2, -1))
        ))

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

    def __iter__(self) -> Iterator[tuple[CuspidalSymbol, int]]:
        return iter(self.entries)

    def __len__(self) -> int:
        # on each parity class: each multiplicity times the width of its run
        total = 0
        for _, ends, steps in self._lines:
            height, start = [0, 0], [0, 0]
            for d, step in zip(ends, steps):
                parity = d & 1
                total += height[parity] * (d - start[parity]) // 2
                height[parity] += step
                start[parity] = d
        return total


def diagonal_restriction(param: ArthurParameter) -> DiagonalRestriction:
    """Restrict each term's V_a (x) V_b to the diagonal SL2 and collect
    the resulting (symbol, dimension) multiset.

    V_a (x) V_b restricts to V_d for d = |a-b|+1, |a-b|+3, ..., a+b-1, so
    on its symbol it adds +1 to the stride-2 first difference of the
    multiplicities at |a-b|+1 and -1 at a+b+1: written per term, in
    O(terms) whatever a and b are; no entry is built.  The terms come in
    canonical order, each symbol's consecutively.
    """
    lines = []
    for rho, terms in groupby(param.terms, _by_rho):
        line: dict[int, int] = {}
        get = line.get
        for a, b in map(_by_dims, terms):
            low = (a - b if a > b else b - a) + 1
            high = a + b + 1
            line[low] = get(low, 0) + 1
            line[high] = get(high, 0) - 1
        lines.append(_line_triple(rho, line))
    return DiagonalRestriction._from_lines(tuple(lines))
