"""Finite-dimensional SL2(C) tensor combinatorics.

Irreducibles are identified by their dimension d >= 1 (V_d); the zero
object V_0 is never stored, so multisets of dimensions contain positive
integers only.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import ArthurParameter, CuspidalSymbol, _Record


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


class DiagonalRestriction(_Record):
    """Restriction of a parameter to the diagonally embedded SL2: a
    canonical multiset of (cuspidal symbol, irreducible dimension) pairs."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[CuspidalSymbol, int]] = ()) -> None:
        (set_entries,) = self._setters
        set_entries(self, tuple(sorted(entries, key=lambda e: (e[0].sort_key, e[1]))))

    def __iter__(self) -> Iterator[tuple[CuspidalSymbol, int]]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def diagonal_restriction(param: ArthurParameter) -> DiagonalRestriction:
    """Restrict each term's V_a (x) V_b to the diagonal SL2 and collect
    the resulting (symbol, dimension) multiset."""
    entries = []
    for s in param:
        for d in clebsch_gordan(s.a, s.b):
            entries.append((s.rho, d))
    return DiagonalRestriction(tuple(entries))
