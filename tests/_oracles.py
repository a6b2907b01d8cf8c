"""Independent brute-force oracles shared by the test modules."""

from __future__ import annotations

from typing import Iterable

from spehcalc import CuspidalSymbol, Matching, MatchedPair, MoveFamily, SpehDatum


def oracle_rectangle(s: SpehDatum) -> list[int]:
    """The a*b doubled exponents of u_rho(a, b)'s cuspidal support, one by
    one: i + j for j over the centered Arthur segment of length b and i
    over the centered Deligne segment of length a, both doubled.  The one
    rectangle the support tests count twists by."""
    return [j2 + i2 for j2 in range(1 - s.b, s.b, 2) for i2 in range(1 - s.a, s.a, 2)]


def oracle_pieces(terms: Iterable[SpehDatum]) -> list[tuple[CuspidalSymbol, int]]:
    """The Clebsch-Gordan pieces of the terms' restriction to the diagonal
    SL2, one (rho, d) per piece, term by term: V_a (x) V_b is V_d for d =
    a+b-1, a+b-3, ..., |a-b|+1.  Spelled here apart from
    ``sl2.clebsch_gordan``; the one split the restriction tests use."""
    return [(s.rho, d) for s in terms for d in range(s.a + s.b - 1, abs(s.a - s.b), -2)]


def oracle_compatible(left: SpehDatum, right: SpehDatum, family: MoveFamily) -> bool:
    """Family compatibility spelled out as equations on the coordinate
    pairs, independent of the partner computation used by the search."""
    if left.rho != right.rho:
        return False
    c1, d1, c2, d2 = left.a, left.b, right.a, right.b
    if family is MoveFamily.F1:
        return d1 >= 2 and c2 == c1 and d2 == d1 - 1
    if family is MoveFamily.F2:
        return c2 == c1 and d2 == d1 + 1
    if family is MoveFamily.F3:
        return d1 >= 2 and c2 == d1 - 1 and d2 == c1
    return c2 == d1 and d2 == c1 + 1


def oracle_matchings(a1, a2, families) -> set:
    """Index-level exhaustive matcher: assign every left position a drop
    or a (right position, family), then require leftover right terms to
    be droppable.  Deduped at value level via matching sort keys."""
    terms1, terms2 = list(a1.terms), list(a2.terms)
    found = {}

    def go(i, used, pairs):
        if i == len(terms1):
            leftovers = [t for j, t in enumerate(terms2) if j not in used]
            if all(t.b == 1 for t in leftovers):
                m = Matching(
                    tuple(p for p in pairs if p is not None),
                    tuple(terms1[j] for j, p in enumerate(pairs) if p is None),
                    tuple(leftovers),
                )
                found[m.sort_key] = m
            return
        t = terms1[i]
        if t.b == 1:
            go(i + 1, used, pairs + [None])
        for j, u in enumerate(terms2):
            if j in used:
                continue
            for family in families:
                if oracle_compatible(t, u, family):
                    go(i + 1, used | {j}, pairs + [MatchedPair(t, u, family)])

    go(0, frozenset(), [])
    return set(found.values())
