"""Seeded random generators shared across the test modules.

Symbol pools are kept small so that randomly generated pairs hit matching
partners often enough to exercise the true branches of the deciders.
"""

from __future__ import annotations

import random

from spehcalc import ArthurParameter, CuspidalSymbol, SpehDatum, clebsch_gordan
from spehcalc.relevance import STRONG_FAMILIES, MoveFamily

SYMBOLS = (
    CuspidalSymbol("one"),
    CuspidalSymbol("rho"),
    CuspidalSymbol("sigma", 2),
)


def random_param(rng: random.Random, max_terms: int = 4, max_dim: int = 5,
                 symbols=SYMBOLS) -> ArthurParameter:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        rho = rng.choice(symbols)
        terms.append(SpehDatum(rho, rng.randint(1, max_dim), rng.randint(1, max_dim)))
    return ArthurParameter(tuple(terms))


def random_segment_type_param(rng: random.Random, dim: int, symbols=SYMBOLS,
                              max_len: int = 6) -> ArthurParameter:
    """A random product of segment-type terms of total dimension exactly dim."""
    terms = []
    remaining = dim
    while remaining > 0:
        usable = [s for s in symbols if s.degree <= remaining]
        rho = rng.choice(usable)
        length = rng.randint(1, min(remaining // rho.degree, max_len))
        if rng.random() < 0.5:
            terms.append(SpehDatum(rho, length, 1))
        else:
            terms.append(SpehDatum(rho, 1, length))
        remaining -= rho.degree * length
    return ArthurParameter(tuple(terms))


def segment_type_draw(seed: int, n: int, index: int, **kwargs):
    """The index-th (n, n-1) pair of ``random_segment_type_param`` draws
    from ``random.Random(seed)``, counting from 1."""
    rng = random.Random(seed)
    for _ in range(index):
        pair = random_segment_type_param(rng, n, **kwargs), random_segment_type_param(rng, n - 1, **kwargs)
    return pair


# Two false draws: three cuspidal lines with 97 and 104 terms, and one
# line with 344 and 304 terms.  The peeling recursion that the level sweep
# replaced took 7-10 s and 63 s on them.
LARGE_FALSE_DRAWS = {
    "three_lines_n480": {"seed": 480, "n": 480, "index": 4},
    "one_line_n3840": {"seed": 24 * 3840, "n": 3840, "index": 3, "symbols": SYMBOLS[:1], "max_len": 24},
}


def random_segment_type_related_pair(rng: random.Random, pairs: int, symbols=SYMBOLS,
                                     max_len: int = 6):
    """A segment-type pair of dimensions n and n-1 that is matchable by
    construction: ``pairs`` strong-family pairs of segment-type terms and
    some droppable terms u(rho;c,1), then droppable terms on a degree-1
    line in ``symbols`` until the dimensions differ by exactly one."""
    terms1, terms2 = [], []
    for _ in range(pairs):
        rho = rng.choice(symbols)
        if rng.random() < 0.2:
            rng.choice((terms1, terms2)).append(SpehDatum(rho, rng.randint(1, max_len), 1))
            continue
        family = rng.choice(STRONG_FAMILIES)
        if family in (MoveFamily.F1, MoveFamily.F3):
            left = SpehDatum(rho, 1, rng.randint(2, max_len))
        elif family is MoveFamily.F2:
            left = SpehDatum(rho, 1, rng.randint(1, max_len - 1))
        else:
            left = SpehDatum(rho, rng.randint(1, max_len - 1), 1)
        terms1.append(left)
        terms2.append(family.partner(left))
    unit = next(s for s in symbols if s.degree == 1)
    excess = sum(s.degree for s in terms1) - sum(s.degree for s in terms2) - 1
    short = terms2 if excess > 0 else terms1
    excess = abs(excess)
    while excess:
        length = min(excess, rng.randint(1, max_len))
        short.append(SpehDatum(unit, length, 1))
        excess -= length
    return ArthurParameter(tuple(terms1)), ArthurParameter(tuple(terms2))


def random_param_bounded(rng: random.Random, max_total: int = 30,
                         symbols=SYMBOLS) -> ArthurParameter:
    """A random parameter of total dimension at most max_total."""
    terms = []
    budget = rng.randint(0, max_total)
    while budget > 0 and rng.random() > 0.2:
        usable = [s for s in symbols if s.degree <= budget]
        rho = rng.choice(usable)
        cap = budget // rho.degree
        a = rng.randint(1, min(cap, 6))
        b = rng.randint(1, max(1, min(cap // a, 6)))
        terms.append(SpehDatum(rho, a, b))
        budget -= rho.degree * a * b
    return ArthurParameter(tuple(terms))


def random_related_pair(rng: random.Random, families=STRONG_FAMILIES,
                        max_terms: int = 4, max_dim: int = 5, symbols=SYMBOLS):
    """A pair that is matchable by construction: build the matching first,
    then read off the two parameters."""
    terms1, terms2 = [], []
    for _ in range(rng.randint(0, max_terms)):
        rho = rng.choice(symbols)
        left = SpehDatum(rho, rng.randint(1, max_dim), rng.randint(1, max_dim))
        family = rng.choice(families)
        partner = family.partner(left)
        if partner is None:
            terms1.append(left)  # degenerate move: left is droppable
        else:
            terms1.append(left)
            terms2.append(partner)
    for side in (terms1, terms2):
        for _ in range(rng.randint(0, 2)):
            side.append(SpehDatum(rng.choice(symbols), rng.randint(1, max_dim), 1))
    return ArthurParameter(tuple(terms1)), ArthurParameter(tuple(terms2))


def random_pair(rng: random.Random, related_probability: float = 0.5,
                families=STRONG_FAMILIES):
    """Either an independent pair or a matchable-by-construction one."""
    if rng.random() < related_probability:
        return random_related_pair(rng, families)
    return random_param(rng), random_param(rng)


def support_preserving_variant(rng: random.Random, param: ArthurParameter) -> ArthurParameter:
    """Rewrite a parameter without changing its cuspidal support: keep a
    term, swap its SL2 factors, or split it into the segment-type terms
    given by its diagonal SL2 decomposition."""
    terms = []
    for s in param:
        roll = rng.random()
        if roll < 0.4:
            terms.append(s)
        elif roll < 0.7:
            terms.append(SpehDatum(s.rho, s.b, s.a))
        else:
            for d in clebsch_gordan(s.a, s.b):
                if rng.random() < 0.5:
                    terms.append(SpehDatum(s.rho, 1, d))
                else:
                    terms.append(SpehDatum(s.rho, d, 1))
    return ArthurParameter(tuple(terms))


def random_generic_pair(rng: random.Random, max_n: int = 20):
    """A generic (all Arthur dims 1) pair of dimensions (n, n-1)."""
    n = rng.randint(2, max_n)

    def fill(dim):
        terms = []
        remaining = dim
        while remaining > 0:
            usable = [s for s in SYMBOLS if s.degree <= remaining]
            rho = rng.choice(usable)
            length = rng.randint(1, min(remaining // rho.degree, 6))
            terms.append(SpehDatum(rho, length, 1))
            remaining -= rho.degree * length
        return ArthurParameter(tuple(terms))

    return fill(n), fill(n - 1)
