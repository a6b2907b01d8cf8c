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
                                     max_len: int = 6, tight=None):
    """A segment-type pair of dimensions n and n-1 that is matchable by
    construction: ``pairs`` strong-family pairs of segment-type terms and
    some droppable terms u(rho;c,1), then droppable terms on a degree-1
    line in ``symbols`` until the dimensions differ by exactly one.

    On the line ``tight``, if given, every pair is an F1 or F2 move from
    a left u(rho;1,d), d >= 3, and no droppable term is drawn (the
    closing ones land there when it is the first degree-1 line): its
    terms u(rho;1,d), d >= 2, must all be matched, each to one of the
    other side at d +- 1."""
    terms1, terms2 = [], []
    for _ in range(pairs):
        rho = rng.choice(symbols)
        if rho == tight:
            left = SpehDatum(rho, 1, rng.randint(3, max(3, max_len)))
            terms1.append(left)
            terms2.append(rng.choice((MoveFamily.F1, MoveFamily.F2)).partner(left))
            continue
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


def _step(rng: random.Random, n: int) -> int:
    """n moved one step up or down, staying at least 1."""
    return n + 1 if n == 1 or rng.random() < 0.5 else n - 1


def near_miss_pair(rng: random.Random, families=STRONG_FAMILIES, max_terms: int = 4,
                   max_dim: int = 5, symbols=SYMBOLS):
    """A ``random_related_pair`` broken in one place: one term of either
    side moved one Arthur or one Deligne step, or one right term (a left
    term's partner or a droppable term) deleted.  At the default sizes
    about two thirds of them have no strong matching."""
    a1, a2 = random_related_pair(rng, families, max_terms, max_dim, symbols)
    sides = [list(a1.terms), list(a2.terms)]
    roll = rng.randrange(3)
    side = sides[1] if roll == 0 or not sides[0] else rng.choice([s for s in sides if s])
    if side:
        i = rng.randrange(len(side))
        s = side.pop(i)
        if roll == 1:
            side.insert(i, SpehDatum(s.rho, s.a, _step(rng, s.b)))
        elif roll == 2:
            side.insert(i, SpehDatum(s.rho, _step(rng, s.a), s.b))
    return ArthurParameter(tuple(sides[0])), ArthurParameter(tuple(sides[1]))


def near_miss_segment_type_pair(rng: random.Random, pairs: int, symbols=SYMBOLS,
                                max_len: int = 6):
    """A ``random_segment_type_related_pair`` broken in one place, with
    droppable terms u(1, 1) on a degree-1 line added to keep the
    dimensions n and n - 1.

    Half of the draws move one right term one step along its segment
    (u(1, d) to u(1, d +- 1), u(c, 1) to u(c +- 1, 1)) or delete it.  A
    large pair almost always absorbs such a break by matching anew.  The
    other half build the pair with a tight line and move one of its
    terms u(1, d), d >= 3, on either side one Arthur step.  On that line
    the left terms of even d and the right terms of odd d form one
    class, the others a second; every copy must be matched within its
    class, so each class holds as many copies on the left as on the
    right, and the step takes a copy from one class to the other.
    Droppable terms on the line can still absorb it.  Counted over 400
    draws at each size (1-3
    lines, ``max_len`` 2-24, as ``test_near_misses_agree_with_matcher``
    draws them), 59 % of the pairs built from 50 strong pairs had no
    strong matching, 58 % at 100, 50 % at 200 and 51 % at 1000; with the
    first kind of break alone (100 draws at each size), 16 %, 10 %, 3 %
    and 0 %."""
    tight = rng.choice(symbols) if rng.random() < 0.5 else None
    a1, a2 = random_segment_type_related_pair(rng, pairs, symbols, max_len, tight)
    sides = [list(a1.terms), list(a2.terms)]
    if tight is not None:
        steps = [(side, i) for side in sides for i, s in enumerate(side) if s.rho == tight and s.b >= 3]
        if steps:
            side, i = rng.choice(steps)
            side[i] = SpehDatum(tight, 1, _step(rng, side[i].b))
    elif sides[1]:
        s = sides[1].pop(rng.randrange(len(sides[1])))
        if rng.random() < 0.75:
            moved = SpehDatum(s.rho, 1, _step(rng, s.b)) if s.a == 1 else SpehDatum(s.rho, _step(rng, s.a), 1)
            sides[1].append(moved)
    excess = sum(t.degree for t in sides[0]) - sum(t.degree for t in sides[1]) - 1
    unit = SpehDatum(next(r for r in symbols if r.degree == 1), 1, 1)
    sides[1 if excess > 0 else 0].extend([unit] * abs(excess))
    return ArthurParameter(tuple(sides[0])), ArthurParameter(tuple(sides[1]))


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


def every_param(n: int, symbols=SYMBOLS[:1]) -> list[ArthurParameter]:
    """Every Arthur parameter of dimension n over the symbols: each
    multiset of terms u(rho;a,b), rho in symbols, with the sum of
    degree*a*b equal to n, once, in no particular order."""
    types = [SpehDatum(rho, a, b) for rho in symbols for a in range(1, n + 1)
             for b in range(1, n // (rho.degree * a) + 1)]
    params = []

    def extend(start: int, remaining: int, terms: tuple) -> None:
        if not remaining:
            params.append(ArthurParameter(terms))
        for i in range(start, len(types)):
            if types[i].degree <= remaining:
                extend(i, remaining - types[i].degree, terms + (types[i],))

    extend(0, n, ())
    return params
