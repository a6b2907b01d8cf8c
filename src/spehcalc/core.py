"""Exact arithmetic and cuspidal-support bookkeeping.

Everything downstream is built on these value types: half-integers (the
twist lattice), abstract unitary cuspidals, their nu-twists, canonical
multisets of twists, Speh data and Arthur parameters.  All values are
immutable and hashable, all operations are pure, and there is no floating
point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator


@dataclass(frozen=True, order=True)
class HalfInt:
    """An element of (1/2)Z, stored as twice its value.

    Addition, subtraction and comparison are exact integer arithmetic on
    the doubled value; ``is_integer`` is a parity test.
    """

    doubled: int

    @staticmethod
    def of(value: int) -> HalfInt:
        return HalfInt(2 * value)

    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.doubled, 2)

    def __add__(self, other: HalfInt | int) -> HalfInt:
        if isinstance(other, int):
            return HalfInt(self.doubled + 2 * other)
        return HalfInt(self.doubled + other.doubled)

    def __sub__(self, other: HalfInt | int) -> HalfInt:
        if isinstance(other, int):
            return HalfInt(self.doubled - 2 * other)
        return HalfInt(self.doubled - other.doubled)

    def __neg__(self) -> HalfInt:
        return HalfInt(-self.doubled)

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"


def half_range(lo: HalfInt, hi: HalfInt) -> Iterator[HalfInt]:
    """Yield lo, lo+1, ..., hi (empty when hi < lo; lo and hi must differ
    by an integer)."""
    if (hi - lo).doubled % 2 != 0:
        raise ValueError(f"range endpoints {lo}, {hi} differ by a non-integer")
    d = lo.doubled
    while d <= hi.doubled:
        yield HalfInt(d)
        d += 2


@dataclass(frozen=True)
class CuspidalSymbol:
    """An abstract unitary cuspidal: an opaque id plus its degree.

    Distinct ids are treated as non-isomorphic cuspidals lying in distinct
    cuspidal lines; no further structure is modelled.
    """

    id: str
    degree: int = 1

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("cuspidal symbol id must be non-empty")
        if self.degree < 1:
            raise ValueError(f"cuspidal symbol degree must be >= 1, got {self.degree}")

    @property
    def sort_key(self) -> tuple[str, int]:
        return (self.id, self.degree)

    def twist(self, exponent: HalfInt) -> TwistedCuspidal:
        return TwistedCuspidal(self, exponent)


@dataclass(frozen=True)
class TwistedCuspidal:
    """nu^exponent applied to a cuspidal symbol."""

    symbol: CuspidalSymbol
    exponent: HalfInt

    @property
    def sort_key(self) -> tuple[str, int, int]:
        return (self.symbol.id, self.symbol.degree, self.exponent.doubled)

    def same_line(self, other: TwistedCuspidal) -> bool:
        """True when both twists lie in one cuspidal line: equal symbols
        and integer exponent difference."""
        return self.symbol == other.symbol and (self.exponent - other.exponent).is_integer

    def shifted(self, by: HalfInt | int) -> TwistedCuspidal:
        return TwistedCuspidal(self.symbol, self.exponent + by)


@dataclass(frozen=True, init=False)
class CuspidalMultiset:
    """A multiset of twisted cuspidals, stored as canonical runs.

    ``runs`` holds one (twist, multiplicity) pair per distinct twist, with
    positive multiplicities, in the canonical order (symbol id, degree,
    exponent), so equal multisets always serialize byte-identically.
    ``entries`` and iteration expand the runs to the sorted twist
    sequence.
    """

    runs: tuple[tuple[TwistedCuspidal, int], ...]

    def __init__(self, entries: Iterable[TwistedCuspidal] = ()) -> None:
        object.__setattr__(self, "runs", _canonical_runs((t, 1) for t in entries))

    @classmethod
    def _of(cls, runs: tuple[tuple[TwistedCuspidal, int], ...]) -> CuspidalMultiset:
        """Wrap runs that are already canonical."""
        multiset = object.__new__(cls)
        object.__setattr__(multiset, "runs", runs)
        return multiset

    @property
    def entries(self) -> tuple[TwistedCuspidal, ...]:
        return tuple(self)

    def __iter__(self) -> Iterator[TwistedCuspidal]:
        for t, m in self.runs:
            for _ in range(m):
                yield t

    def __len__(self) -> int:
        return sum(m for _, m in self.runs)

    def union(self, *others: CuspidalMultiset) -> CuspidalMultiset:
        return CuspidalMultiset._of(_canonical_runs(r for o in (self, *others) for r in o.runs))

    @property
    def total_degree(self) -> int:
        return sum(t.symbol.degree * m for t, m in self.runs)


def _canonical_runs(pairs: Iterable[tuple[TwistedCuspidal, int]]) -> tuple[tuple[TwistedCuspidal, int], ...]:
    """Add up the multiplicities of equal twists and sort canonically."""
    counts: dict[TwistedCuspidal, int] = {}
    for t, m in pairs:
        counts[t] = counts.get(t, 0) + m
    return tuple(sorted(counts.items(), key=lambda r: r[0].sort_key))


@dataclass(frozen=True)
class SpehDatum:
    """The Speh representation u_rho(a, b): Deligne dimension a, Arthur
    dimension b over the cuspidal rho.  Total degree is n(rho)*a*b."""

    rho: CuspidalSymbol
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise ValueError(f"Speh dimensions must be >= 1, got ({self.a}, {self.b})")

    @property
    def degree(self) -> int:
        return self.rho.degree * self.a * self.b

    @property
    def is_segment_type(self) -> bool:
        """True when one SL2 factor acts trivially (a = 1 or b = 1)."""
        return self.a == 1 or self.b == 1

    @property
    def sort_key(self) -> tuple[str, int, int, int]:
        return (self.rho.id, self.rho.degree, self.a, self.b)


@dataclass(frozen=True)
class ArthurParameter:
    """A multiset of Speh data, kept in canonical sorted order.

    Models both a parameter (direct sum of terms) and the product of the
    corresponding Speh representations; the two readings carry the same
    data.  May be empty (the degree-0 parameter).
    """

    terms: tuple[SpehDatum, ...] = ()

    def __post_init__(self) -> None:
        canonical = tuple(sorted(self.terms, key=lambda s: s.sort_key))
        object.__setattr__(self, "terms", canonical)

    def __iter__(self) -> Iterator[SpehDatum]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def dim(self) -> int:
        return sum(s.degree for s in self.terms)


def csupp_speh(s: SpehDatum) -> CuspidalMultiset:
    """Cuspidal support of u_rho(a, b): the a-by-b rectangle of twists.

    The support is { nu^(i+j) rho } with i ranging over the centered
    Deligne segment of length a and j over the centered Arthur segment of
    length b; a*b elements counted with multiplicity.  Summing the
    rectangle along its anti-diagonals gives a trapezoid: the k-th
    doubled exponent -(a+b-2)+2k occurs min(k+1, a, b, a+b-1-k) times.
    """
    return csupp_param(ArthurParameter((s,)))


def csupp_param(param: ArthurParameter) -> CuspidalMultiset:
    """Cuspidal support of a parameter: multiset union over its terms.

    Each term's trapezoid has second difference +1, -1, -1, +1 at
    k = 0, min(a,b), a+b-min(a,b) and a+b.  The corners of all terms on
    one cuspidal line go into one array indexed by the doubled exponent;
    two prefix sums with stride 2 (one per parity) give the
    multiplicities, in O(terms + span).
    """
    lines: dict[CuspidalSymbol, list[SpehDatum]] = {}
    for s in param:  # canonical term order, so the symbols come out sorted
        lines.setdefault(s.rho, []).append(s)
    runs = []
    for rho, terms in lines.items():
        top = max(s.a + s.b for s in terms) - 2  # largest doubled exponent
        count = [0] * (2 * top + 5)  # index = doubled exponent + top
        for s in terms:
            low = top - (s.a + s.b - 2)
            short = min(s.a, s.b)
            count[low] += 1
            count[low + 2 * short] -= 1
            count[low + 2 * (s.a + s.b - short)] -= 1
            count[low + 2 * (s.a + s.b)] += 1
        for _ in range(2):
            for i in range(2, len(count)):
                count[i] += count[i - 2]
        runs += [(TwistedCuspidal(rho, HalfInt(i - top)), m) for i, m in enumerate(count) if m]
    return CuspidalMultiset._of(tuple(runs))


def in_cuspidal_lines(t: TwistedCuspidal, support: CuspidalMultiset) -> bool:
    """True when t lies in the cuspidal line of some element of support."""
    return any(t.same_line(u) for u, _ in support.runs)


def central_exponent(support: CuspidalMultiset, total_degree: int | None = None) -> Fraction:
    """Exponent of the absolute central character, as an exact rational.

    Computed as the degree-weighted average of the support exponents:
    for a twisted segment representation this reproduces the twist plus
    the segment midpoint.  ``total_degree``, when given, must agree with
    the degree carried by the support.
    """
    if not support.runs:
        raise ValueError("undefined central exponent: empty cuspidal support")
    degree = support.total_degree
    if total_degree is not None and total_degree != degree:
        raise ValueError(
            f"total degree {total_degree} does not match support degree {degree}"
        )
    weighted = sum(t.exponent.doubled * t.symbol.degree * m for t, m in support.runs)
    return Fraction(weighted, 2 * degree)
