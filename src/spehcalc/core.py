"""Exact arithmetic and cuspidal-support bookkeeping.

Everything downstream is built on these value types: half-integers (the
twist lattice), abstract unitary cuspidals, their nu-twists, canonical
multisets of twists, Speh data and Arthur parameters.  All values are
immutable and hashable, all operations are pure, and there is no floating
point anywhere.
"""

from __future__ import annotations

from itertools import accumulate
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from fractions import Fraction


class _Record:
    """Base of the immutable value types: ``__slots__`` classes that
    behave as frozen dataclasses with the same fields.

    A subclass lists its fields, in order, as its ``__slots__``.  Its
    ``__init__`` checks its arguments and writes its fields through
    ``_setters`` (its slots' own writers, in slot order, which get past
    the ``__setattr__`` that refuses every assignment).  Equality (only
    with values of the same class), hash, ``repr`` and the refusals to
    assign or delete follow from the fields as a frozen dataclass's do;
    the refusals raise ``dataclasses.FrozenInstanceError``, imported only
    then.  ``__reduce__`` rebuilds a value through its constructor, so
    pickle and copy work.  Unlike a dataclass, defining a subclass
    generates no code, so importing this package never loads
    ``dataclasses``; ``dataclasses.fields``, ``replace`` and ``asdict`` do
    not apply to these values.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)
        cls._key = attrgetter(*cls.__slots__)  # the field, or a tuple of the fields
        cls.__match_args__ = cls.__slots__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()


class _Value(_Record):
    """A record that is equal, hashes and sorts by a flat ``sort_key`` of
    ints and strings: the cheap values that parsing builds by the
    thousand.

    A subclass's ``__init__`` ends by calling ``_freeze`` with its
    ``sort_key``, whose hash is computed there, once.  As the key is flat,
    equality and hashing never call into a nested value.
    """

    __slots__ = ("sort_key", "_hash")

    def _freeze(self, sort_key: tuple) -> None:
        _set_sort_key(self, sort_key)
        _set_hash(self, hash(sort_key))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_key == other.sort_key


_set_sort_key = _Value.sort_key.__set__
_set_hash = _Value._hash.__set__
_by_sort_key = attrgetter("sort_key")


class HalfInt(_Value):
    """An element of (1/2)Z, stored as twice its value.

    Addition, subtraction and comparison are exact integer arithmetic on
    the doubled value; ``is_integer`` is a parity test.
    """

    __slots__ = ("doubled",)

    def __init__(self, doubled: int) -> None:
        (set_doubled,) = self._setters
        set_doubled(self, doubled)
        self._freeze((doubled,))

    @staticmethod
    def of(value: int) -> HalfInt:
        return HalfInt(2 * value)

    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    @property
    def as_fraction(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.doubled, 2)

    def __lt__(self, other: HalfInt) -> bool:
        if other.__class__ is not HalfInt:
            return NotImplemented
        return self.doubled < other.doubled

    def __le__(self, other: HalfInt) -> bool:
        if other.__class__ is not HalfInt:
            return NotImplemented
        return self.doubled <= other.doubled

    def __gt__(self, other: HalfInt) -> bool:
        if other.__class__ is not HalfInt:
            return NotImplemented
        return self.doubled > other.doubled

    def __ge__(self, other: HalfInt) -> bool:
        if other.__class__ is not HalfInt:
            return NotImplemented
        return self.doubled >= other.doubled

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


class CuspidalSymbol(_Value):
    """An abstract unitary cuspidal: an opaque id plus its degree.

    Distinct ids are treated as non-isomorphic cuspidals lying in distinct
    cuspidal lines; no further structure is modelled.
    """

    __slots__ = ("id", "degree")

    def __init__(self, id: str, degree: int = 1) -> None:
        if not id:
            raise ValueError("cuspidal symbol id must be non-empty")
        if degree < 1:
            raise ValueError(f"cuspidal symbol degree must be >= 1, got {degree}")
        set_id, set_degree = self._setters
        set_id(self, id)
        set_degree(self, degree)
        self._freeze((id, degree))

    def twist(self, exponent: HalfInt) -> TwistedCuspidal:
        return TwistedCuspidal(self, exponent)


class TwistedCuspidal(_Value):
    """nu^exponent applied to a cuspidal symbol."""

    __slots__ = ("symbol", "exponent")

    def __init__(self, symbol: CuspidalSymbol, exponent: HalfInt) -> None:
        set_symbol, set_exponent = self._setters
        set_symbol(self, symbol)
        set_exponent(self, exponent)
        self._freeze((symbol.id, symbol.degree, exponent.doubled))

    def same_line(self, other: TwistedCuspidal) -> bool:
        """True when both twists lie in one cuspidal line: equal symbols
        and integer exponent difference."""
        return self.symbol == other.symbol and (self.exponent - other.exponent).is_integer

    def shifted(self, by: HalfInt | int) -> TwistedCuspidal:
        return TwistedCuspidal(self.symbol, self.exponent + by)


class CuspidalMultiset(_Record):
    """A multiset of twisted cuspidals, stored as canonical runs.

    ``runs`` holds one (twist, multiplicity) pair per distinct twist, with
    positive multiplicities, in the canonical order (symbol id, degree,
    exponent), so equal multisets always serialize byte-identically.
    ``entries`` and iteration expand the runs to the sorted twist
    sequence.
    """

    __slots__ = ("runs",)

    def __init__(self, entries: Iterable[TwistedCuspidal] = ()) -> None:
        (set_runs,) = self._setters
        set_runs(self, _canonical_runs((t, 1) for t in entries))

    @classmethod
    def _of(cls, runs: tuple[tuple[TwistedCuspidal, int], ...]) -> CuspidalMultiset:
        """Wrap runs that are already canonical."""
        multiset = object.__new__(cls)
        (set_runs,) = cls._setters
        set_runs(multiset, runs)
        return multiset

    def __reduce__(self) -> tuple:
        return self._of, (self.runs,)

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


class SpehDatum(_Value):
    """The Speh representation u_rho(a, b): Deligne dimension a, Arthur
    dimension b over the cuspidal rho.  Total degree is n(rho)*a*b."""

    __slots__ = ("rho", "a", "b")

    def __init__(self, rho: CuspidalSymbol, a: int, b: int) -> None:
        if a < 1 or b < 1:
            raise ValueError(f"Speh dimensions must be >= 1, got ({a}, {b})")
        set_rho, set_a, set_b = self._setters
        set_rho(self, rho)
        set_a(self, a)
        set_b(self, b)
        self._freeze((rho.id, rho.degree, a, b))

    @property
    def degree(self) -> int:
        return self.rho.degree * self.a * self.b

    @property
    def is_segment_type(self) -> bool:
        """True when one SL2 factor acts trivially (a = 1 or b = 1)."""
        return self.a == 1 or self.b == 1


class ArthurParameter(_Record):
    """A multiset of Speh data, kept in canonical sorted order.

    Models both a parameter (direct sum of terms) and the product of the
    corresponding Speh representations; the two readings carry the same
    data.  May be empty (the degree-0 parameter).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[SpehDatum] = ()) -> None:
        (set_terms,) = self._setters
        set_terms(self, tuple(sorted(terms, key=_by_sort_key)))

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
        for parity in (0, 1):
            count[parity::2] = accumulate(accumulate(count[parity::2]))
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
    from fractions import Fraction

    weighted = sum(t.exponent.doubled * t.symbol.degree * m for t, m in support.runs)
    return Fraction(weighted, 2 * degree)
