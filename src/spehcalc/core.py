"""Exact arithmetic and cuspidal-support bookkeeping.

Everything downstream is built on these value types: half-integers (the
twist lattice), abstract unitary cuspidals, their nu-twists, canonical
multisets of twists, Speh data and Arthur parameters.  All values are
immutable and hashable, all operations are pure, and there is no floating
point anywhere.
"""

from __future__ import annotations

from functools import total_ordering
from itertools import accumulate, compress, starmap
from operator import attrgetter, itemgetter, mul
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
    ints and strings (or of tuples of them), holding no value: the cheap
    values that parsing and the searches build by the thousand.

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


@total_ordering
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


class _ByLines(_Record):
    """A record that is equal and hashes by a hidden ``_lines``: one
    ``(symbol, keys, sums)`` triple per cuspidal symbol, in canonical
    order, the keys (ints, or tuples of ints) strictly increasing and the
    int sums nonzero.

    Like ``_Value``'s key, ``_lines`` is no field: it is not in the
    subclass's ``__slots__``, ``__match_args__`` or ``repr``.  Comparing
    or hashing two values reads only ints and symbols, and ``len``, unless
    the subclass overrides it, adds up the sums.  The subclass's
    one field is built from ``_lines`` by its ``_expand`` on its first
    read and kept; pickle and copy carry ``_lines`` alone.
    """

    __slots__ = ("_lines",)

    @classmethod
    def _from_lines(cls, lines: tuple[_LineTriple, ...]) -> _ByLines:
        """Wrap lines that are already canonical."""
        value = object.__new__(cls)
        _set_lines(value, lines)
        return value

    def __getattr__(self, name: str) -> object:
        # Called only for an attribute not found: the field before its
        # first read, built here once.
        if name != self.__slots__[0]:
            raise AttributeError(f"{self.__class__.__name__!r} object has no attribute {name!r}")
        value = self._expand()
        (set_field,) = self._setters
        set_field(self, value)
        return value

    def __reduce__(self) -> tuple:
        return self._from_lines, (self._lines,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._lines == other._lines

    def __hash__(self) -> int:
        return hash(self._lines)

    def __len__(self) -> int:
        return sum(map(sum, map(_third, self._lines)))


_set_lines = _ByLines._lines.__set__
_third = itemgetter(2)
_LineTriple = tuple[CuspidalSymbol, tuple[int, ...], tuple[int, ...]]


class CuspidalMultiset(_ByLines):
    """A multiset of twisted cuspidals, stored per cuspidal symbol.

    ``runs`` holds one (twist, multiplicity) pair per distinct twist, with
    positive multiplicities, in the canonical order (symbol id, degree,
    exponent), so equal multisets always serialize byte-identically.  The
    value itself keeps only the integer exponents and multiplicities of
    each symbol's runs, as the keys and sums of its lines; ``runs`` builds
    the twists from them on first read.  ``entries`` and iteration expand
    the runs to the sorted twist sequence.
    """

    __slots__ = ("runs",)

    def __init__(self, entries: Iterable[TwistedCuspidal] = ()) -> None:
        _set_lines(self, _canonical_lines((t.symbol, t.exponent.doubled, 1) for t in entries))

    @classmethod
    def _of(cls, runs: Iterable[tuple[TwistedCuspidal, int]]) -> CuspidalMultiset:
        """The multiset with these (twist, multiplicity) runs."""
        return cls._from_lines(_canonical_lines((t.symbol, t.exponent.doubled, m) for t, m in runs))

    def _expand(self) -> tuple[tuple[TwistedCuspidal, int], ...]:
        return tuple(
            (TwistedCuspidal(symbol, HalfInt(e)), m)
            for symbol, exponents, mults in self._lines
            for e, m in zip(exponents, mults)
        )

    @property
    def entries(self) -> tuple[TwistedCuspidal, ...]:
        return tuple(self)

    def __iter__(self) -> Iterator[TwistedCuspidal]:
        for t, m in self.runs:
            for _ in range(m):
                yield t

    def union(self, *others: CuspidalMultiset) -> CuspidalMultiset:
        return CuspidalMultiset._from_lines(_canonical_lines(
            (symbol, e, m)
            for o in (self, *others)
            for symbol, exponents, mults in o._lines
            for e, m in zip(exponents, mults)
        ))

    @property
    def total_degree(self) -> int:
        return sum(symbol.degree * sum(mults) for symbol, _, mults in self._lines)


def _canonical_lines(triples: Iterable[tuple[CuspidalSymbol, int, int]]) -> tuple[_LineTriple, ...]:
    """Add up the sums of equal (symbol, key) pairs and sort the nonzero
    ones into canonical lines."""
    lines: dict[CuspidalSymbol, dict[int, int]] = {}
    for symbol, key, value in triples:
        line = lines.get(symbol)
        if line is None:
            line = lines[symbol] = {}
        line[key] = line.get(key, 0) + value
    return tuple(filter(None, (
        _line_triple(symbol, lines[symbol]) for symbol in sorted(lines, key=_by_sort_key)
    )))


def _line_triple(symbol: CuspidalSymbol, sums: dict[int, int]) -> _LineTriple | None:
    """The line triple of symbol's nonzero sums by key, or None when
    there is none."""
    keys = sorted(sums)
    values = tuple(map(sums.__getitem__, keys))
    if 0 in values:
        keys = [key for key, value in zip(keys, values) if value]
        values = tuple(filter(None, values))
    return (symbol, tuple(keys), values) if keys else None


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


class ArthurParameter(_ByLines):
    """A multiset of Speh data, kept in canonical sorted order.

    Models both a parameter (direct sum of terms) and the product of the
    corresponding Speh representations; the two readings carry the same
    data.  May be empty (the degree-0 parameter).

    ``terms`` holds the Speh data sorted by (symbol id, degree, a, b).
    The value itself keeps, per cuspidal symbol, the distinct (a, b) of
    its terms, sorted, as the keys of its lines and their numbers of
    copies as the sums: equality, hashing, pickling, ``len`` and ``dim``
    read these ints alone, and so do the deciders.  ``terms`` is built
    from them on its first read, one ``SpehDatum`` per distinct term.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[SpehDatum] = ()) -> None:
        _set_lines(self, _canonical_lines((s.rho, (s.a, s.b), 1) for s in terms))

    def _expand(self) -> tuple[SpehDatum, ...]:
        terms: list[SpehDatum] = []
        for rho, keys, counts in self._lines:
            for (a, b), n in zip(keys, counts):
                terms += [SpehDatum(rho, a, b)] * n
        return tuple(terms)

    def __iter__(self) -> Iterator[SpehDatum]:
        return iter(self.terms)

    @property
    def dim(self) -> int:
        total = 0
        for rho, keys, counts in self._lines:
            total += rho.degree * sum(map(mul, starmap(mul, keys), counts))
        return total


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

    Read off the ends of the diagonal restriction (``_restriction_lines``).
    The support of u_rho(a, b) is a trapezoid in the doubled exponent,
    from 2-(a+b) to (a+b)-2, whose multiplicities have second difference
    +1 at 2-(a+b) and 2+(a+b), -1 at 2-|a-b| and 2+|a-b|, and 0
    elsewhere: an end of step s at dimension d puts -s there at the two
    doubled exponents 1+d and 3-d.  On each cuspidal line, with ``top``
    its largest end, two prefix sums with stride 2 (one per parity) over
    the doubled exponents 3-top to top+1 give the multiplicities, in
    O(terms + span).  The support keeps each line's nonzero counts and
    their exponents as ints; no twist is built.
    """
    lines = []
    for rho, ends, steps in _restriction_lines(param):
        top = ends[-1]
        low = 3 - top
        count = [0] * (2 * top - 1)  # index = doubled exponent - low
        for d, step in zip(ends, steps):
            count[d + top - 2] -= step
            count[top - d] -= step
        for parity in (0, 1):
            count[parity::2] = accumulate(accumulate(count[parity::2]))
        exponents = tuple(compress(range(low, low + len(count)), count))
        lines.append((rho, exponents, tuple(filter(None, count))))
    return CuspidalMultiset._from_lines(tuple(lines))


def _restriction_lines(param: ArthurParameter) -> tuple[_LineTriple, ...]:
    """The ends of param's restriction to the diagonal SL2, as line
    triples: per cuspidal symbol, in canonical order, the nonzero sums of
    the stride-2 first difference of the multiplicities by dimension.

    V_a (x) V_b restricts to V_d for d = |a-b|+1, |a-b|+3, ..., a+b-1, so
    on its symbol a term adds +1 at |a-b|+1 and -1 at a+b+1, its copies
    all at once.  One walk over param's lines, in O(distinct terms)
    whatever a and b are; no Clebsch-Gordan piece, twist or Speh datum is
    built.  Two parameters have the same restriction, and so the same
    cuspidal support, exactly when their lines are equal.
    """
    lines = []
    for rho, keys, counts in param._lines:
        line: dict[int, int] = {}
        get = line.get
        for (a, b), n in zip(keys, counts):
            low = (a - b if a > b else b - a) + 1
            high = a + b + 1
            line[low] = get(low, 0) + n
            line[high] = get(high, 0) - n
        lines.append(_line_triple(rho, line))
    return tuple(lines)


def in_cuspidal_lines(t: TwistedCuspidal, support: CuspidalMultiset) -> bool:
    """True when t lies in the cuspidal line of some element of support:
    support holds a twist of t's symbol whose doubled exponent has the
    parity of t's."""
    parity = t.exponent.doubled % 2
    for symbol, exponents, _ in support._lines:
        if symbol == t.symbol:
            return any(e % 2 == parity for e in exponents)
    return False


def central_exponent(support: CuspidalMultiset, total_degree: int | None = None) -> Fraction:
    """Exponent of the absolute central character, as an exact rational.

    Computed as the degree-weighted average of the support exponents:
    for a twisted segment representation this reproduces the twist plus
    the segment midpoint.  ``total_degree``, when given, must agree with
    the degree carried by the support.
    """
    if not support._lines:
        raise ValueError("undefined central exponent: empty cuspidal support")
    degree = support.total_degree
    if total_degree is not None and total_degree != degree:
        raise ValueError(
            f"total degree {total_degree} does not match support degree {degree}"
        )
    from fractions import Fraction

    weighted = sum(
        symbol.degree * sum(map(mul, exponents, mults)) for symbol, exponents, mults in support._lines
    )
    return Fraction(weighted, 2 * degree)
