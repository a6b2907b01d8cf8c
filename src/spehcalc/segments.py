"""Segment calculus: linkedness, duals, derivatives, levels and the four
closed Jacquet-module formulas for segment representations."""

from __future__ import annotations

from typing import Iterator, Optional

from .core import (
    ArthurParameter,
    CuspidalMultiset,
    CuspidalSymbol,
    HalfInt,
    SpehDatum,
    _canonical_lines,
    _Record,
    half_range,
)

Z = "Z"
Q = "Q"
STANDARD = "standard"
OPPOSITE = "opposite"


class Segment(_Record):
    """The segment [a, b]_rho = {nu^a rho, ..., nu^b rho}; requires
    b - a to be a non-negative integer."""

    __slots__ = ("rho", "a", "b")

    def __init__(self, rho: CuspidalSymbol, a: HalfInt, b: HalfInt) -> None:
        diff = b - a
        if not diff.is_integer or diff.doubled < 0:
            raise ValueError(f"segment needs b - a a non-negative integer, got [{a}, {b}]")
        self._set(rho, a, b)

    @property
    def length(self) -> int:
        return (self.b - self.a).doubled // 2 + 1

    @property
    def degree(self) -> int:
        return self.rho.degree * self.length

    @property
    def is_centered(self) -> bool:
        return (self.a + self.b).doubled == 0

    def exponents(self) -> Iterator[HalfInt]:
        return half_range(self.a, self.b)

    def contains(self, other: Segment) -> bool:
        if self.rho != other.rho or not (other.a - self.a).is_integer:
            return False
        return self.a <= other.a and other.b <= self.b


def linked(d1: Segment, d2: Segment) -> bool:
    """True when neither segment contains the other and their union is
    again a segment (same cuspidal, integer offset, contiguous union)."""
    if d1.rho != d2.rho or not (d1.a - d2.a).is_integer:
        return False
    if d1.contains(d2) or d2.contains(d1):
        return False
    lo, hi = max(d1.a, d2.a), min(d1.b, d2.b)
    return lo.doubled <= hi.doubled + 2  # overlap or adjacency


def precedes(d1: Segment, d2: Segment) -> bool:
    """True when d1 and d2 are linked and d2 ends strictly later."""
    return linked(d1, d2) and (d2.b - d1.b).doubled > 0


class SegmentRep(_Record):
    """Z(segment) or Q(segment): the irreducible submodule or quotient of
    the principal series attached to a segment."""

    __slots__ = ("kind", "segment")

    def __init__(self, kind: str, segment: Segment) -> None:
        if kind not in (Z, Q):
            raise ValueError(f"segment representation kind must be 'Z' or 'Q', got {kind!r}")
        self._set(kind, segment)

    @property
    def degree(self) -> int:
        return self.segment.degree


class JacquetResult(_Record):
    """Either zero, or a pair (omega1, omega2) of segment representations
    whose degrees sum to the (n - l, l) split of the input."""

    __slots__ = ("factors",)

    def __init__(self, factors: Optional[tuple[SegmentRep, SegmentRep]]) -> None:
        self._set(factors)

    @staticmethod
    def zero() -> JacquetResult:
        return JacquetResult(None)

    @staticmethod
    def of(omega1: SegmentRep, omega2: SegmentRep) -> JacquetResult:
        return JacquetResult((omega1, omega2))

    @property
    def is_zero(self) -> bool:
        return self.factors is None


def az_dual_speh(s: SpehDatum) -> SpehDatum:
    """Aubert-Zelevinsky involution on Speh data: swap the two SL2 dims."""
    return SpehDatum(s.rho, s.b, s.a)


def az_dual_param(param: ArthurParameter) -> ArthurParameter:
    """Termwise Aubert-Zelevinsky involution, on param's lines: each
    distinct (a, b) becomes (b, a) with its copies, re-sorted."""
    return ArthurParameter._from_lines(_canonical_lines(
        (rho, (b, a), n) for rho, keys, counts in param._lines for (a, b), n in zip(keys, counts)
    ))


def speh_level(s: SpehDatum) -> int:
    """Level (index of the highest derivative) of u_rho(a, b): n(rho)*a."""
    return s.rho.degree * s.a


def speh_minus(s: SpehDatum) -> Optional[SpehDatum]:
    """The normalized highest derivative u_rho(a, b) -> u_rho(a, b-1).

    Returns None when b = 1: the Arthur factor drops to V_0 and the
    result is the trivial representation of the zero-size group.
    """
    if s.b == 1:
        return None
    return SpehDatum(s.rho, s.a, s.b - 1)


def speh_from_segment_rep(rep: SegmentRep) -> SpehDatum:
    """Convert a centered segment representation into its Speh datum:
    Z gives Deligne dimension 1, Q gives Arthur dimension 1."""
    if not rep.segment.is_centered:
        raise ValueError(
            f"only centered segments are unitary Speh data, got [{rep.segment.a}, {rep.segment.b}]"
        )
    length = rep.segment.length
    if rep.kind == Z:
        return SpehDatum(rep.segment.rho, 1, length)
    return SpehDatum(rep.segment.rho, length, 1)


def csupp_segment(seg: Segment) -> CuspidalMultiset:
    """Cuspidal support of Z/Q of a segment: one twist per exponent, all
    on the one line of its cuspidal."""
    exponents = range(seg.a.doubled, seg.b.doubled + 1, 2)
    return CuspidalMultiset._from_lines(((seg.rho, tuple(exponents), (1,) * len(exponents)),))


def jacquet(kind: str, side: str, seg: Segment, l: int) -> JacquetResult:
    """Jacquet module of Z/Q of a segment along the (n-l, l) parabolic.

    Vanishes unless the cuspidal degree m divides l; otherwise with
    l = m*p and segment length k the two factors are sub-segments of the
    input split at depth p, with which end goes where determined by the
    kind and by the side (standard vs opposite parabolic).
    """
    if kind not in (Z, Q):
        raise ValueError(f"kind must be 'Z' or 'Q', got {kind!r}")
    if side not in (STANDARD, OPPOSITE):
        raise ValueError(f"side must be 'standard' or 'opposite', got {side!r}")
    n = seg.degree
    if not 0 < l < n:
        raise ValueError(f"split size l must satisfy 0 < l < {n}, got {l}")
    m = seg.rho.degree
    if l % m != 0:
        return JacquetResult.zero()
    p = l // m
    a, b = seg.a, seg.b
    if (kind, side) in ((Q, STANDARD), (Z, OPPOSITE)):
        bounds = ((a + p, b), (a, a + (p - 1)))  # top p-deep cut: [a+p, b] first
    else:  # (Q, opposite) and (Z, standard)
        bounds = ((a, b - p), (b - (p - 1), b))  # bottom p-deep cut: [a, b-p] first
    first, second = (SegmentRep(kind, Segment(seg.rho, lo, hi)) for lo, hi in bounds)
    return JacquetResult.of(first, second)


def is_generic_param(param: ArthurParameter) -> bool:
    """A product of Speh representations is generic exactly when every
    Arthur SL2 factor is trivial; the empty parameter counts as generic."""
    return all(b == 1 for _, keys, _ in param._lines for _, b in keys)


def whittaker_dim(param: ArthurParameter) -> int:
    """Dimension (0 or 1) of the Whittaker model of the product."""
    return 1 if is_generic_param(param) else 0
