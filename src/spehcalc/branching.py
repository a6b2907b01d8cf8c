"""Decision procedures for restriction from GL(n) to GL(n-1).

Two independent routes decide Ext non-vanishing for products of unitary
segment-type representations: the matcher route (a certificate-producing
exact cover over move families) and a count sweep that follows each
cuspidal line level by level, from the largest total SL2 dimension down,
as the underlying reduction proceeds.  Agreement of the two routes is a
standing property test.
"""

from __future__ import annotations

from typing import Optional

from .core import ArthurParameter, SpehDatum, _Record
from .dsl import format_term
from .relevance import (
    GGP_FAMILIES,
    STRONG_FAMILIES,
    Matching,
    find_matching,
    same_cuspidal_support,
)
from .segments import az_dual_speh, whittaker_dim


class HypothesisError(ValueError):
    """A decision procedure was called outside its theorem's hypotheses
    (wrong dimensions, or a term that is not of segment type)."""


MATCHER = "matcher"


class BranchingVerdict(_Record):
    __slots__ = ("nonvanishing", "certificate", "decider")

    def __init__(self, nonvanishing: bool, certificate: Optional[Matching], decider: str) -> None:
        set_nonvanishing, set_certificate, set_decider = self._setters
        set_nonvanishing(self, nonvanishing)
        set_certificate(self, certificate)
        set_decider(self, decider)


def _require_restriction_pair(a1: ArthurParameter, a2: ArthurParameter) -> None:
    if a1.dim != a2.dim + 1:
        raise HypothesisError(f"not a (n, n-1) pair: dimensions {a1.dim} and {a2.dim}")


def _require_segment_type(*params: ArthurParameter) -> None:
    for param in params:
        for s in param:
            if not s.is_segment_type:
                raise HypothesisError(f"term {format_term(s)} is not of segment type")


def hom_branch_arthur(a1: ArthurParameter, a2: ArthurParameter) -> BranchingVerdict:
    """Hom non-vanishing for a (GL_n, GL_{n-1}) Arthur-type pair: decided
    by relevance, with the matching as certificate."""
    _require_restriction_pair(a1, a2)
    certificate = find_matching(a1, a2, GGP_FAMILIES)
    return BranchingVerdict(certificate is not None, certificate, MATCHER)


def ext_branch_segment_type(a1: ArthurParameter, a2: ArthurParameter) -> BranchingVerdict:
    """Ext non-vanishing for a (GL_n, GL_{n-1}) pair of products of
    unitary segment-type representations: decided by strong Ext
    relevance, with the matching as certificate.

    Raises ``HypothesisError`` outside the segment-type hypothesis; the
    criterion genuinely fails beyond it, so no boolean is offered there.
    """
    _require_restriction_pair(a1, a2)
    _require_segment_type(a1, a2)
    certificate = find_matching(a1, a2, STRONG_FAMILIES)
    return BranchingVerdict(certificate is not None, certificate, MATCHER)


def ext_branch_recursive(a1: ArthurParameter, a2: ArthurParameter) -> bool:
    """Ext non-vanishing decided by a count sweep; hypotheses and answer
    match ``ext_branch_segment_type`` on every valid input.

    On a cuspidal line, a term of level L = a + b may be dropped if it is
    ``u(rho;L-1,1)`` and must be paired if it is ``u(rho;1,L-1)``, L >= 3;
    it then pairs with a term of level L-1 on the other side.  So a line
    splits into two chains of alternating sides and falling levels.  Going
    down a chain, the terms still waiting for a partner one level down
    number lo to hi; a level with N terms to pair and D to drop fails if
    lo > N + D, and else leaves [N - min(hi, N), N - max(0, lo - D)] with
    hi capped at N + D.  Only occupied levels are visited: O(t log t) for
    t terms, whatever the sizes of a and b.
    """
    _require_restriction_pair(a1, a2)
    _require_segment_type(a1, a2)
    counts: dict = {}
    for side, param in enumerate((a1, a2)):
        for s in param:
            counts.setdefault((s.rho, side, s.a + s.b), [0, 0])[s.b == 1] += 1
    chains: dict = {}
    for rho, side, level in sorted(counts, key=lambda key: -key[2]):
        need, drop = counts[rho, side, level]
        chain = (rho, (side + level) % 2)
        above, lo, hi = chains.get(chain, (None, 0, 0))
        if above != level + 1:
            hi = 0  # the empty levels in between take no waiting term
        hi = min(hi, need + drop)
        if lo > hi:
            return False
        chains[chain] = (level, need - min(hi, need), need - max(0, lo - drop))
    return all(lo == 0 for _, lo, _ in chains.values())


def same_group_ext_segment_type(a1: ArthurParameter, a2: ArthurParameter) -> bool:
    """Ext non-vanishing between two same-group products of unitary
    segment-type representations: holds exactly when the cuspidal
    supports (equivalently the diagonal SL2 restrictions) agree."""
    if a1.dim != a2.dim:
        raise HypothesisError(f"not a same-group pair: dimensions {a1.dim} and {a2.dim}")
    _require_segment_type(a1, a2)
    return same_cuspidal_support(a1, a2)


def speh_pair_same_group(s1: SpehDatum, s2: SpehDatum) -> bool:
    """Ext non-vanishing between two Speh representations of one group:
    holds exactly when they are equal or dual to each other."""
    if s1.degree != s2.degree:
        raise HypothesisError(f"degree mismatch: {s1.degree} and {s2.degree}")
    return s2 == s1 or s2 == az_dual_speh(s1)


def euler_poincare(a1: ArthurParameter, a2: ArthurParameter) -> int:
    """Alternating sum of Ext dimensions for a (GL_n, GL_{n-1}) pair: the
    product of the two Whittaker-model dimensions, hence 0 or 1."""
    _require_restriction_pair(a1, a2)
    return whittaker_dim(a1) * whittaker_dim(a2)
