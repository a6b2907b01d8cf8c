"""Decision procedures for restriction from GL(n) to GL(n-1).

Two independent routes decide Ext non-vanishing for products of unitary
segment-type representations: the matcher route (a certificate-producing
exact cover over move families) and a recursive route that repeatedly
peels off a term of maximal total SL2 dimension, mirroring how the
underlying reduction actually proceeds.  Agreement of the two routes is
a standing property test.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .core import ArthurParameter, SpehDatum
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
RECURSIVE = "recursive"


@dataclass(frozen=True)
class BranchingVerdict:
    nonvanishing: bool
    certificate: Optional[Matching]
    decider: str


def _require_restriction_pair(a1: ArthurParameter, a2: ArthurParameter) -> None:
    if a1.dim != a2.dim + 1:
        raise HypothesisError(f"not a (n, n-1) pair: dimensions {a1.dim} and {a2.dim}")


def _require_segment_type(param: ArthurParameter) -> None:
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
    _require_segment_type(a1)
    _require_segment_type(a2)
    certificate = find_matching(a1, a2, STRONG_FAMILIES)
    return BranchingVerdict(certificate is not None, certificate, MATCHER)


def _freeze(counter: Counter) -> tuple:
    return tuple(sorted(counter.items(), key=lambda kv: kv[0].sort_key))


def _peak(counter: Counter) -> Optional[SpehDatum]:
    if not counter:
        return None
    return min(counter, key=lambda s: (-(s.a + s.b), s.sort_key))


def _take(counter: Counter, key: SpehDatum) -> None:
    counter[key] -= 1
    if counter[key] == 0:
        del counter[key]


def _decide_step(s1: Counter, s2: Counter, memo: dict):
    """One state of the peeling recursion, as a generator: it yields once
    per child state (``s1``, ``s2`` mutated in place), is sent the child's
    verdict, restores the state and returns its own verdict."""
    if not s1 and not s2:
        return True
    state = (_freeze(s1), _freeze(s2))
    if state in memo:
        return memo[state]
    t1, t2 = _peak(s1), _peak(s2)
    # Work on a term of maximal a+b across both sides, preferring the
    # left side on ties: any matching must either drop it or pair it with
    # its Arthur step down / the dual of that step down on the other
    # side, since every other partner would have a strictly larger a+b.
    if t1 is not None and (t2 is None or t1.a + t1.b >= t2.a + t2.b):
        term, mine, other = t1, s1, s2
    else:
        term, mine, other = t2, s2, s1
    result = False
    _take(mine, term)
    if term.b == 1:
        result = yield
    else:
        minus = SpehDatum(term.rho, term.a, term.b - 1)
        for candidate in dict.fromkeys((minus, az_dual_speh(minus))):
            if other[candidate] > 0:
                _take(other, candidate)
                result = yield
                other[candidate] += 1
                if result:
                    break
    mine[term] += 1
    memo[state] = result
    return result


def _recursive_decide(s1: Counter, s2: Counter) -> bool:
    """Run ``_decide_step`` on an explicit stack, so the depth of the
    recursion never meets the interpreter's recursion limit."""
    memo: dict = {}
    stack = [_decide_step(s1, s2, memo)]
    result = None
    while stack:
        try:
            stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(_decide_step(s1, s2, memo))
            result = None
    return result


def ext_branch_recursive(a1: ArthurParameter, a2: ArthurParameter) -> bool:
    """Ext non-vanishing decided by the peeling recursion; hypotheses and
    answer match ``ext_branch_segment_type`` on every valid input."""
    _require_restriction_pair(a1, a2)
    _require_segment_type(a1)
    _require_segment_type(a2)
    return _recursive_decide(Counter(a1.terms), Counter(a2.terms))


def same_group_ext_segment_type(a1: ArthurParameter, a2: ArthurParameter) -> bool:
    """Ext non-vanishing between two same-group products of unitary
    segment-type representations: holds exactly when the cuspidal
    supports (equivalently the diagonal SL2 restrictions) agree."""
    if a1.dim != a2.dim:
        raise HypothesisError(f"not a same-group pair: dimensions {a1.dim} and {a2.dim}")
    _require_segment_type(a1)
    _require_segment_type(a2)
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
