"""Matching deciders for pairs of Arthur parameters.

A pair decomposes by pairing terms across the two sides through one of
four move families and dropping the rest; a term may stand unmatched only
when its Arthur dimension is 1 (the V_0 degenerations of all four
families collapse to that one rule).  Restricting the families to the two
Arthur-step moves gives the Hom-side relevance criterion; allowing all
four gives the Ext-side one.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import lru_cache
from itertools import groupby, product
from operator import attrgetter
from typing import Iterable, Optional

from .core import ArthurParameter, CuspidalSymbol, SpehDatum, _by_sort_key, _line_triple, _Record, _support_corners
from .sl2 import diagonal_restriction


class MoveFamily(Enum):
    """How a left term u_rho(c, d) pairs with a right term.

    F1: right is the Arthur step down of left, u_rho(c, d-1).
    F2: left is the Arthur step down of right, so right = u_rho(c, d+1).
    F3: right is the dual of the Arthur step down of left, u_rho(d-1, c).
    F4: left is the dual of the Arthur step down of right, so
        right = u_rho(d, c+1).
    """

    F1 = "F1"
    F2 = "F2"
    F3 = "F3"
    F4 = "F4"

    def partner(self, left: SpehDatum) -> Optional[SpehDatum]:
        """The unique right-side term this family pairs with ``left``, or
        None when the family degenerates (step down from Arthur dim 1)."""
        a, b = _partner_keys(left.a, left.b)[_KEY_INDEX[self._value_]]
        return SpehDatum(left.rho, a, b) if a and b else None

    def compatible(self, left: SpehDatum, right: SpehDatum) -> bool:
        return self.partner(left) == right


def _partner_keys(a: int, b: int) -> tuple:
    """The (a, b) of the right term that F1, F2, F3 and F4 each pair with
    a left u_rho(a, b), at ``_KEY_INDEX`` of the family's value; a step
    down from Arthur dimension 1 gives a key with a zero, which no term
    has."""
    return (a, b - 1), (a, b + 1), (b - 1, a), (b, a + 1)


_KEY_INDEX = {"F1": 0, "F2": 1, "F3": 2, "F4": 3}


GGP_FAMILIES = (MoveFamily.F1, MoveFamily.F2)
STRONG_FAMILIES = (MoveFamily.F1, MoveFamily.F2, MoveFamily.F3, MoveFamily.F4)


class MatchedPair(_Record):
    __slots__ = ("left", "right", "family")

    def __init__(self, left: SpehDatum, right: SpehDatum, family: MoveFamily) -> None:
        a, b = _partner_keys(left.a, left.b)[_KEY_INDEX[family._value_]]
        if right.a != a or right.b != b or right.rho.sort_key != left.rho.sort_key:
            raise ValueError(f"terms ({left}, {right}) are not an {family.value} pair")
        set_left, set_right, set_family = self._setters
        set_left(self, left)
        set_right(self, right)
        set_family(self, family)

    @property
    def sort_key(self):
        return (self.left.sort_key, self.family._value_, self.right.sort_key)


class Matching(_Record):
    """A certificate decomposing a parameter pair: matched pairs plus the
    dropped terms on each side (all of Arthur dimension 1).

    Matchings are values: pairs and drops are kept canonically sorted, and
    two matchings built from the same pairs in different orders are equal.
    """

    __slots__ = ("pairs", "dropped_left", "dropped_right")

    def __init__(
        self,
        pairs: Iterable[MatchedPair] = (),
        dropped_left: Iterable[SpehDatum] = (),
        dropped_right: Iterable[SpehDatum] = (),
    ) -> None:
        set_pairs, set_left, set_right = self._setters
        set_pairs(self, tuple(sorted(pairs, key=_by_sort_key)))
        set_left(self, tuple(sorted(dropped_left, key=_by_sort_key)))
        set_right(self, tuple(sorted(dropped_right, key=_by_sort_key)))

    @property
    def sort_key(self):
        return (
            tuple(p.sort_key for p in self.pairs),
            tuple(s.sort_key for s in self.dropped_left),
            tuple(s.sort_key for s in self.dropped_right),
        )

    def validate(self, a1: ArthurParameter, a2: ArthurParameter) -> None:
        """Check this matching against the pair it claims to decompose:
        exact reconstruction of both multisets, family compatibility of
        every pair, and the Arthur-dim-1 drop rule."""
        left = Counter(p.left for p in self.pairs) + Counter(self.dropped_left)
        right = Counter(p.right for p in self.pairs) + Counter(self.dropped_right)
        if left != Counter(a1.terms) or right != Counter(a2.terms):
            raise ValueError("matching does not reconstruct the parameter pair")
        for p in self.pairs:
            if not p.family.compatible(p.left, p.right):
                raise ValueError(f"pair {p} violates family {p.family.value}")
        for s in self.dropped_left + self.dropped_right:
            if s.b != 1:
                raise ValueError(f"dropped term has Arthur dimension {s.b} > 1")

    def to_json_dict(self) -> dict:
        """The matching as JSON data; each distinct term's dict is built
        once and shared by its occurrences."""
        terms = {*self.dropped_left, *self.dropped_right}
        terms.update(s for p in self.pairs for s in (p.left, p.right))
        term = {s: term_to_json(s) for s in terms}
        return {
            "pairs": [
                {"left": term[p.left], "right": term[p.right], "family": p.family._value_}
                for p in self.pairs
            ],
            "dropped_left": [term[s] for s in self.dropped_left],
            "dropped_right": [term[s] for s in self.dropped_right],
        }

    @staticmethod
    def from_json_dict(data: dict) -> Matching:
        pairs = tuple(
            MatchedPair(
                term_from_json(p["left"]), term_from_json(p["right"]), MoveFamily(p["family"])
            )
            for p in data["pairs"]
        )
        return Matching(
            pairs,
            tuple(term_from_json(s) for s in data["dropped_left"]),
            tuple(term_from_json(s) for s in data["dropped_right"]),
        )


def term_to_json(s: SpehDatum) -> dict:
    return {"rho": {"id": s.rho.id, "degree": s.rho.degree}, "deligne": s.a, "arthur": s.b}


def term_from_json(data: dict) -> SpehDatum:
    return SpehDatum(
        CuspidalSymbol(data["rho"]["id"], data["rho"]["degree"]), data["deligne"], data["arthur"]
    )


# Search internals.  A matching covers every term of Arthur dimension > 1
# by a capacitated bipartite matching of term types.  Families keep rho,
# so each cuspidal line is a problem of its own, a ``_Line`` network, its
# partners found by the (a, b) keys of ``_partner_keys``.  Its matchings
# are its saturating integer flows (Hoffman 1960): every copy of a left
# type leaves by one option edge, a drop (b == 1) or a family's partner;
# required right types (b > 1) pass their copies to the sink, optional
# ones and drops theirs to a slack node whose edge to the sink carries
# the line's left copies minus its required right copies, so a flow that
# saturates every left type saturates every required right type.  One
# such flow per line, found before any line is searched, is the verdict.
#
# The search fixes the count on each option edge in turn (left types in
# ``_order``; a drop, then F1-F4), leaving only later edges free.  The
# feasible counts on an edge form an interval (flows are the integer
# points of a totally unimodular system), read off the residual graph:
# the largest by cycles through the edge, the smaller ones by cycles
# through it reversed, both over the arcs of later edges only, so any
# flow with the same earlier counts answers.  Counts taken largest first
# make the first leaf the lexicographically largest count vector, the
# matching a copy-by-copy search in the same order finds first (identical
# copies are interchangeable), and the pair's first matching the union
# of its lines'.  No residual arc leaves the nodes a failed search
# reaches, so no later cycle over the same arcs crosses them: a class
# list keeps such classes and a search stays within one.  One walk over
# the live flow finds every matching; the first is ``find_matching``'s.
# The start of a line's flow routes each type straight to partners with
# room, one step up (F2, F4) before one step down, as fewer types later
# in ``_order`` can fill them, and a drop last; then along paths.
_GREEDY = {"F2": 0, "F4": 1, "F1": 2, "F3": 3, None: 4}


def _order(s: SpehDatum):
    return (-(s.a + s.b), -s.a, s.sort_key)


class _Line:
    """One line's network: nodes the left types in ``_order``, the right
    types, the slack node and the sink; edges e the option edges in search
    order (``families[e]`` None for a drop), each right type's, the slack
    node's.  Edge e has arcs 2e and 2e + 1 (back), with a ``head`` and a
    residual capacity ``res``; ``arcs`` lists each node's arcs out.  Left
    type k's option edges are ``first[k]`` on, and ``greedy[k]`` lists
    their offsets from there in the order the start of the flow tries
    them.  ``picks`` and ``offsets`` are ``_option_tables`` of the
    families."""

    __slots__ = ("lefts", "rights", "first", "families", "greedy", "head", "arcs", "res")

    def __init__(self, lefts: list, rights: list, left: Counter, right: Counter, picks: tuple,
                 offsets: tuple) -> None:
        first, families, greedy, head, res = [], [], [], [], []
        slack = len(lefts) + len(rights)
        get = {(r.a, r.b): v for v, r in enumerate(rights, len(lefts))}.get
        total = 0
        for k, t in enumerate(lefts):
            first.append(len(families))
            n = left[t]
            total += n
            mask = 0
            if t.b == 1:
                mask = 1
                families.append(None)
                head += (slack, k)
                res += (n, 0)
            keys = _partner_keys(t.a, t.b)
            for f, i, bit in picks:
                v = get(keys[i])
                if v is not None:
                    mask |= bit
                    families.append(f)
                    head += (v, k)
                    res += (n, 0)
            greedy.append(offsets[mask])
        first.append(len(families))
        for v, r in enumerate(rights, len(lefts)):
            n = right[r]
            if r.b > 1:
                total -= n
            head += (slack + (r.b > 1), v)
            res += (n, 0)
        self.lefts, self.rights, self.first, self.families, self.greedy = lefts, rights, first, families, greedy
        self.head, self.res = head + [slack + 1, slack], res + [total, 0]
        self.arcs = None


@lru_cache(maxsize=16)
def _option_tables(families: tuple[MoveFamily, ...]) -> tuple[tuple, tuple]:
    """(family, its ``_KEY_INDEX``, its bit in an options mask) for each
    of the families; and for each options mask of a left type (bit 0 a
    drop, bit i + 1 a partner by ``families[i]``), the offsets of its
    option edges, which come in search order, sorted by ``_GREEDY`` rank."""
    picks = tuple((f, _KEY_INDEX[f._value_], 2 << i) for i, f in enumerate(families))
    options = (None, *families)
    offsets = []
    for mask in range(2 << len(families)):
        ranks = [_GREEDY[f and f._value_] for i, f in enumerate(options) if mask >> i & 1]
        offsets.append(tuple(sorted(range(len(ranks)), key=ranks.__getitem__)))
    return picks, tuple(offsets)


def _residual_path(line: _Line, part: list, source: int, target: int, free: int):
    """A path from ``source`` to ``target`` over the arcs from ``free``
    on with room in ``line.res`` and the nodes of ``source``'s class: a dict
    from each node reached to the arc that reached it, or None, in which
    case the nodes reached become a class of their own."""
    head, res, arcs = line.head, line.res, line.arcs
    if arcs is None:  # built on the first search: most verdicts need none
        line.arcs = arcs = [[] for _ in part]
        for a in range(len(head)):
            arcs[head[a ^ 1]].append(a)
    cls = part[source]
    if part[target] is not cls:
        return None
    reached = {source: None}
    stack = [source]
    while stack:
        for a in arcs[stack.pop()]:
            w = head[a]
            if a >= free and res[a] and w not in reached and part[w] is cls:
                reached[w] = a
                if w == target:
                    return reached
                stack.append(w)
    cls = object()
    for v in reached:
        part[v] = cls
    return None


def _send(line: _Line, part: list, source: int, target: int, free: int, most: int,
          close: tuple = ()) -> int:
    """Send up to ``most`` units from ``source`` to ``target``, one
    ``_residual_path`` at a time, each path followed by the arcs
    ``close``; return the number sent."""
    head, res, sent = line.head, line.res, 0
    while sent < most and (reached := _residual_path(line, part, source, target, free)):
        path, w, n = list(close), target, most - sent
        while reached[w] is not None:
            path.append(reached[w])
            n = min(n, res[path[-1]])
            w = head[path[-1] ^ 1]
        for a in path:
            res[a] -= n
            res[a ^ 1] += n
        sent += n
    return sent


_rho = attrgetter("rho")


def _line_graphs(a1: ArthurParameter, a2: ArthurParameter, families: tuple[MoveFamily, ...]):
    """Each cuspidal line's ``_Line`` with a saturating flow, or None."""
    left, right = Counter(a1.terms), Counter(a2.terms)
    lines: dict = {}
    for side, terms in enumerate((left, right)):
        for rho, types in groupby(terms, _rho):  # terms come sorted, so by line
            lines.setdefault(rho, ([], []))[side].extend(types)
    picks, offsets = _option_tables(tuple(families))
    graphs = []
    for lefts, rights in lines.values():
        line = _Line(sorted(lefts, key=_order), rights, left, right, picks, offsets)
        head, res, first = line.head, line.res, line.first
        sink = head[-2]  # the head of the slack node's edge
        if res[-2] < 0:
            return None
        part = [None] * (sink + 1)  # a failed search ends the line: no class outlives the start
        slack_arc, right_arc = len(res) - 2, 2 * (len(line.families) - len(line.lefts))
        for k, t in enumerate(line.lefts):
            need = left[t]
            for off in line.greedy[k]:
                # Along the option edge's arc a, then the arc s on from its
                # head, through the slack node if that is optional.
                a = 2 * (first[k] + off)
                s = right_arc + 2 * head[a]
                sent = min(need, res[s])
                if head[s] < sink:
                    sent = min(sent, res[slack_arc])
                    res[slack_arc] -= sent
                    res[slack_arc + 1] += sent
                res[a] -= sent
                res[a + 1] += sent
                res[s] -= sent
                res[s + 1] += sent
                need -= sent
                if not need:
                    break
            if need and _send(line, part, k, sink, 0, need) < need:
                return None
        graphs.append(line)
    return graphs


def _leaf(line: _Line):
    """A line's matching as ``(pairs, dropped left, dropped right)``."""
    res, pairs, drops, dropped_right = line.res, [], [], []
    for e, f in enumerate(line.families):
        t, n = line.lefts[line.head[2 * e + 1]], res[2 * e + 1]
        if f is None:
            drops += [t] * n
        elif n:
            pairs += [MatchedPair(t, line.rights[line.head[2 * e] - len(line.lefts)], f)] * n
    for e, r in enumerate(line.rights, len(line.families)):
        dropped_right += [r] * res[2 * e]
    return pairs, drops, dropped_right


def _line_matchings(line: _Line):
    """Every matching of one line, each once, in descending order of the
    count vector, by one walk over ``line.res``: raise every edge from e
    on, yield the leaf, then lower by one the last edge that can give up
    a copy, by a cycle through it reversed, and go on from the edge after
    it.  The later edges stay at their leaf counts for that search, which
    is sound as only the counts of earlier edges bound it.  A class found
    by a failed search holds at its own ``free`` and above, while a step
    down searches from a lower ``free``, so each step-down search starts
    from a new class list.
    """
    head, res, first, n = line.head, line.res, line.first, len(line.families)
    part, e = [None] * (head[-2] + 1), 0
    while True:
        for e in range(e, n):
            # onto e, by cycles from its head, what its type has on later edges
            k = head[2 * e + 1]
            rest = sum(res[2 * e + 3:2 * first[k + 1]:2])
            _send(line, part, head[2 * e], k, 2 * e + 2, rest, (2 * e,))
        yield _leaf(line)
        for e in reversed(range(n)):
            if res[2 * e + 1]:
                part = [None] * len(part)
                if _send(line, part, head[2 * e + 1], head[2 * e], 2 * e + 2, 1, (2 * e + 1,)):
                    break
        else:
            return
        e += 1


def _merge(leaves) -> Matching:
    """One matching of the pair from one matching of each line."""
    pairs, dropped_left, dropped_right = [], [], []
    for p, dl, dr in leaves:
        pairs += p
        dropped_left += dl
        dropped_right += dr
    return Matching(tuple(pairs), tuple(dropped_left), tuple(dropped_right))


def find_matching(
    a1: ArthurParameter, a2: ArthurParameter, families: tuple[MoveFamily, ...]
) -> Optional[Matching]:
    """First matching of the pair under the given families, or None."""
    graphs = _line_graphs(a1, a2, families)
    if graphs is None:
        return None
    return _merge(next(_line_matchings(g)) for g in graphs)


def enumerate_matchings(
    a1: ArthurParameter, a2: ArthurParameter, families: tuple[MoveFamily, ...]
) -> list[Matching]:
    """All distinct matchings of the pair, in deterministic order.

    Matchings are identified at value level: permuting identical terms
    never produces a new matching, while the same term pairing through
    two different families does.
    """
    graphs = _line_graphs(a1, a2, families)
    if graphs is None:
        return []
    per_line = [list(_line_matchings(g)) for g in graphs]
    return sorted(map(_merge, product(*per_line)), key=lambda m: m.sort_key)


def _relevant(a1: ArthurParameter, a2: ArthurParameter, families: tuple[MoveFamily, ...]) -> bool:
    return _line_graphs(a1, a2, families) is not None


def ggp_relevant(a1: ArthurParameter, a2: ArthurParameter) -> bool:
    """Relevance of the pair: matchable by Arthur-step moves alone."""
    return _relevant(a1, a2, GGP_FAMILIES)


def strong_ext_relevant(a1: ArthurParameter, a2: ArthurParameter) -> bool:
    """Strong Ext relevance: matchable by all four move families."""
    return _relevant(a1, a2, STRONG_FAMILIES)


def enumerate_ggp_matchings(a1: ArthurParameter, a2: ArthurParameter) -> list[Matching]:
    """All Arthur-step matchings; expected to have at most one element."""
    return enumerate_matchings(a1, a2, GGP_FAMILIES)


def enumerate_strong_matchings(a1: ArthurParameter, a2: ArthurParameter) -> list[Matching]:
    """All matchings under the four families (may exceed one)."""
    return enumerate_matchings(a1, a2, STRONG_FAMILIES)


def same_cuspidal_support(a1: ArthurParameter, a2: ArthurParameter) -> bool:
    """Whether the two parameters restrict identically to the diagonal
    SL2, equivalently carry the same cuspidal support.

    Both readings are computed on every call and must agree, each in
    O(terms) whatever a and b are, and neither builds a twist or an
    entry.  The restriction is compared by the ends of its runs of equal
    multiplicity (``sl2.DiagonalRestriction``), a first difference in
    dimension.  The support is compared by its corner table
    (``core._support_corners``), the second difference in exponent that
    ``csupp_param`` sums into multiplicities: equal nonzero sums mean
    equal supports and conversely."""
    by_restriction = diagonal_restriction(a1) == diagonal_restriction(a2)
    # zero sums, which terms whose corners cancel leave behind, dropped
    corners1, corners2 = ([_line_triple(rho, line) for rho, line in _support_corners(p)] for p in (a1, a2))
    by_support = corners1 == corners2
    if by_restriction != by_support:
        raise RuntimeError(
            "diagonal restriction and cuspidal support disagree; this cannot happen"
        )
    return by_restriction

