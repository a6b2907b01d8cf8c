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
from itertools import product
from operator import attrgetter
from typing import Iterable, Optional

from .core import ArthurParameter, CuspidalSymbol, SpehDatum, _by_sort_key, _Value


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

    __hash__ = object.__hash__  # members are singletons, compared by identity

    def partner(self, left: SpehDatum) -> Optional[SpehDatum]:
        """The unique right-side term this family pairs with ``left``, or
        None when the family degenerates (step down from Arthur dim 1)."""
        a, b = _partner_keys(left.a, left.b)[_KEY_INDEX[self._value_]]
        return SpehDatum(left.rho, a, b) if a and b else None

    def compatible(self, left: SpehDatum, right: SpehDatum) -> bool:
        """Whether this family pairs ``left`` with ``right``: its equation in
        ``_EQUATIONS`` on their (a, b), and their symbols' sort keys."""
        return (_EQUATIONS[self._value_](left.a, left.b, right.a, right.b)
                and right.rho.sort_key == left.rho.sort_key)


# Whether each family pairs a left u(c, d) with a right u(a, b), spelled out
# apart from the search's ``_partner_keys``, so that a certificate is checked
# independently of the search that built it.  No term has a zero, so a step
# down from Arthur dimension 1 pairs with nothing.
_EQUATIONS = {
    "F1": lambda c, d, a, b: a == c and b == d - 1,
    "F2": lambda c, d, a, b: a == c and b == d + 1,
    "F3": lambda c, d, a, b: a == d - 1 and b == c,
    "F4": lambda c, d, a, b: a == d and b == c + 1,
}


def _partner_keys(a: int, b: int) -> tuple:
    """The (a, b) of the right term that F1, F2, F3 and F4 each pair with
    a left u_rho(a, b), at ``_KEY_INDEX`` of the family's value; a step
    down from Arthur dimension 1 gives a key with a zero, which no term
    has."""
    return (a, b - 1), (a, b + 1), (b - 1, a), (b, a + 1)


_KEY_INDEX = {"F1": 0, "F2": 1, "F3": 2, "F4": 3}


GGP_FAMILIES = (MoveFamily.F1, MoveFamily.F2)
STRONG_FAMILIES = (MoveFamily.F1, MoveFamily.F2, MoveFamily.F3, MoveFamily.F4)


class MatchedPair(_Value):
    """A left term paired with a right term by one move family; the
    constructor refuses a pair the family does not join."""

    __slots__ = ("left", "right", "family")

    def __init__(self, left: SpehDatum, right: SpehDatum, family: MoveFamily) -> None:
        if not family.compatible(left, right):
            raise ValueError(f"terms ({left}, {right}) are not an {family.value} pair")
        set_left, set_right, set_family = self._setters
        set_left(self, left)
        set_right(self, right)
        set_family(self, family)
        self._freeze((left.sort_key, family._value_, right.sort_key))


class Matching(_Value):
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
        self._freeze(tuple(tuple(map(_by_sort_key, field)) for field in self._fields()))

    def validate(self, a1: ArthurParameter, a2: ArthurParameter,
                 families: tuple[MoveFamily, ...] = STRONG_FAMILIES) -> None:
        """Check this matching against the pair it claims to decompose:
        exact reconstruction of both multisets, every pair's family among
        ``families`` (the verdict's: ``GGP_FAMILIES`` for Hom and
        relevance, ``STRONG_FAMILIES`` for Ext) and compatible with the
        pair, and the Arthur-dim-1 drop rule.  The terms are counted by
        their sort keys, against the parameters' lines."""
        left = Counter(map(_left_key, self.pairs))
        left.update(map(_by_sort_key, self.dropped_left))
        right = Counter(map(_right_key, self.pairs))
        right.update(map(_by_sort_key, self.dropped_right))
        if dict(left) != _term_counts(a1) or dict(right) != _term_counts(a2):
            raise ValueError("matching does not reconstruct the parameter pair")
        for p in self.pairs:
            if p.family not in families:
                allowed = ", ".join(f.value for f in families)
                raise ValueError(f"pair {p} uses family {p.family.value}, not one of {allowed}")
            if not p.family.compatible(p.left, p.right):
                raise ValueError(f"pair {p} violates family {p.family.value}")
        for s in self.dropped_left + self.dropped_right:
            if s.b != 1:
                raise ValueError(f"dropped term has Arthur dimension {s.b} > 1")

    def to_json_dict(self) -> dict:
        """The matching as JSON data."""
        return {
            "pairs": [
                {"left": term_to_json(p.left), "right": term_to_json(p.right), "family": p.family._value_}
                for p in self.pairs
            ],
            "dropped_left": [term_to_json(s) for s in self.dropped_left],
            "dropped_right": [term_to_json(s) for s in self.dropped_right],
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


_left_key = attrgetter("left.sort_key")
_right_key = attrgetter("right.sort_key")


def _term_counts(param: ArthurParameter) -> dict:
    """The copies of each term of param, keyed by its sort key."""
    return {
        (*rho.sort_key, a, b): n
        for rho, keys, counts in param._lines
        for (a, b), n in zip(keys, counts)
    }


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
# Lines that one side alone occupies are built first: nothing pairs there,
# so one with a term of Arthur dimension > 1 refutes the pair before any
# network of a shared line is built.
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


def _order(t: tuple):
    """The search order of a line's left types ((a, b), copies): by level
    a + b, then by a, both falling; total within one line."""
    a, b = t[0]
    return (-(a + b), -a)


class _Line:
    """One line's network: nodes the left types in ``_order``, the right
    types, the slack node and the sink; edges e the option edges in search
    order (``families[e]`` None for a drop), each right type's, the slack
    node's.  A type is a ((a, b), copies) pair of ints on the line of
    ``rho``.  Edge e has arcs 2e and 2e + 1 (back), with a ``head`` and a
    residual capacity ``res``; ``arcs`` lists each node's arcs out.  Left
    type k's option edges are ``first[k]`` on, and ``greedy[k]`` lists
    their offsets from there in the order the start of the flow tries
    them.  ``picks`` and ``offsets`` are ``_option_tables`` of the
    families.  ``terms`` (each type's ``SpehDatum``, by node) and
    ``pairs`` (each option edge's ``MatchedPair``) are the values that
    ``_leaf`` reports, built there."""

    __slots__ = ("rho", "lefts", "rights", "first", "families", "greedy", "head", "arcs", "res", "terms",
                 "pairs")

    def __init__(self, rho: CuspidalSymbol, lefts: list, rights: list, picks: tuple,
                 offsets: tuple) -> None:
        first, families, greedy, head, res = [], [], [], [], []
        slack = len(lefts) + len(rights)
        get = {key: v for v, (key, _) in enumerate(rights, len(lefts))}.get
        total = 0
        for k, ((a, b), n) in enumerate(lefts):
            first.append(len(families))
            total += n
            mask = 0
            if b == 1:
                mask = 1
                families.append(None)
                head += (slack, k)
                res += (n, 0)
            keys = _partner_keys(a, b)
            for f, i, bit in picks:
                v = get(keys[i])
                if v is not None:
                    mask |= bit
                    families.append(f)
                    head += (v, k)
                    res += (n, 0)
            greedy.append(offsets[mask])
        first.append(len(families))
        for v, ((_, b), n) in enumerate(rights, len(lefts)):
            if b > 1:
                total -= n
                head += (slack + 1, v)
            else:
                head += (slack, v)
            res += (n, 0)
        self.rho, self.lefts, self.rights = rho, lefts, rights
        self.first, self.families, self.greedy = first, families, greedy
        head += (slack + 1, slack)
        res += (total, 0)
        self.head, self.res = head, res
        self.arcs = None
        self.terms = self.pairs = None


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


def _line_graphs(a1: ArthurParameter, a2: ArthurParameter, families: tuple[MoveFamily, ...]):
    """Each cuspidal line's ``_Line`` with a saturating flow, or None.
    Read from the parameters' lines: no term is built or hashed.

    The lines only ``a2`` occupies come first, then those only ``a1``
    occupies, then the shared ones, each group in canonical order.  On a
    one-sided line nothing pairs, so it holds a flow exactly when all its
    terms have Arthur dimension 1.  An ``a2``-only line fails at the
    negative-slack check, before any search; an ``a1``-only one at its
    first left type with no option edge, whose one search reaches no
    other node.  So a pair such a line refutes is refuted before any
    shared line's network is built.  A line's left types are sorted by
    ``_order`` only when it is built."""
    rights = {rho: list(zip(keys, counts)) for rho, keys, counts in a2._lines}
    left_lines = [(rho, zip(keys, counts), rights.pop(rho, ())) for rho, keys, counts in a1._lines]
    lines = [(rho, (), types) for rho, types in rights.items()]
    lines += [line for line in left_lines if not line[2]]
    lines += [line for line in left_lines if line[2]]
    picks, offsets = _option_tables(tuple(families))
    graphs = []
    for rho, left_types, types in lines:
        lefts = sorted(left_types, key=_order)
        line = _Line(rho, lefts, types, picks, offsets)
        head, res, first = line.head, line.res, line.first
        sink = head[-2]  # the head of the slack node's edge
        if res[-2] < 0:
            return None
        slack_arc, right_arc = len(res) - 2, 2 * (len(line.families) - len(lefts))
        for k, (_, need) in enumerate(lefts):
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
            # a failed search ends the line: no class outlives the start
            if need and _send(line, [None] * (sink + 1), k, sink, 0, need) < need:
                return None
        graphs.append(line)
    return graphs


def _leaf(line: _Line):
    """A line's matching as ``(pairs, dropped left, dropped right)``.

    Every copy of every type stands in each matching, paired or dropped,
    so the first leaf of a line builds the ``SpehDatum`` of each of its
    types, and each pair's ``MatchedPair`` on its first report; both are
    kept on the line for the leaves after it."""
    terms = line.terms
    if terms is None:
        rho = line.rho
        terms = line.terms = [SpehDatum(rho, a, b) for (a, b), _ in (*line.lefts, *line.rights)]
        line.pairs = [None] * len(line.families)
    head, res, kept, pairs, drops, dropped_right = line.head, line.res, line.pairs, [], [], []
    for e, f in enumerate(line.families):
        n = res[2 * e + 1]
        if not n:
            continue
        if f is None:
            drops += [terms[head[2 * e + 1]]] * n
            continue
        pair = kept[e]
        if pair is None:
            pair = kept[e] = MatchedPair(terms[head[2 * e + 1]], terms[head[2 * e]], f)
        pairs += [pair] * n
    for e, r in enumerate(terms[len(line.lefts):], len(line.families)):
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
    return Matching(pairs, dropped_left, dropped_right)


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
    return sorted(map(_merge, product(*per_line)), key=_by_sort_key)


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

