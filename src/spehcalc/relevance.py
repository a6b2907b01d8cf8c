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
from itertools import product
from typing import Iterable, Optional

from .core import ArthurParameter, CuspidalSymbol, SpehDatum, _by_sort_key, _Record, csupp_param
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
        a, b = _PARTNER_KEYS[self](left.a, left.b)
        return SpehDatum(left.rho, a, b) if a and b else None

    def compatible(self, left: SpehDatum, right: SpehDatum) -> bool:
        return self.partner(left) == right


# The (a, b) of the right term each family pairs with a left u_rho(a, b);
# a step down from Arthur dimension 1 gives a key with a zero, which no
# term has.
_PARTNER_KEYS = {
    MoveFamily.F1: lambda a, b: (a, b - 1),
    MoveFamily.F2: lambda a, b: (a, b + 1),
    MoveFamily.F3: lambda a, b: (b - 1, a),
    MoveFamily.F4: lambda a, b: (b, a + 1),
}


GGP_FAMILIES = (MoveFamily.F1, MoveFamily.F2)
STRONG_FAMILIES = (MoveFamily.F1, MoveFamily.F2, MoveFamily.F3, MoveFamily.F4)


class MatchedPair(_Record):
    __slots__ = ("left", "right", "family")

    def __init__(self, left: SpehDatum, right: SpehDatum, family: MoveFamily) -> None:
        if not family.compatible(left, right):
            raise ValueError(f"terms ({left}, {right}) are not an {family.value} pair")
        set_left, set_right, set_family = self._setters
        set_left(self, left)
        set_right(self, right)
        set_family(self, family)

    @property
    def sort_key(self):
        return (self.left.sort_key, self.family.value, self.right.sort_key)


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
        return {
            "pairs": [
                {
                    "left": term_to_json(p.left),
                    "right": term_to_json(p.right),
                    "family": p.family.value,
                }
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


def term_to_json(s: SpehDatum) -> dict:
    return {"rho": {"id": s.rho.id, "degree": s.rho.degree}, "deligne": s.a, "arthur": s.b}


def term_from_json(data: dict) -> SpehDatum:
    return SpehDatum(
        CuspidalSymbol(data["rho"]["id"], data["rho"]["degree"]), data["deligne"], data["arthur"]
    )


# Search internals.  On term types with multiplicities a matching is a
# capacitated bipartite matching that covers every term of Arthur
# dimension > 1; left type t has one edge per family, to f.partner(t), so
# at most four.  Every family keeps rho, so a pair is one independent
# matching problem per cuspidal line, and ``_line_graphs`` builds one type
# graph per line: the line's right types are indexed 0..R-1 with their
# counts in a list, and each left type finds its partners by the plain
# (a, b) keys of ``_PARTNER_KEYS``, so the search below hashes, compares
# and builds no ``SpehDatum``.  By the Mendelsohn-Dulmage theorem a line
# has a matching exactly when one matching covers its required left terms
# and another covers its required right terms, so ``_feasible`` is two
# augmenting-path max flows on the line's graph.  Every line is checked
# before any line is searched, so a pair with one bad line costs at most
# one oracle call per line.
#
# ``_line_matchings`` walks a line's left types in ``_order`` (static:
# only the type being assigned ever leaves the left side) and decides how
# many copies of each take each option: a drop (when b == 1), then each
# family whose partner is present.  Counts are tried from the largest
# down and a branch is entered only when the oracle accepts the rest, with
# the unassigned copies of the type restricted to its later options.
# Every branch entered therefore ends in a matching and no two leaves are
# equal, so finding a line's first matching costs O(terms) oracle calls
# and enumeration is polynomial per matching.  Identical copies are
# interchangeable, so the first leaf, the lexicographically largest count
# vector, is the matching a copy-by-copy search in the same order finds
# first.  The lines are independent, so the lexicographically largest
# count vector of the whole pair, however its lines' levels interleave,
# is the product of the lines' first leaves: certificates do not depend
# on the split.  The counts feasible at one option form an interval
# (covering matchings are the integer points of a totally unimodular
# system), so the scan stops at the first rejection after an acceptance.

def _order(s: SpehDatum):
    return (-(s.a + s.b), -s.a, s.sort_key)


def _saturates(demands: list, capacity: list) -> bool:
    """Whether every demand ``(need, neighbours)`` can draw ``need`` units
    from its neighbours when neighbour ``v`` supplies at most
    ``capacity[v]``: max flow by augmenting paths, searched breadth first."""
    free = list(capacity)
    flow: dict = {}  # (demand, neighbour) -> units drawn
    users: dict = {}  # neighbour -> demands drawing from it
    for i, (need, _) in enumerate(demands):
        while need:
            reached = {}  # neighbour -> the demand that reached it
            via = {i: None}  # demand -> the neighbour it would release
            queue, end = [i], None
            for j in queue:
                for v in demands[j][1]:
                    if v in reached:
                        continue
                    reached[v] = j
                    if free[v]:
                        end = v
                        break
                    for k in users.get(v, ()):
                        if k not in via:
                            via[k] = v
                            queue.append(k)
                if end is not None:
                    break
            if end is None:
                return False
            step = min(need, free[end])
            j = reached[end]
            while via[j] is not None:
                step = min(step, flow[j, via[j]])
                j = reached[via[j]]
            free[end] -= step
            need -= step
            v = end
            while v is not None:
                j = reached[v]
                flow[j, v] = flow.get((j, v), 0) + step
                users.setdefault(v, set()).add(j)
                v = via[j]
                if v is not None:
                    flow[j, v] -= step
                    if not flow[j, v]:
                        users[v].discard(j)
    return True


def _feasible(vertices: list, counts: list, required: list) -> bool:
    """Whether the left vertices ``(copies, required, partners)`` and the
    right types with ``counts`` have a matching covering every required
    term; ``required`` lists the right types of Arthur dimension > 1."""
    if not _saturates([(n, ps) for n, req, ps in vertices if req and n], counts):
        return False
    reverse: dict = {r: [] for r in required if counts[r]}
    for i, (_, _, ps) in enumerate(vertices):
        for p in ps:
            if p in reverse:
                reverse[p].append(i)
    return _saturates(
        [(counts[r], users) for r, users in reverse.items()], [n for n, _, _ in vertices]
    )


def _line_graphs(a1: ArthurParameter, a2: ArthurParameter, families: tuple[MoveFamily, ...]):
    """The type graph of each cuspidal line of the pair, or None as soon
    as one line has no matching.  A graph holds the line's left types in
    search order, the options of each (``(None, None)`` for a drop, else
    ``(family, i)`` with right type ``i`` the partner), the oracle vertex
    of each, the line's right types, their counts and the indices of the
    required ones."""
    left, right = Counter(a1.terms), Counter(a2.terms)
    lines: dict = {}
    for t in left:
        lines.setdefault(t.rho, ([], []))[0].append(t)
    for t in right:
        lines.setdefault(t.rho, ([], []))[1].append(t)
    keys = [(f, _PARTNER_KEYS[f]) for f in families]
    graphs = []
    for lefts, rights in lines.values():
        index = {(r.a, r.b): i for i, r in enumerate(rights)}
        order = sorted(lefts, key=_order)
        options = []
        for t in order:
            partners = ((f, index.get(key(t.a, t.b))) for f, key in keys)
            options.append(
                ([(None, None)] if t.b == 1 else []) + [(f, i) for f, i in partners if i is not None]
            )
        vertices = [
            (left[t], t.b > 1, {i for f, i in opts if f is not None})
            for t, opts in zip(order, options)
        ]
        counts = [right[r] for r in rights]
        required = [i for i, r in enumerate(rights) if r.b > 1]
        if not _feasible(vertices, counts, required):
            return None
        graphs.append((order, options, vertices, rights, counts, required))
    return graphs


def _line_matchings(graph):
    """Every matching of one feasible line as ``(pairs, dropped left,
    dropped right)`` lists, each once, the first being the one a
    copy-by-copy search in ``_order`` finds first."""
    order, options, vertices, rights, counts, required = graph
    # One level per (type, option); ``later`` holds the partners of the
    # type's options after this one.
    levels = [
        (k, family, partner, {q for _, q in opts[j + 1:]})
        for k, opts in enumerate(options)
        for j, (family, partner) in enumerate(opts)
    ]

    def step_counts(level, rem):
        """The feasible numbers of the ``rem`` unassigned copies that take
        this level's option, largest first, each yielded with the number
        still unassigned and applied to ``counts`` while it is yielded."""
        k, _, partner, later = level
        top = rem if partner is None else min(rem, counts[partner])
        accepted = False
        for c in range(top, -1 if later else rem - 1, -1):
            if partner is not None:
                counts[partner] -= c
            # With no copies left, or at the last option (which takes
            # them all), the state is the one the previous level accepted.
            ok = not later or not rem or _feasible(
                [(rem - c, True, later)] + vertices[k + 1:], counts, required
            )
            if ok:
                yield c, rem - c
            if partner is not None:
                counts[partner] += c
            if ok:
                accepted = True
            elif accepted:
                return

    def leaf(chosen):
        pairs, drops, dropped_right = [], [], []
        for (k, family, partner, _), n in zip(levels, chosen):
            if family is None:
                drops += [order[k]] * n
            elif n:
                pairs += [MatchedPair(order[k], rights[partner], family)] * n
        for r, n in zip(rights, counts):
            dropped_right += [r] * n
        return pairs, drops, dropped_right

    if not levels:
        yield leaf(())
        return
    stack, chosen = [step_counts(levels[0], vertices[0][0])], []
    while stack:
        depth = len(stack) - 1
        step = next(stack[-1], None)
        del chosen[depth:]
        if step is None:
            stack.pop()
            continue
        c, rest = step
        chosen.append(c)
        if depth + 1 < len(levels):
            k = levels[depth + 1][0]
            rem = rest if k == levels[depth][0] else vertices[k][0]
            stack.append(step_counts(levels[depth + 1], rem))
            continue
        yield leaf(chosen)


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

    Both readings are computed on every call and must agree: the
    restriction in O(sum of min(a, b)), the run-length supports in
    O(terms + span)."""
    by_restriction = diagonal_restriction(a1) == diagonal_restriction(a2)
    by_support = csupp_param(a1) == csupp_param(a2)
    if by_restriction != by_support:
        raise RuntimeError(
            "diagonal restriction and cuspidal support disagree; this cannot happen"
        )
    return by_restriction
