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
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .core import ArthurParameter, CuspidalSymbol, SpehDatum, csupp_param
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
        if self is MoveFamily.F1:
            return SpehDatum(left.rho, left.a, left.b - 1) if left.b >= 2 else None
        if self is MoveFamily.F2:
            return SpehDatum(left.rho, left.a, left.b + 1)
        if self is MoveFamily.F3:
            return SpehDatum(left.rho, left.b - 1, left.a) if left.b >= 2 else None
        return SpehDatum(left.rho, left.b, left.a + 1)

    def compatible(self, left: SpehDatum, right: SpehDatum) -> bool:
        return self.partner(left) == right


GGP_FAMILIES = (MoveFamily.F1, MoveFamily.F2)
STRONG_FAMILIES = (MoveFamily.F1, MoveFamily.F2, MoveFamily.F3, MoveFamily.F4)


@dataclass(frozen=True)
class MatchedPair:
    left: SpehDatum
    right: SpehDatum
    family: MoveFamily

    def __post_init__(self) -> None:
        if not self.family.compatible(self.left, self.right):
            raise ValueError(
                f"terms ({self.left}, {self.right}) are not an {self.family.value} pair"
            )

    @property
    def sort_key(self):
        return (self.left.sort_key, self.family.value, self.right.sort_key)


@dataclass(frozen=True)
class Matching:
    """A certificate decomposing a parameter pair: matched pairs plus the
    dropped terms on each side (all of Arthur dimension 1).

    Matchings are values: pairs and drops are kept canonically sorted, and
    two matchings built from the same pairs in different orders are equal.
    """

    pairs: tuple[MatchedPair, ...] = ()
    dropped_left: tuple[SpehDatum, ...] = ()
    dropped_right: tuple[SpehDatum, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(sorted(self.pairs, key=lambda p: p.sort_key)))
        object.__setattr__(
            self, "dropped_left", tuple(sorted(self.dropped_left, key=lambda s: s.sort_key))
        )
        object.__setattr__(
            self, "dropped_right", tuple(sorted(self.dropped_right, key=lambda s: s.sort_key))
        )

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
# at most four.  By the Mendelsohn-Dulmage theorem such a matching exists
# exactly when one matching covers the required left terms and another
# covers the required right terms, so ``_feasible`` is two augmenting-path
# max flows on the type graph.
#
# ``_matchings`` walks the left types in ``_order`` (static: only the type
# being assigned ever leaves the left side) and decides how many copies of
# each take each option: a drop (when b == 1), then each family whose
# partner is present.  Counts are tried from the largest down and a branch
# is entered only when the oracle accepts the rest, with the unassigned
# copies of the type restricted to its later options.  Every branch
# entered therefore ends in a matching and no two leaves are equal, so
# finding the first matching costs O(terms) oracle calls and enumeration
# is polynomial per matching.  Identical copies are interchangeable, so
# the first leaf, the lexicographically largest count vector, is the
# matching a copy-by-copy search in the same order finds first.  The
# counts feasible at one option form an interval (covering matchings are
# the integer points of a totally unimodular system), so the scan stops
# at the first rejection after an acceptance.

def _order(s: SpehDatum):
    return (-(s.a + s.b), -s.a, s.sort_key)


def _saturates(demands: list, capacity: dict) -> bool:
    """Whether every demand ``(need, neighbours)`` can draw ``need`` units
    from its neighbours when neighbour ``v`` supplies at most
    ``capacity[v]``: max flow by augmenting paths, searched breadth first."""
    free = dict(capacity)
    flow: Counter = Counter()  # (demand, neighbour) -> units drawn
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
                    if free.get(v):
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
                flow[j, v] += step
                users.setdefault(v, set()).add(j)
                v = via[j]
                if v is not None:
                    flow[j, v] -= step
                    if not flow[j, v]:
                        users[v].discard(j)
    return True


def _feasible(vertices: list, right: Counter) -> bool:
    """Whether the left vertices ``(copies, required, partners)`` and the
    right multiset have a matching covering every required term; right
    terms are required when their Arthur dimension exceeds 1."""
    if not _saturates([(n, ps) for n, required, ps in vertices if required and n], right):
        return False
    required_right = {r: n for r, n in right.items() if n > 0 and r.b > 1}
    reverse: dict = {r: [] for r in required_right}
    for i, (_, _, ps) in enumerate(vertices):
        for p in ps:
            if p in reverse:
                reverse[p].append(i)
    return _saturates(
        [(n, reverse[r]) for r, n in required_right.items()],
        {i: n for i, (n, _, _) in enumerate(vertices)},
    )


def _type_graph(left: Counter, right: Counter, families: tuple[MoveFamily, ...]):
    """The left types in search order, the options of each (``(None,
    None)`` for a drop, else ``(family, partner)`` with the partner
    present on the right) and the oracle vertex of each."""
    order = sorted(left, key=_order)
    options = [
        ([(None, None)] if t.b == 1 else [])
        + [(f, p) for f, p in ((f, f.partner(t)) for f in families) if p in right]
        for t in order
    ]
    vertices = [
        (left[t], t.b > 1, {p for f, p in opts if f is not None})
        for t, opts in zip(order, options)
    ]
    return order, options, vertices


def _matchings(a1: ArthurParameter, a2: ArthurParameter, families: tuple[MoveFamily, ...]):
    """Every matching of the pair, each once, the first being the one a
    copy-by-copy search in ``_order`` finds first."""
    left, right = Counter(a1.terms), Counter(a2.terms)
    order, options, vertices = _type_graph(left, right, families)
    if not _feasible(vertices, right):
        return
    # One level per (type, option); ``later`` holds the partners of the
    # type's options after this one.
    levels = [
        (k, family, partner, {q for _, q in opts[j + 1:]})
        for k, opts in enumerate(options)
        for j, (family, partner) in enumerate(opts)
    ]

    def counts(level, rem):
        """The feasible numbers of the ``rem`` unassigned copies that take
        this level's option, largest first, each yielded with the number
        still unassigned and applied to ``right`` while it is yielded."""
        k, _, partner, later = level
        top = rem if partner is None else min(rem, right[partner])
        accepted = False
        for c in range(top, -1 if later else rem - 1, -1):
            if partner is not None:
                right[partner] -= c
            # With no copies left, or at the last option (which takes
            # them all), the state is the one the previous level accepted.
            ok = not later or not rem or _feasible(
                [(rem - c, True, later)] + vertices[k + 1:], right
            )
            if ok:
                yield c, rem - c
            if partner is not None:
                right[partner] += c
            if ok:
                accepted = True
            elif accepted:
                return

    if not levels:
        yield Matching((), (), tuple(right.elements()))
        return
    stack, chosen = [counts(levels[0], left[order[0]])], []
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
            rem = rest if k == levels[depth][0] else left[order[k]]
            stack.append(counts(levels[depth + 1], rem))
            continue
        pairs, drops = [], []
        for (k, family, partner, _), n in zip(levels, chosen):
            if family is None:
                drops += [order[k]] * n
            elif n:
                pairs += [MatchedPair(order[k], partner, family)] * n
        yield Matching(tuple(pairs), tuple(drops), tuple(right.elements()))


def find_matching(
    a1: ArthurParameter, a2: ArthurParameter, families: tuple[MoveFamily, ...]
) -> Optional[Matching]:
    """First matching of the pair under the given families, or None."""
    return next(_matchings(a1, a2, families), None)


def enumerate_matchings(
    a1: ArthurParameter, a2: ArthurParameter, families: tuple[MoveFamily, ...]
) -> list[Matching]:
    """All distinct matchings of the pair, in deterministic order.

    Matchings are identified at value level: permuting identical terms
    never produces a new matching, while the same term pairing through
    two different families does.
    """
    return sorted(_matchings(a1, a2, families), key=lambda m: m.sort_key)


def _relevant(a1: ArthurParameter, a2: ArthurParameter, families: tuple[MoveFamily, ...]) -> bool:
    left, right = Counter(a1.terms), Counter(a2.terms)
    return _feasible(_type_graph(left, right, families)[2], right)


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
