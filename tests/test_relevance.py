"""Tests for the matching deciders and enumerators."""

from __future__ import annotations

import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spehcalc import (
    ArthurParameter,
    CuspidalSymbol,
    Matching,
    MatchedPair,
    MoveFamily,
    SpehDatum,
    az_dual_param,
    clebsch_gordan,
    enumerate_ggp_matchings,
    enumerate_strong_matchings,
    ggp_relevant,
    parse_param,
    same_cuspidal_support,
    strong_ext_relevant,
)
from spehcalc import relevance
from spehcalc.relevance import GGP_FAMILIES, STRONG_FAMILIES, enumerate_matchings, find_matching
from _gen import SYMBOLS, near_miss_pair, random_pair, random_param, random_related_pair
from _oracles import oracle_compatible, oracle_matchings

ONE = CuspidalSymbol("one")
RHO = CuspidalSymbol("rho")
CHI = CuspidalSymbol("chi")


def param(*terms):
    return ArthurParameter(tuple(SpehDatum(rho, a, b) for rho, a, b in terms))


TRIV3 = param((ONE, 1, 3))
ST2 = param((ONE, 2, 1))


class TestGgpRelevance:
    def test_trivial3_vs_steinberg2(self):
        assert not ggp_relevant(TRIV3, ST2)

    def test_steinberg2_vs_trivial1(self):
        # both terms have Arthur dimension 1, so both drop
        assert ggp_relevant(ST2, param((ONE, 1, 1)))

    def test_empty_pair(self):
        assert ggp_relevant(ArthurParameter(()), ArthurParameter(()))


class TestStrongRelevance:
    def test_trivial3_vs_steinberg2(self):
        assert strong_ext_relevant(TRIV3, ST2)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_steinberg_vs_trivial_family(self, n):
        assert not strong_ext_relevant(param((ONE, n, 1)), param((ONE, 1, n - 1)))

    def test_speh_vs_dual_product(self):
        a1 = param((RHO, 2, 3))
        a2 = param((RHO, 3, 1), (RHO, 1, 1), (RHO, 1, 1))
        assert not strong_ext_relevant(a1, a2)

    def test_augmenting_path_moves_only_what_it_can(self):
        # u(rho;2,2) takes the one u(rho;2,3) first; u(rho;2,4) x 3 can get
        # it back only by moving that one unit onto a u(rho;2,1), which
        # still leaves two copies of u(rho;2,4) uncovered
        a1 = param((RHO, 2, 3), *[(RHO, 2, 1)] * 5)
        a2 = param((RHO, 2, 2), *[(RHO, 2, 4)] * 3)
        assert not strong_ext_relevant(a1, a2)
        assert not ggp_relevant(a1, a2)
        assert oracle_matchings(a1, a2, STRONG_FAMILIES) == set()


class TestEnumeration:
    def test_two_distinct_matchings(self):
        a1 = param((ONE, 1, 7), (ONE, 5, 1), (CHI, 1, 1))
        a2 = param((ONE, 1, 6), (ONE, 6, 1))
        matchings = enumerate_strong_matchings(a1, a2)
        assert len(matchings) == 2
        arthur_step = Matching(
            (MatchedPair(SpehDatum(ONE, 1, 7), SpehDatum(ONE, 1, 6), MoveFamily.F1),),
            (SpehDatum(ONE, 5, 1), SpehDatum(CHI, 1, 1)),
            (SpehDatum(ONE, 6, 1),),
        )
        dual_steps = Matching(
            (
                MatchedPair(SpehDatum(ONE, 1, 7), SpehDatum(ONE, 6, 1), MoveFamily.F3),
                MatchedPair(SpehDatum(ONE, 5, 1), SpehDatum(ONE, 1, 6), MoveFamily.F4),
            ),
            (SpehDatum(CHI, 1, 1),),
            (),
        )
        assert set(matchings) == {arthur_step, dual_steps}
        assert set(matchings) == oracle_matchings(a1, a2, STRONG_FAMILIES)

    def test_single_dual_matching(self):
        matchings = enumerate_strong_matchings(TRIV3, ST2)
        assert len(matchings) == 1
        (m,) = matchings
        assert [p.family for p in m.pairs] == [MoveFamily.F3]

    def test_undroppable_leftover(self):
        assert enumerate_strong_matchings(ArthurParameter(()), param((RHO, 1, 2))) == []

    def test_ggp_counts(self):
        assert len(enumerate_ggp_matchings(ST2, param((ONE, 1, 1)))) == 1
        assert len(enumerate_ggp_matchings(TRIV3, ST2)) == 0
        single = enumerate_ggp_matchings(param((RHO, 2, 3)), param((RHO, 2, 2)))
        assert len(single) == 1
        assert [p.family for p in single[0].pairs] == [MoveFamily.F1]

    def test_same_pair_through_two_families(self):
        # the F1 and F3 partners of u(c, c+1) coincide, giving two
        # matchings that differ only in the family label
        matchings = enumerate_strong_matchings(param((RHO, 1, 2)), param((RHO, 1, 1)))
        families = sorted(p.family.value for m in matchings for p in m.pairs)
        assert families == ["F1", "F3"]

    def test_completeness_against_brute_force(self):
        rng = random.Random(61)
        for _ in range(400):
            a1, a2 = random_pair(rng)
            if len(a1) > 5 or len(a2) > 5:
                continue
            for families in (GGP_FAMILIES, STRONG_FAMILIES):
                ours = set(enumerate_matchings(a1, a2, families))
                assert ours == oracle_matchings(a1, a2, families)

    def test_enumeration_soundness(self):
        rng = random.Random(62)
        for _ in range(300):
            a1, a2 = random_pair(rng)
            for m in enumerate_strong_matchings(a1, a2):
                m.validate(a1, a2)


def copies_family(copies):
    """Sum over cuspidals rho of k x u(rho;1,3) + k x u(rho;2,2) against
    k x u(rho;1,2) + k x u(rho;2,1) + k x u(rho;2,3): on each cuspidal the
    strong matchings are counted by how many u(rho;2,2) take F2."""
    left, right = [], []
    for rho, k in copies.items():
        left += [(rho, 1, 3)] * k + [(rho, 2, 2)] * k
        right += [(rho, 1, 2)] * k + [(rho, 2, 1)] * k + [(rho, 2, 3)] * k
    return param(*left), param(*right)


class TestCopiesFamily:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_k_plus_one_strong_matchings(self, k):
        a1, a2 = copies_family({RHO: k})
        matchings = enumerate_strong_matchings(a1, a2)
        assert len(matchings) == k + 1
        assert len(set(matchings)) == k + 1
        for m in matchings:
            m.validate(a1, a2)
        assert len(enumerate_ggp_matchings(a1, a2)) == 1

    @pytest.mark.parametrize("ks", [(1, 1), (2, 3), (4, 1, 2), (3, 3, 3)])
    def test_product_over_split_cuspidals(self, ks):
        symbols = (ONE, RHO, CHI)
        a1, a2 = copies_family(dict(zip(symbols, ks)))
        expected = 1
        for k in ks:
            expected *= k + 1
        assert len(enumerate_strong_matchings(a1, a2)) == expected
        assert len(enumerate_ggp_matchings(a1, a2)) == 1


class TestJson:
    def test_terms_in_several_pairs(self):
        """Every term of this pair occurs in two pairs or drops of each
        matching: the JSON reads back to the same matching, and its text
        is the one captured before a term's dict was built only once."""
        a1, a2 = copies_family({RHO: 2})
        matchings = enumerate_strong_matchings(a1, a2)
        for m in matchings:
            assert Matching.from_json_dict(m.to_json_dict()) == m
        golden = Path(__file__).parent / "golden" / "copies_2_strong_json.out"
        text = json.dumps([m.to_json_dict() for m in matchings]) + "\n"
        assert text == golden.read_text(encoding="utf-8")


class TestLargeInputs:
    def test_distinct_droppable_terms(self):
        # 1500 distinct left types: the search depth grows with them
        a1 = param(*((RHO, i, 1) for i in range(1, 1501)))
        a2 = param(*((RHO, i, 1) for i in range(1, 1500)))
        all_drops = Matching((), a1.terms, a2.terms)
        assert find_matching(a1, a2, STRONG_FAMILIES) == all_drops
        assert enumerate_strong_matchings(a1, a2) == [all_drops]

    def test_find_matching_is_one_of_enumeration(self):
        rng = random.Random(68)
        for _ in range(400):
            a1, a2 = random_pair(rng)
            for families in (GGP_FAMILIES, STRONG_FAMILIES):
                first = find_matching(a1, a2, families)
                matchings = enumerate_matchings(a1, a2, families)
                if first is None:
                    assert matchings == []
                else:
                    assert first in matchings


# First certificates captured from the whole-pair search, before the
# matcher split a pair by cuspidal line: ``random_related_pair`` pairs of
# up to 20-320 terms over one to four lines, built from the strong or the
# GGP families, at three of the sizes also with one unmatchable line
# added; k-copies families over several lines; two empty parameters; and
# droppable terms on three lines against nothing.  For each family set the
# first certificate (null when there is none) and, for pairs with at most
# 30 matchings, the whole sorted enumeration.
FIRST_MATCHINGS = json.loads(
    (Path(__file__).parent / "golden" / "first_matchings.json").read_text(encoding="utf-8")
)
FAMILY_SETS = {"ggp": GGP_FAMILIES, "strong": STRONG_FAMILIES}


@pytest.mark.parametrize("case", FIRST_MATCHINGS, ids=[c["name"] for c in FIRST_MATCHINGS])
def test_first_matching_golden(case):
    a1, a2 = parse_param(case["left"]), parse_param(case["right"])
    for name, families in FAMILY_SETS.items():
        first = find_matching(a1, a2, families)
        assert (None if first is None else first.to_json_dict()) == case["first"][name]
        if name in case["all"]:
            matchings = enumerate_matchings(a1, a2, families)
            assert [m.to_json_dict() for m in matchings] == case["all"][name]


class TestLineMerge:
    def test_empty_pair_has_one_empty_matching(self):
        empty = ArthurParameter(())
        for families in (GGP_FAMILIES, STRONG_FAMILIES):
            assert enumerate_matchings(empty, empty, families) == [Matching()]
            assert find_matching(empty, empty, families) == Matching()

    def test_droppable_terms_on_three_lines_against_nothing(self):
        droppable = param((ONE, 2, 1), (RHO, 1, 1), (CuspidalSymbol("sigma", 2), 3, 1))
        empty = ArthurParameter(())
        for families in (GGP_FAMILIES, STRONG_FAMILIES):
            drop_left = Matching((), droppable.terms, ())
            assert enumerate_matchings(droppable, empty, families) == [drop_left]
            assert find_matching(droppable, empty, families) == drop_left
            drop_right = Matching((), (), droppable.terms)
            assert enumerate_matchings(empty, droppable, families) == [drop_right]
            assert find_matching(empty, droppable, families) == drop_right


def on_line(a: ArthurParameter, rho: CuspidalSymbol) -> ArthurParameter:
    return ArthurParameter(tuple(s for s in a if s.rho == rho))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(50, 640),
    st.integers(1, 4),
    st.sampled_from(sorted(FAMILY_SETS)),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_lines_are_independent(size, lines, built, broken, seed):
    """A pair of up to 640 terms a side over one to four cuspidal lines,
    matchable by construction unless one term was then removed: its first
    certificate is the union of its lines' first certificates, and it is
    relevant exactly when every line is."""
    rng = random.Random(seed)
    symbols = SYMBOLS + (CHI,)
    a1, a2 = random_related_pair(rng, FAMILY_SETS[built], size, 6, symbols[:lines])
    if broken and len(a1):
        removed = rng.randrange(len(a1))
        a1 = ArthurParameter(a1.terms[:removed] + a1.terms[removed + 1:])
    rhos = sorted({s.rho for s in a1.terms + a2.terms}, key=lambda r: r.sort_key)
    restricted = [(on_line(a1, rho), on_line(a2, rho)) for rho in rhos]
    for relevant in (ggp_relevant, strong_ext_relevant):
        assert relevant(a1, a2) == all(relevant(b1, b2) for b1, b2 in restricted)
    for families in (GGP_FAMILIES, STRONG_FAMILIES):
        whole = find_matching(a1, a2, families)
        parts = [find_matching(b1, b2, families) for b1, b2 in restricted]
        assert (whole is None) == any(part is None for part in parts)
        if whole is None:
            continue
        for rho, part in zip(rhos, parts):
            assert part.pairs == tuple(p for p in whole.pairs if p.left.rho == rho)
            assert part.dropped_left == tuple(s for s in whole.dropped_left if s.rho == rho)
            assert part.dropped_right == tuple(s for s in whole.dropped_right if s.rho == rho)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(sorted(FAMILY_SETS)), st.integers(1, 2))
def test_near_misses_against_brute_force(seed, built, lines):
    """Small pairs matchable by construction and then broken in one place
    (``near_miss_pair``), on one or two lines; about two thirds of them
    have no strong matching.  Both verdicts, the first matching and the
    enumeration agree with the brute-force oracle."""
    a1, a2 = near_miss_pair(random.Random(seed), FAMILY_SETS[built], symbols=SYMBOLS[:lines])
    for families, relevant in ((GGP_FAMILIES, ggp_relevant), (STRONG_FAMILIES, strong_ext_relevant)):
        expected = oracle_matchings(a1, a2, families)
        assert relevant(a1, a2) == bool(expected)
        assert set(enumerate_matchings(a1, a2, families)) == expected
        first = find_matching(a1, a2, families)
        assert first in expected if expected else first is None


def test_matched_pair_accepts_exactly_the_oracle_pairs():
    """``MatchedPair`` accepts a pair of terms under a family exactly when
    the oracle's equations hold, on every pair of small terms of two
    cuspidal lines."""
    terms = [SpehDatum(rho, a, b) for rho in (ONE, RHO) for a in range(1, 4) for b in range(1, 4)]
    for left in terms:
        for right in terms:
            for family in MoveFamily:
                if oracle_compatible(left, right, family):
                    assert MatchedPair(left, right, family).right == right
                else:
                    with pytest.raises(ValueError, match="are not an F"):
                        MatchedPair(left, right, family)


def test_certificate_searches_are_linear_in_types(monkeypatch):
    """The first certificate of a dense one-line pair (1276 left terms of
    501 types, 1252 right terms, Arthur and Deligne dimensions up to 24)
    costs a number of residual path searches linear in the line's option
    edges and left types (916 against a bound of 2270), not a flow per
    count tried."""
    a1, a2 = random_related_pair(random.Random(5), STRONG_FAMILIES, 1280, 24, SYMBOLS[:1])
    rights = set(a2.terms)
    lefts = set(a1.terms)
    edges = sum((t.b == 1) + sum(f.partner(t) in rights for f in STRONG_FAMILIES) for t in lefts)
    calls = []
    search = relevance._residual_path
    monkeypatch.setattr(relevance, "_residual_path", lambda *args: calls.append(1) or search(*args))
    first = find_matching(a1, a2, STRONG_FAMILIES)
    first.validate(a1, a2)
    assert 0 < len(calls) <= edges + len(lefts)


def test_enumeration_steps_down_on_the_live_flow(monkeypatch):
    """Listing the one Arthur-step matching of a dense one-line pair (1056
    left terms of 472 types, 1034 right terms) tries to step each option
    edge down once on the flow of the first matching: a number of path
    searches linear in option edges and left types (991 against a bound
    of 1300), and memory that does not grow with edges times arcs, as a
    copy of the flow at each edge would (23 MiB at the peak)."""
    a1, a2 = random_related_pair(random.Random(8984), GGP_FAMILIES, 1280, 24, SYMBOLS[:1])
    rights = set(a2.terms)
    lefts = set(a1.terms)
    edges = sum((t.b == 1) + sum(f.partner(t) in rights for f in GGP_FAMILIES) for t in lefts)
    calls = []
    search = relevance._residual_path
    monkeypatch.setattr(relevance, "_residual_path", lambda *args: calls.append(1) or search(*args))
    tracemalloc.start()
    try:
        matchings = enumerate_matchings(a1, a2, GGP_FAMILIES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(matchings) == 1
    assert peak < 4 * 2**20
    assert 0 < len(calls) <= edges + len(lefts)


@pytest.mark.parametrize("families", [GGP_FAMILIES, STRONG_FAMILIES])
@pytest.mark.parametrize("left, right", [
    ("u(rho;1,2) + rho", "u(rho;1,3) + rho"),
    ("u(rho;2,1) + rho", "u(rho;2,2)"),
])
def test_flow_start_tries_a_step_up_first(monkeypatch, families, left, right):
    """The start of a line's flow sends each left type to a partner one
    Arthur step up before one step down, and to a drop last, so on these
    pairs the verdict makes no path search.  In the first, u(rho;1,2) goes
    to u(rho;1,3) and leaves the slack node's one unit to the droppable
    rho; tried in search order, u(rho;1,2) would take that unit through
    its F1 partner rho.  In the second, u(rho;2,1) goes to u(rho;2,2);
    tried first, its drop would take the unit rho needs.  Either way a
    path search would have to undo it."""
    calls = []
    search = relevance._residual_path
    monkeypatch.setattr(relevance, "_residual_path", lambda *args: calls.append(1) or search(*args))
    assert relevance._relevant(parse_param(left), parse_param(right), families)
    assert calls == []


class TestProperties:
    def test_symmetry(self):
        rng = random.Random(63)
        for _ in range(500):
            a1, a2 = random_pair(rng)
            assert strong_ext_relevant(a1, a2) == strong_ext_relevant(a2, a1)
            assert ggp_relevant(a1, a2) == ggp_relevant(a2, a1)

    def test_ggp_implies_strong(self):
        rng = random.Random(64)
        for _ in range(500):
            a1, a2 = random_pair(rng, families=GGP_FAMILIES)
            if ggp_relevant(a1, a2):
                assert strong_ext_relevant(a1, a2)

    def test_ggp_uniqueness(self):
        rng = random.Random(65)
        for _ in range(500):
            a1, a2 = random_pair(rng, families=GGP_FAMILIES)
            assert len(enumerate_ggp_matchings(a1, a2)) <= 1

    def test_related_pairs_are_relevant_by_construction(self):
        rng = random.Random(66)
        from _gen import random_related_pair

        for _ in range(300):
            a1, a2 = random_related_pair(rng)
            assert strong_ext_relevant(a1, a2)
            b1, b2 = random_related_pair(rng, families=GGP_FAMILIES)
            assert ggp_relevant(b1, b2)


class TestMatchingValue:
    def test_json_round_trip(self):
        a1 = param((ONE, 1, 7), (ONE, 5, 1), (CHI, 1, 1))
        a2 = param((ONE, 1, 6), (ONE, 6, 1))
        for m in enumerate_strong_matchings(a1, a2):
            data = m.to_json_dict()
            assert set(data) == {"pairs", "dropped_left", "dropped_right"}
            for p in data["pairs"]:
                assert set(p) == {"left", "right", "family"}
                assert set(p["left"]) == {"rho", "deligne", "arthur"}
                assert set(p["left"]["rho"]) == {"id", "degree"}
            assert Matching.from_json_dict(data) == m

    def test_incompatible_pair_rejected(self):
        with pytest.raises(ValueError):
            MatchedPair(SpehDatum(RHO, 1, 3), SpehDatum(RHO, 1, 1), MoveFamily.F1)

    def test_validate_rejects_bad_drop(self):
        m = Matching((), (SpehDatum(RHO, 1, 2),), ())
        with pytest.raises(ValueError):
            m.validate(param((RHO, 1, 2)), ArthurParameter(()))

    def test_validate_rejects_wrong_reconstruction(self):
        m = Matching((), (SpehDatum(RHO, 1, 1),), ())
        with pytest.raises(ValueError):
            m.validate(param((RHO, 2, 1)), ArthurParameter(()))


class TestSameCuspidalSupport:
    def test_dual_pairs(self):
        assert same_cuspidal_support(param((RHO, 2, 3)), param((RHO, 3, 2)))
        assert same_cuspidal_support(param((ONE, 1, 3)), param((ONE, 3, 1)))

    def test_different_shape(self):
        assert not same_cuspidal_support(param((RHO, 2, 2)), param((RHO, 1, 4)))

    def test_dualizing_preserves_support(self):
        rng = random.Random(67)
        for _ in range(200):
            a = random_param(rng)
            assert same_cuspidal_support(a, az_dual_param(a))

    def test_same_id_other_degree(self):
        # one symbol id at two degrees names two cuspidal lines
        assert not same_cuspidal_support(param((RHO, 1, 3)), param((CuspidalSymbol("rho", 2), 1, 3)))

    def test_huge_rectangle_against_its_clebsch_gordan_split(self):
        # 4 * 10^8 twists a side: comparing trapezoid corners makes this cheap
        a = param((RHO, 20000, 20000))
        split = ArthurParameter(tuple(SpehDatum(RHO, 1, d) for d in clebsch_gordan(20000, 20000)))
        assert same_cuspidal_support(a, split)
        assert not same_cuspidal_support(a, ArthurParameter(split.terms[1:]))
