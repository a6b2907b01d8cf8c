"""Tests for the matching deciders and enumerators."""

from __future__ import annotations

import random

import pytest

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
    same_cuspidal_support,
    strong_ext_relevant,
)
from spehcalc.relevance import GGP_FAMILIES, STRONG_FAMILIES, enumerate_matchings, find_matching
from _gen import random_pair, random_param
from _oracles import oracle_matchings

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

    def test_huge_rectangle_against_its_clebsch_gordan_split(self):
        # 4 * 10^8 twists a side: only the run-length supports make this cheap
        a = param((RHO, 20000, 20000))
        split = ArthurParameter(tuple(SpehDatum(RHO, 1, d) for d in clebsch_gordan(20000, 20000)))
        assert same_cuspidal_support(a, split)
        assert not same_cuspidal_support(a, ArthurParameter(split.terms[1:]))
