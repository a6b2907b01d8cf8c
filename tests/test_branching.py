"""Tests for the theorem-level decision procedures."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spehcalc import (
    Matching,
    ArthurParameter,
    CuspidalSymbol,
    HypothesisError,
    MoveFamily,
    SpehDatum,
    csupp_speh,
    euler_poincare,
    ext_branch_recursive,
    ext_branch_segment_type,
    hom_branch_arthur,
    same_group_ext_segment_type,
    speh_pair_same_group,
    strong_ext_relevant,
)
from _gen import (
    LARGE_FALSE_DRAWS,
    SYMBOLS,
    near_miss_segment_type_pair,
    random_generic_pair,
    random_pair,
    random_segment_type_param,
    random_segment_type_related_pair,
    segment_type_draw,
)

ONE = CuspidalSymbol("one")
RHO = CuspidalSymbol("rho")
SIGMA = CuspidalSymbol("sigma", 2)


def param(*terms):
    return ArthurParameter(tuple(SpehDatum(rho, a, b) for rho, a, b in terms))


class TestHomBranching:
    def test_trivial3_vs_steinberg2(self):
        verdict = hom_branch_arthur(param((ONE, 1, 3)), param((ONE, 2, 1)))
        assert not verdict.nonvanishing
        assert verdict.certificate is None

    @pytest.mark.parametrize("n", range(2, 8))
    def test_adjacent_steinbergs(self, n):
        # matched through the degenerate moves: both sides have Arthur
        # dimension 1 and drop
        verdict = hom_branch_arthur(param((ONE, n, 1)), param((ONE, n - 1, 1)))
        assert verdict.nonvanishing
        assert verdict.certificate == Matching(
            (), (SpehDatum(ONE, n, 1),), (SpehDatum(ONE, n - 1, 1),)
        )

    def test_steinberg2_vs_trivial1(self):
        assert hom_branch_arthur(param((ONE, 2, 1)), param((ONE, 1, 1))).nonvanishing

    def test_dimension_mismatch(self):
        with pytest.raises(HypothesisError, match=r"not a \(n, n-1\) pair"):
            hom_branch_arthur(param((ONE, 1, 3)), param((ONE, 1, 3)))


class TestExtBranching:
    def test_trivial3_vs_steinberg2(self):
        verdict = ext_branch_segment_type(param((ONE, 1, 3)), param((ONE, 2, 1)))
        assert verdict.nonvanishing
        assert [p.family for p in verdict.certificate.pairs] == [MoveFamily.F3]

    @pytest.mark.parametrize("n", range(3, 11))
    def test_steinberg_vs_trivial_family(self, n):
        verdict = ext_branch_segment_type(param((ONE, n, 1)), param((ONE, 1, n - 1)))
        assert not verdict.nonvanishing

    def test_non_segment_type_term_is_rejected(self):
        a1 = param((RHO, 2, 3))
        a2 = param((RHO, 3, 1), (RHO, 1, 1), (RHO, 1, 1))
        with pytest.raises(HypothesisError, match=r"u\(rho;2,3\)"):
            ext_branch_segment_type(a1, a2)
        with pytest.raises(HypothesisError, match=r"u\(rho;2,3\)"):
            ext_branch_recursive(a1, a2)

    def test_certificate_validates(self):
        a1, a2 = param((ONE, 1, 3)), param((ONE, 2, 1))
        ext_branch_segment_type(a1, a2).certificate.validate(a1, a2)


class TestRecursiveDecider:
    def test_trivial3_vs_steinberg2(self):
        assert ext_branch_recursive(param((ONE, 1, 3)), param((ONE, 2, 1)))

    def test_arthur_step_at_top_level(self):
        assert ext_branch_recursive(param((RHO, 1, 4)), param((RHO, 1, 3)))

    def test_dual_step_at_top_level(self):
        assert ext_branch_recursive(param((RHO, 1, 4)), param((RHO, 3, 1)))

    def test_agreement_with_matcher(self):
        rng = random.Random(71)
        agreements = 0
        trues = 0
        for _ in range(1500):
            n = rng.randint(1, 20)
            a1 = random_segment_type_param(rng, n)
            a2 = random_segment_type_param(rng, n - 1)
            matcher = ext_branch_segment_type(a1, a2).nonvanishing
            recursive = ext_branch_recursive(a1, a2)
            assert matcher == recursive, (a1, a2)
            agreements += 1
            trues += matcher
        assert agreements == 1500
        assert trues > 100  # the sample exercises both outcomes

    def test_agreement_with_matcher_at_n_240(self):
        rng = random.Random(72)
        for _ in range(10):
            a1 = random_segment_type_param(rng, 240)
            a2 = random_segment_type_param(rng, 239)
            verdict = ext_branch_segment_type(a1, a2)
            assert verdict.nonvanishing == ext_branch_recursive(a1, a2), (a1, a2)
            if verdict.certificate is not None:
                verdict.certificate.validate(a1, a2)

    def test_many_copies_do_not_meet_the_recursion_limit(self):
        a1 = param(*[(RHO, 1, 1)] * 1500)
        a2 = param(*[(RHO, 1, 1)] * 1499)
        assert ext_branch_recursive(a1, a2)
        verdict = ext_branch_segment_type(a1, a2)
        assert verdict.certificate == Matching((), a1.terms, a2.terms)

    def test_max_term_on_right_side(self):
        # the maximal term sits in the smaller parameter
        a1 = param((RHO, 1, 2), (RHO, 1, 1), (RHO, 1, 1))
        a2 = param((RHO, 3, 1))
        expected = ext_branch_segment_type(a1, a2).nonvanishing
        assert ext_branch_recursive(a1, a2) == expected


class TestRecursiveDeciderCost:
    """The level sweep visits occupied levels only: neither the number of
    terms nor their Arthur dimensions may make it slow."""

    @pytest.mark.parametrize("name", sorted(LARGE_FALSE_DRAWS))
    def test_large_false_draws(self, name):
        a1, a2 = segment_type_draw(**LARGE_FALSE_DRAWS[name])
        start = time.perf_counter()
        assert not ext_branch_recursive(a1, a2)
        assert time.perf_counter() - start < 2
        assert not ext_branch_segment_type(a1, a2).nonvanishing

    def test_huge_arthur_dimensions(self):
        a1, a2 = param((RHO, 1, 10**9)), param((RHO, 1, 10**9 - 1))
        start = time.perf_counter()
        assert ext_branch_recursive(a1, a2)
        assert time.perf_counter() - start < 2
        assert ext_branch_segment_type(a1, a2).nonvanishing


@settings(max_examples=15, deadline=None)
@given(
    st.integers(100, 4000),
    st.integers(1, 3),
    st.integers(2, 24),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_large_pairs_agree_with_matcher(size, lines, max_len, related, seed):
    """Both Ext deciders agree on segment-type pairs of 100 to 4000 terms
    a side, matchable by construction or drawn independently."""
    rng = random.Random(seed)
    symbols = SYMBOLS[:lines]
    if related:
        a1, a2 = random_segment_type_related_pair(rng, size, symbols, max_len)
    else:
        n = size * (max_len + 1) // 2  # about `size` terms of mean length
        a1 = random_segment_type_param(rng, n, symbols, max_len)
        a2 = random_segment_type_param(rng, n - 1, symbols, max_len)
    verdict = ext_branch_segment_type(a1, a2)
    assert ext_branch_recursive(a1, a2) == verdict.nonvanishing
    if related:
        assert verdict.nonvanishing
    if verdict.certificate is not None:
        verdict.certificate.validate(a1, a2)


@settings(max_examples=12, deadline=None)
@given(st.integers(50, 1000), st.integers(1, 3), st.integers(2, 24), st.integers(0, 2**32))
def test_near_misses_agree_with_matcher(pairs, lines, max_len, seed):
    """Both Ext deciders agree on segment-type pairs of about 100 to 2000
    terms in all, matchable by construction and then broken in one place
    (``near_miss_segment_type_pair``).  Drawn like this, 59 % of the
    pairs built from 50 strong pairs had no matching, 58 % at 100, 50 %
    at 200 and 51 % at 1000 (400 draws at each size)."""
    a1, a2 = near_miss_segment_type_pair(random.Random(seed), pairs, SYMBOLS[:lines], max_len)
    verdict = ext_branch_segment_type(a1, a2)
    assert ext_branch_recursive(a1, a2) == verdict.nonvanishing
    if verdict.certificate is not None:
        verdict.certificate.validate(a1, a2)


class TestSameGroup:
    def test_trivial_vs_steinberg(self):
        for n in range(1, 7):
            assert same_group_ext_segment_type(param((ONE, 1, n)), param((ONE, n, 1)))

    def test_equal_support_different_products(self):
        a1 = param((RHO, 1, 2), (RHO, 2, 1))
        a2 = param((RHO, 2, 1), (RHO, 2, 1))
        assert same_group_ext_segment_type(a1, a2)

    def test_disjoint_supports(self):
        assert not same_group_ext_segment_type(param((RHO, 1, 3)), param((CuspidalSymbol("tau"), 1, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(HypothesisError, match="same-group"):
            same_group_ext_segment_type(param((RHO, 1, 3)), param((RHO, 1, 2)))

    def test_segment_type_required(self):
        with pytest.raises(HypothesisError, match="segment type"):
            same_group_ext_segment_type(param((RHO, 2, 2)), param((RHO, 2, 2)))


class TestSpehPairs:
    def test_dual_pair(self):
        assert speh_pair_same_group(SpehDatum(RHO, 2, 3), SpehDatum(RHO, 3, 2))

    def test_identity(self):
        assert speh_pair_same_group(SpehDatum(RHO, 2, 3), SpehDatum(RHO, 2, 3))

    def test_equal_degree_distinct_tensors(self):
        assert not speh_pair_same_group(SpehDatum(RHO, 1, 6), SpehDatum(RHO, 2, 3))

    def test_degree_mismatch(self):
        with pytest.raises(HypothesisError, match="degree mismatch"):
            speh_pair_same_group(SpehDatum(RHO, 1, 2), SpehDatum(RHO, 1, 3))

    def test_matches_support_equality(self):
        for a in range(1, 9):
            for b in range(1, 9):
                s1 = SpehDatum(RHO, a, b)
                for c in range(1, 9):
                    for d in range(1, 9):
                        if a * b != c * d:
                            continue
                        s2 = SpehDatum(RHO, c, d)
                        assert speh_pair_same_group(s1, s2) == (csupp_speh(s1) == csupp_speh(s2))


class TestEulerPoincare:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_steinberg_vs_trivial(self, n):
        assert euler_poincare(param((ONE, n, 1)), param((ONE, 1, n - 1))) == 0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_adjacent_steinbergs(self, n):
        assert euler_poincare(param((ONE, n, 1)), param((ONE, n - 1, 1))) == 1

    def test_steinberg2_vs_trivial1(self):
        assert euler_poincare(param((ONE, 2, 1)), param((ONE, 1, 1))) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(HypothesisError):
            euler_poincare(param((ONE, 2, 1)), param((ONE, 2, 1)))

    def test_nonzero_ep_forces_ext(self):
        rng = random.Random(72)
        for _ in range(500):
            n = rng.randint(1, 15)
            a1 = random_segment_type_param(rng, n)
            a2 = random_segment_type_param(rng, n - 1)
            if euler_poincare(a1, a2) != 0:
                assert ext_branch_segment_type(a1, a2).nonvanishing


class TestCrossProperties:
    def test_hom_implies_strong(self):
        rng = random.Random(73)
        for _ in range(500):
            a1, a2 = random_pair(rng)
            if a1.dim != a2.dim + 1:
                continue
            if hom_branch_arthur(a1, a2).nonvanishing:
                assert strong_ext_relevant(a1, a2)

    def test_generic_base(self):
        rng = random.Random(74)
        for _ in range(300):
            a1, a2 = random_generic_pair(rng)
            assert hom_branch_arthur(a1, a2).nonvanishing
            assert ext_branch_segment_type(a1, a2).nonvanishing
            assert euler_poincare(a1, a2) == 1
