"""Tests for the segment calculus."""

from __future__ import annotations

import pytest

from spehcalc import (
    ArthurParameter,
    CuspidalSymbol,
    HalfInt,
    Segment,
    SegmentRep,
    SpehDatum,
    az_dual_param,
    az_dual_speh,
    central_exponent,
    csupp_segment,
    is_generic_param,
    jacquet,
    linked,
    precedes,
    speh_from_segment_rep,
    speh_level,
    speh_minus,
    whittaker_dim,
)
from spehcalc.segments import OPPOSITE, STANDARD
from _fixtures import ONE, RHO, SIGN_PATTERNS

SIGMA = CuspidalSymbol("sigma", 2)


def seg(symbol, a, b):
    return Segment(symbol, HalfInt.of(a), HalfInt.of(b))


def oracle_linked(d1: Segment, d2: Segment) -> bool:
    """Direct set computation on the exponent ranges."""
    if d1.rho != d2.rho or not (d1.a - d2.a).is_integer:
        return False
    s1 = {e.doubled for e in d1.exponents()}
    s2 = {e.doubled for e in d2.exponents()}
    if s1 <= s2 or s2 <= s1:
        return False
    union = sorted(s1 | s2)
    return all(union[i + 1] - union[i] == 2 for i in range(len(union) - 1))


class TestSegments:
    def test_validation(self):
        with pytest.raises(ValueError):
            Segment(RHO, HalfInt.of(2), HalfInt.of(0))
        with pytest.raises(ValueError):
            Segment(RHO, HalfInt(0), HalfInt(1))  # half-integer gap

    def test_length_and_degree(self):
        s = Segment(SIGMA, HalfInt(-3), HalfInt(3))
        assert s.length == 4
        assert s.degree == 4 * SIGMA.degree

    def test_adjacent_overlapping_segments_are_linked(self):
        # frozen from oracle_linked on ranges {0,1} and {1,2}
        assert oracle_linked(seg(RHO, 0, 1), seg(RHO, 1, 2))
        assert linked(seg(RHO, 0, 1), seg(RHO, 1, 2))
        assert precedes(seg(RHO, 0, 1), seg(RHO, 1, 2))
        assert not precedes(seg(RHO, 1, 2), seg(RHO, 0, 1))

    def test_adjacency_without_overlap_is_linked(self):
        assert linked(seg(RHO, 0, 1), seg(RHO, 2, 3))
        assert oracle_linked(seg(RHO, 0, 1), seg(RHO, 2, 3))

    def test_containment_is_not_linked(self):
        assert not linked(seg(RHO, 0, 2), seg(RHO, 1, 1))

    def test_gap_is_not_linked(self):
        assert not linked(seg(RHO, 0, 1), seg(RHO, 3, 4))

    def test_distinct_symbols_and_lattices(self):
        assert not linked(seg(RHO, 0, 1), seg(SIGMA, 1, 2))
        assert not linked(seg(RHO, 0, 1), Segment(RHO, HalfInt(1), HalfInt(3)))

    def test_containment_needs_one_symbol_and_lattice(self):
        assert seg(RHO, 0, 2).contains(seg(RHO, 1, 1))
        assert not seg(RHO, 0, 2).contains(seg(SIGMA, 1, 1))
        assert not seg(RHO, 0, 2).contains(Segment(RHO, HalfInt(1), HalfInt(1)))  # half-integer offset

    @pytest.mark.parametrize("a1", range(-2, 3))
    @pytest.mark.parametrize("b1_off", range(0, 3))
    @pytest.mark.parametrize("a2", range(-2, 3))
    @pytest.mark.parametrize("b2_off", range(0, 3))
    def test_linked_matches_oracle(self, a1, b1_off, a2, b2_off):
        d1, d2 = seg(RHO, a1, a1 + b1_off), seg(RHO, a2, a2 + b2_off)
        assert linked(d1, d2) == oracle_linked(d1, d2)


class TestDualsAndDerivatives:
    def test_dual_swaps_dimensions(self):
        assert az_dual_speh(SpehDatum(RHO, 2, 3)) == SpehDatum(RHO, 3, 2)
        assert az_dual_speh(SpehDatum(RHO, 1, 1)) == SpehDatum(RHO, 1, 1)

    def test_dual_param_termwise(self):
        param = ArthurParameter((SpehDatum(RHO, 1, 7), SpehDatum(RHO, 5, 1)))
        expected = ArthurParameter((SpehDatum(RHO, 7, 1), SpehDatum(RHO, 1, 5)))
        assert az_dual_param(param) == expected

    def test_involution(self):
        for a in range(1, 9):
            for b in range(1, 9):
                s = SpehDatum(RHO, a, b)
                assert az_dual_speh(az_dual_speh(s)) == s

    def test_involution_on_params(self):
        import random

        from _gen import random_param

        rng = random.Random(13)
        for _ in range(200):
            param = random_param(rng)
            assert az_dual_param(az_dual_param(param)) == param

    def test_level(self):
        assert speh_level(SpehDatum(RHO, 1, 1)) == 1
        assert speh_level(SpehDatum(RHO, 5, 1)) == 5
        assert speh_level(SpehDatum(SIGMA, 3, 2)) == 6

    def test_minus(self):
        assert speh_minus(SpehDatum(RHO, 1, 7)) == SpehDatum(RHO, 1, 6)
        assert speh_minus(SpehDatum(RHO, 5, 2)) == SpehDatum(RHO, 5, 1)
        assert speh_minus(SpehDatum(RHO, 4, 1)) is None

    def test_minus_dual_composition(self):
        for a in range(2, 9):
            for b in range(1, 9):
                s = SpehDatum(RHO, a, b)
                composed = az_dual_speh(speh_minus(az_dual_speh(s)))
                assert composed == SpehDatum(RHO, a - 1, b)

    def test_segment_rep_conversion(self):
        rep = SegmentRep("Z", Segment(RHO, HalfInt(-2), HalfInt(2)))
        assert speh_from_segment_rep(rep) == SpehDatum(RHO, 1, 3)
        rep = SegmentRep("Q", Segment(RHO, HalfInt(-1), HalfInt(1)))
        assert speh_from_segment_rep(rep) == SpehDatum(RHO, 2, 1)
        with pytest.raises(ValueError):
            speh_from_segment_rep(SegmentRep("Q", seg(RHO, 0, 1)))


class TestJacquet:
    def test_indivisible_split_vanishes(self):
        result = jacquet("Q", STANDARD, Segment(SIGMA, HalfInt(0), HalfInt.of(3)), 3)
        assert result.is_zero

    def test_standard_q_example(self):
        result = jacquet("Q", STANDARD, seg(RHO, -1, 1), 1)
        omega1, omega2 = result.factors
        assert omega1 == SegmentRep("Q", seg(RHO, 0, 1))
        assert omega2 == SegmentRep("Q", seg(RHO, -1, -1))

    def test_opposite_z_example(self):
        result = jacquet("Z", OPPOSITE, seg(RHO, -1, 1), 1)
        omega1, omega2 = result.factors
        assert omega1 == SegmentRep("Z", seg(RHO, 0, 1))
        assert omega2 == SegmentRep("Z", seg(RHO, -1, -1))

    @pytest.mark.parametrize(
        "kind, side, message",
        [
            ("X", STANDARD, "kind must be 'Z' or 'Q', got 'X'"),
            ("Q", "std", "side must be 'standard' or 'opposite', got 'std'"),
        ],
    )
    def test_bad_kind_or_side_errors(self, kind, side, message):
        with pytest.raises(ValueError) as info:
            jacquet(kind, side, seg(RHO, 0, 2), 1)
        assert str(info.value) == message

    def test_split_out_of_range_errors(self):
        with pytest.raises(ValueError):
            jacquet("Q", STANDARD, seg(RHO, 0, 2), 0)
        with pytest.raises(ValueError):
            jacquet("Q", STANDARD, seg(RHO, 0, 2), 3)

    @pytest.mark.parametrize("kind", ["Z", "Q"])
    @pytest.mark.parametrize("side", [STANDARD, OPPOSITE])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_bookkeeping_and_signs(self, kind, side, degree):
        symbol = CuspidalSymbol("tau", degree)
        for length in range(2, 11):
            segment = Segment(symbol, HalfInt(-(length - 1)), HalfInt(length - 1))
            n = segment.degree
            for l in range(1, n):
                result = jacquet(kind, side, segment, l)
                if l % degree != 0:
                    assert result.is_zero
                    continue
                omega1, omega2 = result.factors
                assert omega1.degree == n - l
                assert omega2.degree == l
                combined = csupp_segment(omega1.segment).union(csupp_segment(omega2.segment))
                assert combined == csupp_segment(segment)
                sign1, sign2 = SIGN_PATTERNS[(kind, side)]
                e1 = central_exponent(csupp_segment(omega1.segment))
                e2 = central_exponent(csupp_segment(omega2.segment))
                assert e1 * sign1 > 0
                assert e2 * sign2 > 0


class TestGenericity:
    def test_steinberg_is_generic(self):
        param = ArthurParameter((SpehDatum(ONE, 4, 1),))
        assert is_generic_param(param)
        assert whittaker_dim(param) == 1

    def test_trivial_rep_is_not_generic(self):
        param = ArthurParameter((SpehDatum(ONE, 1, 3),))
        assert not is_generic_param(param)
        assert whittaker_dim(param) == 0

    def test_empty_param_is_generic(self):
        assert is_generic_param(ArthurParameter(()))
        assert whittaker_dim(ArthurParameter(())) == 1
