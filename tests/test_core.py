"""Tests for exact arithmetic and cuspidal-support operations."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spehcalc import (
    ArthurParameter,
    CuspidalMultiset,
    CuspidalSymbol,
    HalfInt,
    SpehDatum,
    TwistedCuspidal,
    central_exponent,
    clebsch_gordan,
    csupp_param,
    csupp_speh,
    diagonal_restriction,
    in_cuspidal_lines,
    same_cuspidal_support,
)
from spehcalc.dsl import format_support, format_twisted

RHO = CuspidalSymbol("rho")
SIGMA = CuspidalSymbol("sigma")


LARGE_SYMBOLS = (RHO, SIGMA, CuspidalSymbol("tau", 2), CuspidalSymbol("omega", 3))


def twists(symbol, *doubled):
    return CuspidalMultiset(tuple(TwistedCuspidal(symbol, HalfInt(d)) for d in doubled))


class TestHalfInt:
    def test_arithmetic_is_exact(self):
        assert HalfInt(3) + HalfInt(-1) == HalfInt(2)
        assert HalfInt(1) - HalfInt(4) == HalfInt(-3)
        assert HalfInt(5) + 2 == HalfInt(9)
        assert -HalfInt(7) == HalfInt(-7)

    def test_integrality(self):
        assert HalfInt.of(3).is_integer
        assert not HalfInt(3).is_integer
        assert HalfInt(0).is_integer

    def test_ordering_and_str(self):
        assert HalfInt(-1) < HalfInt(0) < HalfInt(1) < HalfInt(2)
        assert str(HalfInt(3)) == "3/2"
        assert str(HalfInt(-1)) == "-1/2"
        assert str(HalfInt(4)) == "2"

    def test_as_fraction(self):
        assert HalfInt(3).as_fraction == Fraction(3, 2)

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_add_sub_roundtrip(self, x, y):
        a, b = HalfInt(x), HalfInt(y)
        assert (a + b) - b == a


class TestSymbolsAndMultisets:
    def test_degree_validation(self):
        with pytest.raises(ValueError):
            CuspidalSymbol("rho", 0)
        with pytest.raises(ValueError):
            CuspidalSymbol("")

    def test_multiset_canonical_order(self):
        a = twists(RHO, 2, -2, 0)
        b = twists(RHO, 0, 2, -2)
        assert a == b
        assert [t.exponent.doubled for t in a] == [-2, 0, 2]

    def test_same_line(self):
        base = TwistedCuspidal(RHO, HalfInt(0))
        assert TwistedCuspidal(RHO, HalfInt(6)).same_line(base)
        assert not TwistedCuspidal(RHO, HalfInt(1)).same_line(base)
        assert not TwistedCuspidal(SIGMA, HalfInt(0)).same_line(base)


def oracle_csupp_speh(s: SpehDatum) -> CuspidalMultiset:
    """Expand the defining product: twisted square-integrable factors
    nu^j delta_rho(a) for j over the centered Arthur segment, each
    contributing the centered Deligne chain of exponents."""
    entries = []
    for j2 in range(-(s.b - 1), s.b, 2):
        for i2 in range(-(s.a - 1), s.a, 2):
            entries.append(TwistedCuspidal(s.rho, HalfInt(j2 + i2)))
    return CuspidalMultiset(tuple(entries))


class TestCsupp:
    def test_cuspidal_case(self):
        assert csupp_speh(SpehDatum(RHO, 1, 1)) == twists(RHO, 0)

    def test_single_segment(self):
        assert csupp_speh(SpehDatum(RHO, 2, 1)) == twists(RHO, -1, 1)

    def test_two_by_two_rectangle(self):
        # frozen from oracle_csupp_speh: product of nu^(1/2) and nu^(-1/2)
        # twists of the length-2 discrete series
        assert csupp_speh(SpehDatum(RHO, 2, 2)) == twists(RHO, -2, 0, 0, 2)

    @pytest.mark.parametrize("a", range(1, 9))
    @pytest.mark.parametrize("b", range(1, 9))
    def test_rectangle_size_symmetry_and_oracle(self, a, b):
        s = SpehDatum(RHO, a, b)
        support = csupp_speh(s)
        assert len(support) == a * b
        assert support == csupp_speh(SpehDatum(RHO, b, a))
        assert support == oracle_csupp_speh(s)

    def test_param_union(self):
        assert csupp_param(ArthurParameter(())) == CuspidalMultiset(())
        assert csupp_param(ArthurParameter((SpehDatum(RHO, 1, 3),))) == twists(RHO, -2, 0, 2)
        two = ArthurParameter((SpehDatum(RHO, 1, 2), SpehDatum(RHO, 2, 1)))
        assert csupp_param(two) == twists(RHO, -1, -1, 1, 1)


class TestCuspidalLines:
    def test_integer_shift(self):
        assert in_cuspidal_lines(TwistedCuspidal(RHO, HalfInt(6)), twists(RHO, 0))

    def test_half_shift(self):
        assert not in_cuspidal_lines(TwistedCuspidal(RHO, HalfInt(1)), twists(RHO, 0))

    def test_distinct_symbols(self):
        assert not in_cuspidal_lines(TwistedCuspidal(SIGMA, HalfInt(0)), twists(RHO, 0))

    @given(st.integers(-20, 20), st.integers(-10, 10))
    def test_integer_retwist_invariance(self, d, shift):
        t = TwistedCuspidal(RHO, HalfInt(d))
        support = twists(RHO, 0, 3)
        assert in_cuspidal_lines(t, support) == in_cuspidal_lines(t.shifted(shift), support)


class TestCentralExponent:
    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (4, 4), (5, 2)])
    def test_speh_supports_are_centered(self, a, b):
        assert central_exponent(csupp_speh(SpehDatum(RHO, a, b))) == 0

    @pytest.mark.parametrize("p,k", [(1, 3), (2, 5), (0, 4), (-1, 2)])
    def test_segment_exponent_average(self, p, k):
        # oracle: plain average of the integer exponents p, ..., k-1
        exponents = list(range(p, k))
        expected = Fraction(sum(exponents), len(exponents))
        support = twists(RHO, *(2 * e for e in exponents))
        assert central_exponent(support) == expected
        assert expected == Fraction(p + k - 1, 2)

    def test_weighted_by_degree(self):
        tau = CuspidalSymbol("tau", 2)
        support = CuspidalMultiset((TwistedCuspidal(tau, HalfInt(1)),))
        assert central_exponent(support, 2) == Fraction(1, 2)

    def test_empty_support_errors(self):
        with pytest.raises(ValueError, match="undefined central exponent"):
            central_exponent(CuspidalMultiset(()))

    def test_degree_mismatch_errors(self):
        with pytest.raises(ValueError, match="does not match"):
            central_exponent(twists(RHO, 0), 5)


class TestRunLengthSupport:
    @pytest.mark.parametrize("a,b", [(1, 1), (1, 7), (5, 1), (4, 4), (3, 8), (300, 300), (299, 2)])
    def test_speh_support_has_one_run_per_exponent(self, a, b):
        runs = csupp_speh(SpehDatum(RHO, a, b)).runs
        assert len(runs) == a + b - 1
        assert sum(m for _, m in runs) == a * b

    def test_runs_are_canonical_whatever_the_input_order(self):
        support = twists(RHO, 2, -2, 0, 2, 2)
        assert support.runs == (
            (TwistedCuspidal(RHO, HalfInt(-2)), 1),
            (TwistedCuspidal(RHO, HalfInt(0)), 1),
            (TwistedCuspidal(RHO, HalfInt(2)), 3),
        )
        assert support == twists(RHO, 2, 2, 0, 2, -2)
        assert support.entries == tuple(support)


def large_params():
    """One to four terms with a, b up to 300 over cuspidals of degree 1
    to 3."""
    term = st.builds(SpehDatum, st.sampled_from(LARGE_SYMBOLS), st.integers(1, 300), st.integers(1, 300))
    return st.lists(term, min_size=1, max_size=4).map(lambda ts: ArthurParameter(tuple(ts)))


def clebsch_gordan_split(param: ArthurParameter) -> ArthurParameter:
    """Every term u(rho;a,b) replaced by the segment terms u(rho;1,d), d
    over the Clebsch-Gordan dimensions of V_a (x) V_b."""
    return ArthurParameter(tuple(
        SpehDatum(s.rho, 1, d) for s in param for d in clebsch_gordan(s.a, s.b)
    ))


def assert_summaries_match(support: CuspidalMultiset, expanded: list[TwistedCuspidal]) -> None:
    """The run-length summaries of support equal those computed twist by
    twist from its expanded sequence."""
    degree = sum(t.symbol.degree for t in expanded)
    weighted = sum(t.exponent.doubled * t.symbol.degree for t in expanded)
    assert (len(support), support.total_degree) == (len(expanded), degree)
    assert central_exponent(support) == Fraction(weighted, 2 * degree)
    assert format_support(support) == "{" + ", ".join(format_twisted(t) for t in expanded) + "}"


class TestLargeSupports:
    @settings(max_examples=10, deadline=None)
    @given(large_params())
    def test_param_support_is_union_of_rectangles(self, param):
        rectangles = [oracle_csupp_speh(s) for s in param]
        assert csupp_param(param) == rectangles[0].union(*rectangles[1:])

    @settings(max_examples=15, deadline=None)
    @given(large_params())
    def test_summaries_match_the_expanded_twists(self, param):
        support = csupp_param(param)
        assert len(support) == sum(s.a * s.b for s in param)
        assert support.total_degree == param.dim
        assert_summaries_match(support, list(support))

    @given(st.lists(st.tuples(st.sampled_from(LARGE_SYMBOLS), st.integers(-9, 9)), min_size=1, max_size=40))
    def test_summaries_of_uncentered_multisets(self, pairs):
        expanded = sorted((TwistedCuspidal(rho, HalfInt(d)) for rho, d in pairs), key=lambda t: t.sort_key)
        support = CuspidalMultiset(reversed(expanded))
        assert list(support) == expanded
        assert_summaries_match(support, expanded)

    @settings(max_examples=25, deadline=None)
    @given(large_params(), st.integers(0, 2), st.randoms(use_true_random=False))
    def test_same_support_on_clebsch_gordan_splits(self, param, perturbation, rng):
        split = list(clebsch_gordan_split(param).terms)
        if perturbation == 1:  # drop one segment
            split.pop(rng.randrange(len(split)))
        elif perturbation == 2:  # move one segment to another cuspidal line
            i = rng.randrange(len(split))
            split[i] = SpehDatum(rng.choice(LARGE_SYMBOLS), split[i].a, split[i].b)
        other = ArthurParameter(tuple(split))
        expected = diagonal_restriction(param) == diagonal_restriction(other)
        assert same_cuspidal_support(param, other) == expected
        assert same_cuspidal_support(other, param) == expected
