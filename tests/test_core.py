"""Tests for exact arithmetic and cuspidal-support operations."""

from __future__ import annotations

import copy
import dataclasses
import operator
import pickle
import random
import re
from collections import Counter
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
    csupp_segment,
    csupp_speh,
    diagonal_restriction,
    in_cuspidal_lines,
    same_cuspidal_support,
)
from spehcalc.branching import BranchingVerdict, same_group_ext_segment_type
from spehcalc.dsl import SourceSpan, format_support, format_twisted, parse_support
from spehcalc.relevance import MatchedPair, Matching, MoveFamily
from spehcalc.segments import JacquetResult, Segment, SegmentRep
from spehcalc.sl2 import DiagonalRestriction

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
    @given(large_params(), st.integers(0, 3), st.randoms(use_true_random=False))
    def test_same_support_on_clebsch_gordan_splits(self, param, perturbation, rng):
        split = list(clebsch_gordan_split(param).terms)
        if perturbation == 1:  # drop one segment
            split.pop(rng.randrange(len(split)))
        elif perturbation == 2:  # move one segment to another cuspidal line
            i = rng.randrange(len(split))
            split[i] = SpehDatum(rng.choice(LARGE_SYMBOLS), split[i].a, split[i].b)
        elif perturbation == 3:  # split u(1, d) into u(1, d-1) + u(1, 1): same lines
            long = [i for i, s in enumerate(split) if s.b >= 2]
            if long:
                s = split.pop(rng.choice(long))
                split += [SpehDatum(s.rho, 1, s.b - 1), SpehDatum(s.rho, 1, 1)]
        other = ArthurParameter(tuple(split))
        expected = diagonal_restriction(param) == diagonal_restriction(other)
        assert same_cuspidal_support(param, other) == expected
        assert same_cuspidal_support(other, param) == expected

    def test_same_support_builds_no_twist(self, monkeypatch):
        """Both support comparisons answer without a single HalfInt or
        TwistedCuspidal, on segment-type pairs over four lines (rho and
        sigma of degree 1, tau of degree 2, and rho again at degree 3): the
        Clebsch-Gordan splits of one parameter with a, b up to 300, once
        as they are and once with one segment read as u(b, 1) or split
        into u(1, b-1) + u(1, 1)."""
        rng = random.Random(42)
        symbols = (RHO, SIGMA, CuspidalSymbol("tau", 2), CuspidalSymbol("rho", 3))
        cases = []
        for _ in range(20):
            param = ArthurParameter(tuple(
                SpehDatum(rho, rng.randint(1, 300), rng.randint(1, 300)) for rho in symbols for _ in range(2)
            ))
            left, right = (list(clebsch_gordan_split(param).terms) for _ in range(2))
            if rng.random() < 0.5:
                i = rng.randrange(len(right))
                s = right[i]
                if s.b >= 2 and rng.random() < 0.5:
                    right[i:i + 1] = [SpehDatum(s.rho, 1, s.b - 1), SpehDatum(s.rho, 1, 1)]
                else:
                    right[i] = SpehDatum(s.rho, s.b, 1)  # the same segment, read as u(b, 1)
            left, right = ArthurParameter(tuple(left)), ArthurParameter(tuple(right))
            cases.append((left, right, csupp_param(left) == csupp_param(right)))
        assert {expected for _, _, expected in cases} == {True, False}

        def refuse(*args):
            raise AssertionError("a twist was built")

        monkeypatch.setattr("spehcalc.core.HalfInt", refuse)
        monkeypatch.setattr("spehcalc.core.TwistedCuspidal", refuse)
        for left, right, expected in cases:
            assert same_cuspidal_support(left, right) == expected
            assert same_group_ext_segment_type(left, right) == expected


def speh_twists(s: SpehDatum) -> list[TwistedCuspidal]:
    """The a-by-b rectangle of u_rho(a, b)'s twists, one by one."""
    return [
        TwistedCuspidal(s.rho, HalfInt(i2 + j2))
        for j2 in range(-(s.b - 1), s.b, 2)
        for i2 in range(-(s.a - 1), s.a, 2)
    ]


def runs_built(support: CuspidalMultiset) -> bool:
    """True once support's ``runs`` has been read (the plain attribute
    lookup, which does not build them)."""
    try:
        object.__getattribute__(support, "runs")
    except AttributeError:
        return False
    return True


def small_params():
    term = st.builds(SpehDatum, st.sampled_from(LARGE_SYMBOLS), st.integers(1, 12), st.integers(1, 12))
    return st.lists(term, max_size=4).map(lambda ts: ArthurParameter(tuple(ts)))


def uncentered_segments():
    """Segments of length 1 to 8 starting anywhere in [-6, 6], by steps
    of 1/2, over the four symbols."""
    return st.builds(
        lambda rho, lo, length: Segment(rho, HalfInt(lo), HalfInt(lo + 2 * (length - 1))),
        st.sampled_from(LARGE_SYMBOLS), st.integers(-12, 12), st.integers(1, 8),
    )


class TestSupportLines:
    @settings(max_examples=40, deadline=None)
    @given(small_params(), st.lists(uncentered_segments(), min_size=1, max_size=4),
           st.randoms(use_true_random=False))
    def test_every_construction_gives_one_value(self, param, segments, rng):
        """Supports built every way from the same twists are the same
        value: equal, with equal hashes, reprs and runs, and with the
        summaries of the twists one by one."""
        expanded = [t for s in param for t in speh_twists(s)]
        expanded += [TwistedCuspidal(seg.rho, e) for seg in segments for e in seg.exponents()]
        expanded.sort(key=lambda t: t.sort_key)
        shuffled = list(expanded)
        rng.shuffle(shuffled)
        segment_supports = [csupp_segment(seg) for seg in segments]

        def built():
            return csupp_param(param).union(*segment_supports)

        first = built()
        values = [
            first,
            segment_supports[0].union(*(csupp_speh(s) for s in param), *segment_supports[1:]),
            CuspidalMultiset(shuffled),
            CuspidalMultiset(entries=iter(shuffled)),
            CuspidalMultiset._of(built().runs),
            parse_support(format_support(built())),
        ]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            values.append(pickle.loads(pickle.dumps(built(), protocol)))
        values += [copy.copy(built()), copy.deepcopy(built())]
        for value in values:
            assert_summaries_match(value, expanded)
            assert value == first and first == value and hash(value) == hash(first)
        text = repr(CuspidalMultiset(expanded))
        for value in values:
            assert repr(value) == text
            assert value.runs == first.runs
            assert list(value) == expanded

    @pytest.mark.parametrize("param", [
        ArthurParameter(),
        ArthurParameter((SpehDatum(RHO, 3, 4), SpehDatum(SIGMA, 2, 1), SpehDatum(CuspidalSymbol("tau", 2), 5, 2))),
        ArthurParameter((SpehDatum(RHO, 1, 3), SpehDatum(RHO, 2, 2), SpehDatum(CuspidalSymbol("rho", 3), 4, 1))),
    ])
    def test_unread_runs_behave_as_built_from_entries(self, param):
        """A support whose runs were never read compares, hashes,
        pickles, copies and prints as the one built from its twists, and
        only printing it builds the runs."""
        eager = CuspidalMultiset([t for s in param for t in speh_twists(s)])
        assert eager.runs is not None and runs_built(eager)
        support = csupp_param(param)
        assert not runs_built(support)
        assert support == eager and eager == support and not support != eager
        assert hash(support) == hash(eager) and {eager: 1}[support] == 1
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(support, protocol) == pickle.dumps(eager, protocol)
            loaded = pickle.loads(pickle.dumps(support, protocol))
            assert loaded == eager and hash(loaded) == hash(eager) and not runs_built(loaded)
        for copied in (copy.copy(support), copy.deepcopy(support)):
            assert copied == eager and hash(copied) == hash(eager) and not runs_built(copied)
        assert not runs_built(support)
        assert repr(support) == repr(eager)
        assert runs_built(support) and support.runs == eager.runs

    def test_unread_runs_refuse_assignment(self):
        support = csupp_param(ArthurParameter((SpehDatum(RHO, 2, 3),)))
        with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'runs'$"):
            support.runs = ()
        with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot delete field 'runs'$"):
            del support.runs
        with pytest.raises(AttributeError, match="object has no attribute 'not_a_field'"):
            support.not_a_field
        assert not runs_built(support)
        assert support.runs == csupp_speh(SpehDatum(RHO, 2, 3)).runs

    def test_summaries_build_no_twist(self, monkeypatch):
        """csupp_param, len, total_degree, central_exponent,
        format_support and in_cuspidal_lines answer without a single
        HalfInt or TwistedCuspidal.  Parameters over three of four lines
        (rho, sigma, tau of degree 2, rho of degree 3), terms with a·b up
        to 10^4: two lines carry both exponent parities, the third one
        term of one parity; the answers are checked against the twists
        counted one by one as plain ints."""
        rng = random.Random(15)
        symbols = (RHO, SIGMA, CuspidalSymbol("tau", 2), CuspidalSymbol("rho", 3))

        def term(rho, parity):
            a = rng.randint(1, 100)
            b = rng.randint(1, 10**4 // a)
            if (a + b) % 2 != parity:
                b = b + 1 if a * (b + 1) <= 10**4 else b - 1
            return SpehDatum(rho, a, b)

        cases = []
        for _ in range(6):
            first, second, third = rng.sample(symbols, 3)
            param = ArthurParameter((
                term(first, 0), term(first, 1), term(second, 1), term(second, 0), term(third, rng.randrange(2)),
            ))
            counts = Counter()
            for s in param:
                for j2 in range(-(s.b - 1), s.b, 2):
                    for i2 in range(-(s.a - 1), s.a, 2):
                        counts[s.rho.id, s.rho.degree, i2 + j2] += 1
            text = "{" + ", ".join(
                format_twisted(TwistedCuspidal(CuspidalSymbol(rho_id, degree), HalfInt(e)))
                for (rho_id, degree, e), m in sorted(counts.items())
                for _ in range(m)
            ) + "}"
            weighted = sum(e * n * m for (_, n, e), m in counts.items())
            degree = sum(n * m for (_, n, _), m in counts.items())
            classes = {(rho_id, n, e % 2) for rho_id, n, e in counts}
            queries = [
                (TwistedCuspidal(rho, HalfInt(d)), (rho.id, rho.degree, d % 2) in classes)
                for rho in symbols
                for d in (-7, 0, 3, 10)
            ]
            # true on some line, false off the lines, false on the third
            # line's missing parity
            assert [answer for t, answer in queries if t.symbol == third].count(False) == 2
            assert {answer for _, answer in queries} == {True, False}
            cases.append((param, sum(counts.values()), degree, Fraction(weighted, 2 * degree), text, queries))

        def refuse(*args):
            raise AssertionError("a twist was built")

        monkeypatch.setattr("spehcalc.core.HalfInt", refuse)
        monkeypatch.setattr("spehcalc.core.TwistedCuspidal", refuse)
        for param, count, degree, central, text, queries in cases:
            support = csupp_param(param)
            assert (len(support), support.total_degree) == (count, degree)
            assert central_exponent(support, degree) == central == 0
            assert format_support(support) == text
            for t, answer in queries:
                assert in_cuspidal_lines(t, support) == answer
            assert not runs_built(support)


# The value-type contract: the behaviour every caller may rely on, whatever
# the classes are built from.  Each entry is (value, an equal value built
# separately, its fields by name, its repr).
VALUES = [
    (HalfInt(-3), HalfInt(-3), {"doubled": -3}, "HalfInt(doubled=-3)"),
    (CuspidalSymbol("sigma", 2), CuspidalSymbol("sigma", 2), {"id": "sigma", "degree": 2},
     "CuspidalSymbol(id='sigma', degree=2)"),
    (TwistedCuspidal(RHO, HalfInt(5)), TwistedCuspidal(CuspidalSymbol("rho"), HalfInt(5)),
     {"symbol": RHO, "exponent": HalfInt(5)},
     "TwistedCuspidal(symbol=CuspidalSymbol(id='rho', degree=1), exponent=HalfInt(doubled=5))"),
    (SpehDatum(CuspidalSymbol("sigma", 2), 3, 1), SpehDatum(CuspidalSymbol("sigma", 2), 3, 1),
     {"rho": CuspidalSymbol("sigma", 2), "a": 3, "b": 1},
     "SpehDatum(rho=CuspidalSymbol(id='sigma', degree=2), a=3, b=1)"),
]

# The record types: the reprs are those their frozen dataclasses printed.
_R = "CuspidalSymbol(id='rho', degree=1)"
_S = "CuspidalSymbol(id='sigma', degree=1)"
SEG = Segment(RHO, HalfInt(-1), HalfInt(3))
SEG_TEXT = f"Segment(rho={_R}, a=HalfInt(doubled=-1), b=HalfInt(doubled=3))"
JACQUET = (SegmentRep("Z", Segment(RHO, HalfInt(-1), HalfInt(-1))), SegmentRep("Z", Segment(RHO, HalfInt(1), HalfInt(3))))
PAIR = MatchedPair(SpehDatum(RHO, 1, 2), SpehDatum(RHO, 1, 1), MoveFamily.F1)
PAIR_TEXT = (f"MatchedPair(left=SpehDatum(rho={_R}, a=1, b=2), right=SpehDatum(rho={_R}, a=1, b=1), "
             "family=<MoveFamily.F1: 'F1'>)")
SIGMA_PAIR = MatchedPair(SpehDatum(SIGMA, 2, 1), SpehDatum(SIGMA, 2, 2), MoveFamily.F2)
MATCHING = Matching((SIGMA_PAIR, PAIR), (SpehDatum(RHO, 3, 1),), ())
MATCHING_TEXT = (f"Matching(pairs=({PAIR_TEXT}, MatchedPair(left=SpehDatum(rho={_S}, a=2, b=1), "
                 f"right=SpehDatum(rho={_S}, a=2, b=2), family=<MoveFamily.F2: 'F2'>)), "
                 f"dropped_left=(SpehDatum(rho={_R}, a=3, b=1),), dropped_right=())")
VALUES += [
    (ArthurParameter((SpehDatum(SIGMA, 1, 3), SpehDatum(RHO, 2, 1))),
     ArthurParameter((SpehDatum(RHO, 2, 1), SpehDatum(SIGMA, 1, 3))),
     {"terms": (SpehDatum(RHO, 2, 1), SpehDatum(SIGMA, 1, 3))},
     f"ArthurParameter(terms=(SpehDatum(rho={_R}, a=2, b=1), SpehDatum(rho={_S}, a=1, b=3)))"),
    (twists(RHO, 2, 0, 2), twists(RHO, 0, 2, 2),
     {"runs": ((TwistedCuspidal(RHO, HalfInt(0)), 1), (TwistedCuspidal(RHO, HalfInt(2)), 2))},
     f"CuspidalMultiset(runs=((TwistedCuspidal(symbol={_R}, exponent=HalfInt(doubled=0)), 1), "
     f"(TwistedCuspidal(symbol={_R}, exponent=HalfInt(doubled=2)), 2)))"),
    (SEG, Segment(CuspidalSymbol("rho"), HalfInt(-1), HalfInt(3)), {"rho": RHO, "a": HalfInt(-1), "b": HalfInt(3)},
     SEG_TEXT),
    (SegmentRep("Q", SEG), SegmentRep("Q", Segment(RHO, HalfInt(-1), HalfInt(3))), {"kind": "Q", "segment": SEG},
     f"SegmentRep(kind='Q', segment={SEG_TEXT})"),
    (JacquetResult.of(*JACQUET), JacquetResult(JACQUET), {"factors": JACQUET},
     f"JacquetResult(factors=(SegmentRep(kind='Z', segment=Segment(rho={_R}, a=HalfInt(doubled=-1), "
     f"b=HalfInt(doubled=-1))), SegmentRep(kind='Z', segment=Segment(rho={_R}, a=HalfInt(doubled=1), "
     "b=HalfInt(doubled=3)))))"),
    (DiagonalRestriction(((SIGMA, 2), (RHO, 3), (RHO, 1))), DiagonalRestriction(((RHO, 1), (SIGMA, 2), (RHO, 3))),
     {"entries": ((RHO, 1), (RHO, 3), (SIGMA, 2))},
     f"DiagonalRestriction(entries=(({_R}, 1), ({_R}, 3), ({_S}, 2)))"),
    (PAIR, MatchedPair(SpehDatum(RHO, 1, 2), SpehDatum(CuspidalSymbol("rho"), 1, 1), MoveFamily.F1),
     {"left": SpehDatum(RHO, 1, 2), "right": SpehDatum(RHO, 1, 1), "family": MoveFamily.F1}, PAIR_TEXT),
    (MATCHING, Matching((PAIR, SIGMA_PAIR), (SpehDatum(RHO, 3, 1),)),
     {"pairs": (PAIR, SIGMA_PAIR), "dropped_left": (SpehDatum(RHO, 3, 1),), "dropped_right": ()}, MATCHING_TEXT),
    (BranchingVerdict(True, MATCHING, "matcher"), BranchingVerdict(True, Matching((PAIR, SIGMA_PAIR), MATCHING.dropped_left), "matcher"),
     {"nonvanishing": True, "certificate": MATCHING, "decider": "matcher"},
     f"BranchingVerdict(nonvanishing=True, certificate={MATCHING_TEXT}, decider='matcher')"),
    (SourceSpan(3, 7), SourceSpan(3, 7), {"start": 3, "end": 7}, "SourceSpan(start=3, end=7)"),
]
VALUE_IDS = [type(v).__name__ for v, *_ in VALUES]
contract = pytest.mark.parametrize("value,equal,fields,text", VALUES, ids=VALUE_IDS)


class TestValueContract:
    @contract
    def test_equal_values_hash_equal(self, value, equal, fields, text):
        assert value is not equal
        assert value == equal and not value != equal
        assert hash(value) == hash(equal)
        assert {value: 1}[equal] == 1

    @contract
    def test_not_equal_to_fields_or_lookalike(self, value, equal, fields, text):
        values = tuple(fields.values())
        lookalike = dataclasses.make_dataclass(type(value).__name__, list(fields), frozen=True)(**fields)
        assert value != values and values != value
        assert value != lookalike and lookalike != value
        assert len(values) > 1 or value != values[0]

    @contract
    def test_immutable(self, value, equal, fields, text):
        name, field_value = next(iter(fields.items()))
        with pytest.raises(AttributeError):
            setattr(value, name, field_value)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        assert value == equal and getattr(value, name) == field_value

    @contract
    def test_repr(self, value, equal, fields, text):
        assert repr(value) == text

    @contract
    def test_pickle_and_copy_round_trip(self, value, equal, fields, text):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(value, protocol))
            assert type(loaded) is type(value)
            assert loaded == value and hash(loaded) == hash(value)
        for copied in (copy.copy(value), copy.deepcopy(value)):
            assert copied == value and hash(copied) == hash(value)
            assert repr(copied) == text

    def test_constructor_checks(self):
        with pytest.raises(ValueError, match=r"Speh dimensions must be >= 1, got \(0, 2\)"):
            SpehDatum(RHO, 0, 2)
        with pytest.raises(ValueError, match="cuspidal symbol degree must be >= 1, got 0"):
            CuspidalSymbol("rho", 0)
        with pytest.raises(ValueError, match="cuspidal symbol id must be non-empty"):
            CuspidalSymbol("")
        with pytest.raises(ValueError, match=re.escape("segment needs b - a a non-negative integer, got [3/2, 1/2]")):
            Segment(RHO, HalfInt(3), HalfInt(1))
        with pytest.raises(ValueError, match=re.escape("segment needs b - a a non-negative integer, got [0, 1/2]")):
            Segment(RHO, HalfInt(0), HalfInt(1))
        with pytest.raises(ValueError, match="segment representation kind must be 'Z' or 'Q', got 'X'"):
            SegmentRep("X", SEG)
        with pytest.raises(ValueError, match=re.escape(
            f"terms (SpehDatum(rho={_R}, a=1, b=2), SpehDatum(rho={_R}, a=1, b=3)) are not an F1 pair"
        )):
            MatchedPair(SpehDatum(RHO, 1, 2), SpehDatum(RHO, 1, 3), MoveFamily.F1)

    @contract
    def test_refusals_are_frozen_instance_errors(self, value, equal, fields, text):
        name, field_value = next(iter(fields.items()))
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, field_value)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
        with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'not_a_field'$"):
            value.not_a_field = 1

    @contract
    def test_keyword_construction(self, value, equal, fields, text):
        if type(value) is CuspidalMultiset:  # built from its entries, not its runs
            assert CuspidalMultiset(entries=tuple(value)) == value
            assert CuspidalMultiset._of(value.runs) == value
        else:
            assert type(value)(**fields) == value
            assert type(value)(*fields.values()) == value

    @contract
    def test_match_args_are_the_fields(self, value, equal, fields, text):
        assert type(value).__match_args__ == tuple(fields)

    def test_default_construction(self):
        assert Matching() == Matching((), (), ()) == Matching(pairs=(), dropped_left=(), dropped_right=())
        assert repr(Matching()) == "Matching(pairs=(), dropped_left=(), dropped_right=())"
        assert Matching(dropped_right=(SpehDatum(RHO, 2, 1), SpehDatum(RHO, 1, 1))).dropped_right == (
            SpehDatum(RHO, 1, 1), SpehDatum(RHO, 2, 1))
        assert ArthurParameter() == ArthurParameter(terms=()) == ArthurParameter(())
        assert repr(ArthurParameter()) == "ArthurParameter(terms=())"
        assert ArthurParameter(terms=[SpehDatum(SIGMA, 1, 1), SpehDatum(RHO, 1, 1)]).terms == (
            SpehDatum(RHO, 1, 1), SpehDatum(SIGMA, 1, 1))
        assert DiagonalRestriction() == DiagonalRestriction(entries=())
        assert repr(DiagonalRestriction()) == "DiagonalRestriction(entries=())"
        assert CuspidalMultiset() == CuspidalMultiset(()) == CuspidalMultiset._of(())
        assert repr(CuspidalMultiset()) == "CuspidalMultiset(runs=())"
        assert len(CuspidalMultiset()) == 0 and list(CuspidalMultiset()) == []
        assert JacquetResult.zero() == JacquetResult(factors=None) and JacquetResult.zero().is_zero
        assert repr(JacquetResult.zero()) == "JacquetResult(factors=None)"

    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_half_int_ordering(self, x, y):
        a, b = HalfInt(x), HalfInt(y)
        assert (a < b, a <= b, a > b, a >= b) == (x < y, x <= y, x > y, x >= y)
        assert sorted([b, a]) == [HalfInt(d) for d in sorted([y, x])]

    def test_half_int_does_not_order_against_int(self):
        with pytest.raises(TypeError):
            HalfInt(1) < 2

    @pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge])
    @pytest.mark.parametrize("other", [2, RHO], ids=["int", "symbol"])
    def test_half_int_orders_against_no_other_type(self, compare, other):
        for left, right in ((HalfInt(1), other), (other, HalfInt(1))):
            with pytest.raises(TypeError):
                compare(left, right)
