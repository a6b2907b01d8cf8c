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
from itertools import combinations_with_replacement

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
    csupp_param,
    csupp_segment,
    csupp_speh,
    in_cuspidal_lines,
    az_dual_param,
    ext_branch_recursive,
    format_param,
    format_term,
    ggp_relevant,
    parse_param,
    same_cuspidal_support,
    strong_ext_relevant,
    whittaker_dim,
)
from spehcalc import core, dsl
from spehcalc.branching import BranchingVerdict, same_group_ext_segment_type
from spehcalc.core import half_range
from spehcalc.dsl import SourceSpan, format_support, format_twisted, parse_support
from spehcalc.relevance import MatchedPair, Matching, MoveFamily
from spehcalc.segments import JacquetResult, Segment, SegmentRep
from spehcalc.sl2 import DiagonalRestriction, diagonal_restriction
from _gen import near_miss_segment_type_pair, random_segment_type_related_pair
from _fixtures import RHO, spell_u_terms
from _oracles import oracle_pieces, oracle_rectangle

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

    def test_range_between_lattices_errors(self):
        assert list(half_range(HalfInt(1), HalfInt(5))) == [HalfInt(1), HalfInt(3), HalfInt(5)]
        with pytest.raises(ValueError) as info:
            list(half_range(HalfInt(0), HalfInt(3)))
        assert str(info.value) == "range endpoints 0, 3/2 differ by a non-integer"

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


def rectangle_twists(terms) -> list[TwistedCuspidal]:
    """The twists of the terms' rectangles (``oracle_rectangle``), one by
    one, term by term: the defining product's twisted square-integrable
    factors nu^j delta_rho(a), each contributing the centered Deligne
    chain of exponents."""
    return [TwistedCuspidal(s.rho, HalfInt(e)) for s in terms for e in oracle_rectangle(s)]


class TestCsupp:
    def test_cuspidal_case(self):
        assert csupp_speh(SpehDatum(RHO, 1, 1)) == twists(RHO, 0)

    def test_single_segment(self):
        assert csupp_speh(SpehDatum(RHO, 2, 1)) == twists(RHO, -1, 1)

    def test_two_by_two_rectangle(self):
        # frozen from the rectangle oracle: product of nu^(1/2) and nu^(-1/2)
        # twists of the length-2 discrete series
        assert csupp_speh(SpehDatum(RHO, 2, 2)) == twists(RHO, -2, 0, 0, 2)

    @pytest.mark.parametrize("a", range(1, 9))
    @pytest.mark.parametrize("b", range(1, 9))
    def test_rectangle_size_symmetry_and_oracle(self, a, b):
        s = SpehDatum(RHO, a, b)
        support = csupp_speh(s)
        assert len(support) == a * b
        assert support == csupp_speh(SpehDatum(RHO, b, a))
        assert support == CuspidalMultiset(rectangle_twists([s]))

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
    over the Clebsch-Gordan pieces of V_a (x) V_b (``oracle_pieces``)."""
    return ArthurParameter(tuple(SpehDatum(rho, 1, d) for rho, d in oracle_pieces(param)))


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
        rectangles = [CuspidalMultiset(rectangle_twists([s])) for s in param]
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
        expected = csupp_param(param) == csupp_param(other)
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


class TestSameSupportByRectangles:
    def test_same_support_is_equality_of_the_rectangles(self):
        """same_cuspidal_support agrees with comparing the twists of the
        rectangles one by one.  The left sides have one to five terms over
        four lines with a, b up to 12, of both parities of a + b, a third
        of them square (where a term's two inner corners meet at doubled
        exponent 2).  Half of the right sides rewrite the left without
        changing its support, into its dual or its Clebsch-Gordan split;
        the other half then drop a term, move one to another line or
        widen one by a column."""
        rng = random.Random(18)

        def draw():
            terms = []
            for _ in range(rng.randint(1, 5)):
                a = rng.randint(1, 12)
                b = a if rng.random() < 1 / 3 else rng.randint(1, 12)
                terms.append(SpehDatum(rng.choice(LARGE_SYMBOLS), a, b))
            return ArthurParameter(tuple(terms))

        def rectangles(param):
            return Counter(rectangle_twists(param))

        outcomes, parities, squares = Counter(), set(), 0
        for i in range(400):
            p = draw()
            q = az_dual_param(p) if rng.random() < 0.5 else clebsch_gordan_split(p)
            if i % 2:
                terms = list(q.terms)
                j = rng.randrange(len(terms))
                s = terms[j]
                roll = rng.randrange(3)
                if roll == 0:
                    terms.pop(j)
                elif roll == 1:
                    terms[j] = SpehDatum(rng.choice(LARGE_SYMBOLS), s.a, s.b)
                else:
                    terms[j] = SpehDatum(s.rho, s.a, s.b + 1)
                q = ArthurParameter(tuple(terms))
            expected = rectangles(p) == rectangles(q)
            assert same_cuspidal_support(p, q) == same_cuspidal_support(q, p) == expected
            outcomes[i % 2, expected] += 1
            parities |= {(s.a + s.b) % 2 for s in p}
            squares += sum(s.a == s.b for s in p)
        assert outcomes[0, True] == 200 and outcomes[1, False] > 150
        assert parities == {0, 1} and squares > 100


def spelled_twist(symbol: CuspidalSymbol, doubled: int) -> str:
    """The canonical text of one twist, spelled here apart from dsl."""
    name = symbol.id if symbol.degree == 1 else f"{symbol.id}:{symbol.degree}"
    if doubled == 0:
        return name
    return f"nu^{doubled // 2} {name}" if doubled % 2 == 0 else f"nu^({doubled}/2) {name}"


class TestSupportsExhaustively:
    @pytest.mark.parametrize("symbols,largest,sizes", [((RHO,), 5, (3276, 654)),
                                                       ((RHO, CuspidalSymbol("tau", 2)), 3, (1330, 429))],
                             ids=["one_line", "two_lines"])
    def test_every_small_parameter(self, symbols, largest, sizes):
        """Every parameter of at most 3 terms with a, b <= largest over
        the symbols, checked against its rectangles of twists counted one
        by one: csupp_param, its len and its text, and
        same_cuspidal_support on every pair of distinct supports and
        between every parameter and one of equal support.  The sizes:
        3276 parameters on the line of rho with a, b <= 5 (654 distinct
        supports), and 1330 on rho and tau of degree 2 with a, b <= 3
        (429 supports).
        Each set includes lines whose ends have both parities, so both
        parity classes of the support kernel run."""
        types = [SpehDatum(rho, a, b) for rho in symbols for a in range(1, largest + 1)
                 for b in range(1, largest + 1)]
        by_support: dict[tuple, list[ArthurParameter]] = {}
        mixed = 0
        for k in range(4):
            for terms in combinations_with_replacement(types, k):
                param = ArthurParameter(terms)
                counts = Counter((s.rho.sort_key, e) for s in terms for e in oracle_rectangle(s))
                twist_list = sorted(counts.items())
                text = ", ".join(spelled_twist(CuspidalSymbol(*key), e) for (key, e), m in twist_list
                                 for _ in range(m))
                support = csupp_param(param)
                assert format_support(support) == "{" + text + "}"
                assert len(support) == sum(counts.values())
                mixed += any(len({(s.a + s.b) % 2 for s in terms if s.rho == rho}) == 2 for rho in symbols)
                by_support.setdefault(tuple(twist_list), []).append(param)
        assert mixed > 100
        first = [params[0] for params in by_support.values()]
        for params in by_support.values():
            for param in params:
                assert same_cuspidal_support(params[0], param)
        for i, p in enumerate(first):
            for q in first[i + 1:]:
                assert not same_cuspidal_support(p, q)
        assert (sum(map(len, by_support.values())), len(by_support)) == sizes


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


class _ParentSupportPickle:
    """Pickles as a support did when it was stored as its runs: the
    classmethod ``CuspidalMultiset._of`` called on the canonical runs."""

    def __init__(self, runs):
        self.runs = runs

    def __reduce__(self):
        return CuspidalMultiset._of, (self.runs,)


class TestSupportLines:
    @settings(max_examples=40, deadline=None)
    @given(small_params(), st.lists(uncentered_segments(), min_size=1, max_size=4),
           st.randoms(use_true_random=False))
    def test_every_construction_gives_one_value(self, param, segments, rng):
        """Supports built every way from the same twists are the same
        value: equal, with equal hashes, reprs and runs, and with the
        summaries of the twists one by one.  The ways include pickle at
        every protocol, and the form pickles had when supports were stored
        as their runs."""
        expanded = rectangle_twists(param)
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
            values.append(pickle.loads(pickle.dumps(_ParentSupportPickle(first.runs), protocol)))
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
        eager = CuspidalMultiset(rectangle_twists(param))
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
                for e in oracle_rectangle(s):
                    counts[s.rho.id, s.rho.degree, e] += 1
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


def terms_built(param: ArthurParameter) -> bool:
    """True once param's ``terms`` has been read (the slot's own reader,
    which does not build them)."""
    try:
        ArthurParameter.__dict__["terms"].__get__(param)
    except AttributeError:
        return False
    return True


def ends_kept(param: ArthurParameter) -> bool:
    """True once param's restriction ends have been walked and kept (the
    slot's own reader, which does not walk them)."""
    try:
        ArthurParameter.__dict__["_ends"].__get__(param)
    except AttributeError:
        return False
    return True


class _ParentParameterPickle:
    """Pickles as a parameter did when it was stored as its terms: the
    class called on the sorted term tuple."""

    def __init__(self, terms):
        self.terms = terms

    def __reduce__(self):
        return ArthurParameter, (self.terms,)


PARAMETER_SYMBOLS = (CuspidalSymbol("one"), RHO, SIGMA, CuspidalSymbol("tau", 2), CuspidalSymbol("rho", 3))


def spelled_symbol(rho: CuspidalSymbol, rng: random.Random) -> str:
    """rho's id with its degree written in one of the ways the grammar
    allows: none or 1 or 01 for degree 1, with or without a leading zero
    otherwise."""
    if rho.degree == 1:
        return rho.id + rng.choice(("", ":1", ":01"))
    return f"{rho.id}:{rng.choice(('', '0'))}{rho.degree}"


def spelled_term(s: SpehDatum, rng: random.Random) -> str:
    """s as a u-term, or as triv, st, a centred Z or Q segment or a bare
    symbol where the grammar allows it."""
    sym = spelled_symbol(s.rho, rng)
    options = [f"u({sym};{s.a},{s.b})"]
    if s.rho.id == "one" and s.a == 1:
        options.append(f"triv({s.b})")
    if s.rho.id == "one" and s.b == 1:
        options.append(f"st({s.a})")
    if s.a == 1 or s.b == 1:
        n = s.a * s.b
        ends = f"{(1 - n) // 2}..{(n - 1) // 2}" if n % 2 else f"{1 - n}/2..{n - 1}/2"
        kinds = ("Z", "Q") if n == 1 else ("Z",) if s.a == 1 else ("Q",)
        options += [f"{kind}[{ends}]{{{sym}}}" for kind in kinds]
    if s.a == s.b == 1:
        options.append(sym)
    return rng.choice(options)


class TestParameterLines:
    """A parameter is stored per cuspidal line: per symbol, the distinct
    (a, b) of its terms and their copies.  It must behave as the sorted
    tuple of its terms, whichever way it was built."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.builds(SpehDatum, st.sampled_from(PARAMETER_SYMBOLS), st.integers(1, 5),
                              st.integers(1, 5)), max_size=12),
           st.randoms(use_true_random=False))
    def test_every_construction_gives_one_value(self, terms, rng):
        """Built from its terms in any order, from its text on the
        whole-text path and on the plain token stream (every spelling of
        every term and degree), through the dual twice, through pickle at
        every protocol and in the form pickles had when parameters were
        stored as their terms, and by copy: one value, with one hash,
        repr, term tuple and text."""
        ordered = tuple(sorted(terms, key=lambda s: s.sort_key))
        shuffled = list(terms)
        rng.shuffle(shuffled)
        first = ArthurParameter(terms)
        u_text = spell_u_terms(shuffled, rng) if terms else "0"
        plain_text = " + ".join(spelled_term(s, rng) for s in shuffled) if terms else "0"
        values = [
            first,
            ArthurParameter(shuffled),
            ArthurParameter(terms=iter(shuffled)),
            parse_param(format_param(first)),
            parse_param(u_text),
            parse_param(plain_text),
            dsl._Parser(u_text).parse_param(),
            az_dual_param(az_dual_param(first)),
            copy.copy(first),
            copy.deepcopy(first),
        ]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            values.append(pickle.loads(pickle.dumps(ArthurParameter(terms), protocol)))
            values.append(pickle.loads(pickle.dumps(_ParentParameterPickle(ordered), protocol)))
        text = f"ArthurParameter(terms={ordered!r})"
        canonical = " + ".join(format_term(s) for s in ordered) or "0"
        for value in values:
            assert type(value) is ArthurParameter
            assert value == first and first == value and not value != first
            assert hash(value) == hash(first) and {first: 1}[value] == 1
            assert format_param(value) == canonical
            assert (len(value), value.dim) == (len(ordered), sum(s.degree for s in ordered))
            assert repr(value) == text
            assert value.terms == ordered and tuple(value) == ordered

    def test_unread_terms_behave_as_built_from_terms(self):
        """A parsed parameter whose terms were never read compares,
        hashes, pickles, copies and prints as the one built from its
        terms, and only printing it builds them."""
        terms = (SpehDatum(RHO, 2, 3), SpehDatum(RHO, 2, 3), SpehDatum(SIGMA, 1, 4), SpehDatum(RHO, 1, 1))
        eager = ArthurParameter(terms)
        assert eager.terms is not None and terms_built(eager)
        parsed = parse_param("u(sigma;1,4) + u(rho;2,3) x u(rho:01;02,3) + rho")
        assert not terms_built(parsed)
        assert parsed == eager and hash(parsed) == hash(eager) and (len(parsed), parsed.dim) == (4, 17)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(parsed, protocol) == pickle.dumps(eager, protocol)
            loaded = pickle.loads(pickle.dumps(parsed, protocol))
            assert loaded == eager and not terms_built(loaded)
        for copied in (copy.copy(parsed), copy.deepcopy(parsed)):
            assert copied == eager and not terms_built(copied)
        assert not terms_built(parsed)
        assert repr(parsed) == repr(eager)
        assert terms_built(parsed) and parsed.terms == eager.terms
        with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'terms'$"):
            parsed.terms = ()

    def test_kept_ends_walk_each_parameter_once(self, monkeypatch):
        """One support operation's calls on p and q, as the support
        benchmark makes them, walk each parameter's terms once: the walk
        is counted by parameter, and repeating the calls walks neither
        again."""
        walked = Counter()
        walk = core._restriction_lines

        def counted(param):
            walked[id(param)] += 1
            return walk(param)

        monkeypatch.setattr(core, "_restriction_lines", counted)
        p = parse_param("u(rho;1,7) + u(rho;1,5) + u(rho;1,1) + u(sigma:2;1,4)")
        q = parse_param("u(rho;7,1) + u(rho;1,5) + u(rho;1,1) + u(sigma:2;4,1)")
        for _ in range(2):
            assert same_cuspidal_support(p, q) and same_group_ext_segment_type(p, q)
            support = csupp_param(p)
            restriction = diagonal_restriction(p)
            assert csupp_param(q) == support and diagonal_restriction(q) == restriction
        assert walked == {id(p): 1, id(q): 1}

    def test_kept_ends_are_invisible(self):
        """A parameter whose ends were read pickles byte-identically at
        every protocol, prints, compares, hashes and copies as an equal
        parameter whose ends were never read; its class's slots and match
        arguments are unchanged, and a copy or an unpickled value carries
        no ends."""
        text = "u(rho;3,5) + u(rho;2,4) + u(sigma:2;1,4) + u(sigma:2;4,1)"
        read, fresh = parse_param(text), parse_param(text)
        csupp_param(read)
        assert ends_kept(read) and not ends_kept(fresh)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(read, protocol) == pickle.dumps(fresh, protocol)
            assert not ends_kept(pickle.loads(pickle.dumps(read, protocol)))
        assert repr(read) == repr(fresh)
        assert read == fresh and hash(read) == hash(fresh) and {fresh: 1}[read] == 1
        for copied in (copy.copy(read), copy.deepcopy(read)):
            assert copied == fresh and repr(copied) == repr(fresh) and not ends_kept(copied)
        assert (type(read).__slots__, type(read).__match_args__) == (("terms", "_ends"), ("terms",))
        assert read.__reduce__() == fresh.__reduce__()
        assert ends_kept(read) and not ends_kept(fresh)
        with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field '_ends'$"):
            read._ends = ()

    def test_deciders_build_no_speh_datum(self, monkeypatch):
        """On large canonical texts over four cuspidal lines, parsing, both
        relevance verdicts, the recursive Ext decider, the same-support
        verdict, the support, the Whittaker dimension, the text, the
        length and the dimension all answer with Speh data made
        impossible to build, and leave the terms unbuilt."""
        symbols = (CuspidalSymbol("one"), RHO, CuspidalSymbol("sigma", 2), CuspidalSymbol("tau", 3))
        rng = random.Random(19)
        cases = []
        for pairs, broken in ((300, False), (400, True), (250, False)):
            a1, a2 = random_segment_type_related_pair(rng, pairs, symbols)
            if broken:  # the first near miss that no matching absorbs
                a1, a2 = next(pair for pair in (near_miss_segment_type_pair(rng, pairs, symbols) for _ in range(50))
                              if not ext_branch_recursive(*pair))
            assert len({s.rho for s in a1}) == 4 and len(a1) + len(a2) > pairs
            answers = (
                ggp_relevant(a1, a2), strong_ext_relevant(a1, a2), ext_branch_recursive(a1, a2),
                same_cuspidal_support(a1, az_dual_param(a1)), same_cuspidal_support(a1, a2),
                csupp_param(a1), whittaker_dim(a1), whittaker_dim(az_dual_param(a1)),
                (len(a1), len(a2), a1.dim, a2.dim),
            )
            cases.append((format_param(a1), format_param(a2), answers))
        assert {answers[2] for *_, answers in cases} == {True, False}

        def refuse(*args, **kwargs):
            raise AssertionError("a Speh datum was built")

        monkeypatch.setattr(SpehDatum, "__init__", refuse)
        for text1, text2, answers in cases:
            a1, a2 = parse_param(text1), parse_param(text2)
            assert (
                ggp_relevant(a1, a2), strong_ext_relevant(a1, a2), ext_branch_recursive(a1, a2),
                same_cuspidal_support(a1, az_dual_param(a1)), same_cuspidal_support(a1, a2),
                csupp_param(a1), whittaker_dim(a1), whittaker_dim(az_dual_param(a1)),
                (len(a1), len(a2), a1.dim, a2.dim),
            ) == answers
            assert (format_param(a1), format_param(a2)) == (text1, text2)
            assert not terms_built(a1) and not terms_built(a2)


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


# Certificates for the properties below: terms on a few lines, pairs under
# any family that joins them (all four join every term of Arthur
# dimension > 1, F2 and F4 every term).
speh_terms = st.builds(SpehDatum, st.sampled_from(LARGE_SYMBOLS), st.integers(1, 4), st.integers(1, 4))
matched_pairs = st.tuples(speh_terms, st.sampled_from(MoveFamily)).filter(
    lambda t: t[1].partner(t[0]) is not None
).map(lambda t: MatchedPair(t[0], t[1].partner(t[0]), t[1]))


class _Reduced:
    """Pickles as the given ``(callable, args)``: the form a pickle written
    by an earlier version of the value types has."""

    def __init__(self, reduced: tuple) -> None:
        self.reduced = reduced

    def __reduce__(self) -> tuple:
        return self.reduced


def assert_same_copies(value, reduced: tuple) -> None:
    """Pickle at every protocol, ``copy``, ``deepcopy`` and a pickle of
    ``reduced`` all give values equal to ``value``, with its hash and key."""
    copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(_Reduced(reduced)))]
    for other in copies:
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value) and other.sort_key == value.sort_key


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

    def test_field_writer_refuses_a_wrong_count(self):
        """``_Record._set`` writes one value per slot and refuses any other count."""
        span = object.__new__(SourceSpan)
        for values, message in (((1,), "shorter"), ((1, 2, 3), "longer")):
            with pytest.raises(ValueError, match=f"^zip\\(\\) argument 2 is {message} than argument 1$"):
                span._set(*values)
        span._set(1, 2)
        assert span == SourceSpan(1, 2)

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

    @given(matched_pairs)
    def test_matched_pair_is_keyed_once(self, pair):
        left, right = (SpehDatum(CuspidalSymbol(s.rho.id, s.rho.degree), s.a, s.b) for s in (pair.left, pair.right))
        again = MatchedPair(left, right, pair.family)
        assert again == pair and hash(again) == hash(pair) and again.sort_key == pair.sort_key
        assert pair.sort_key == (pair.left.sort_key, pair.family.value, pair.right.sort_key)
        assert pair.__reduce__() == (MatchedPair, (pair.left, pair.right, pair.family))
        assert_same_copies(pair, (MatchedPair, (left, right, pair.family)))

    @given(st.lists(matched_pairs, max_size=6), st.lists(speh_terms, max_size=3),
           st.lists(speh_terms, max_size=3), st.randoms(use_true_random=False))
    def test_matching_is_keyed_once_whatever_the_order(self, pairs, dropped_left, dropped_right, rng):
        matching = Matching(pairs, dropped_left, dropped_right)
        fields = [rng.sample(field, len(field)) for field in (pairs, dropped_left, dropped_right)]
        again = Matching(*fields)
        assert again == matching and hash(again) == hash(matching) and again.sort_key == matching.sort_key
        assert matching.sort_key == tuple(
            tuple(v.sort_key for v in field) for field in (matching.pairs, matching.dropped_left, matching.dropped_right)
        )
        assert matching.__reduce__() == (Matching, (matching.pairs, matching.dropped_left, matching.dropped_right))
        assert_same_copies(matching, (Matching, tuple(map(tuple, fields))))
        # equal exactly when the sorted pairs and drops are, as before
        other = Matching(pairs[:rng.randint(0, len(pairs))], dropped_left, dropped_right)
        assert (other == matching) == (other._fields() == matching._fields())
