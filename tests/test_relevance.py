"""Tests for the matching deciders and enumerators."""

from __future__ import annotations

import hashlib
import json
import random
import re
import tracemalloc
from functools import partial
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
from _fixtures import CHI, GL13_GL12_MATCHINGS, GOLDEN, ONE, RHO, ST2, TRIV3, param


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
        assert set(matchings) == set(GL13_GL12_MATCHINGS)
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
        golden = GOLDEN / "copies_2_strong_json.out"
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
FIRST_MATCHINGS = json.loads((GOLDEN / "first_matchings.json").read_text(encoding="utf-8"))
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


def matcher_results(seeds: int) -> dict:
    """``find_matching`` and ``enumerate_matchings`` under both family
    sets on four pairs a seed and a generating family set: a
    ``random_related_pair``, a ``random_pair``, a ``near_miss_pair`` and a
    ``random_related_pair`` of up to 10 terms of dimensions up to 3.  The
    counts of decisions, of true ones and of matchings, and a digest of
    every result's repr, in order."""
    lines, found, matchings = [], 0, 0
    for generating in FAMILY_SETS.values():
        for seed in range(seeds):
            pairs = (
                random_related_pair(random.Random(seed), generating),
                random_pair(random.Random(seed), families=generating),
                near_miss_pair(random.Random(seed), generating),
                random_related_pair(random.Random(seed), generating, max_terms=10, max_dim=3),
            )
            for a1, a2 in pairs:
                for families in FAMILY_SETS.values():
                    first, every = find_matching(a1, a2, families), enumerate_matchings(a1, a2, families)
                    found += first is not None
                    matchings += len(every)
                    lines += [repr(first), repr(every)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {"seeds": seeds, "decisions": len(lines) // 2, "found": found,
            "matchings": matchings, "sha256": digest}


def test_matcher_results_match_their_digest():
    """Seeds 0-299: 4800 decisions, 3038 of them true, with 5928
    matchings, at most 48 for one pair.  The digest was taken before
    ``MoveFamily.compatible`` stopped reading the search's partner table;
    any change to a verdict, a certificate or the order of an
    enumeration moves it."""
    golden = Path(__file__).parent / "golden" / "matcher_results.json"
    assert matcher_results(300) == json.loads(golden.read_text(encoding="utf-8"))


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


@pytest.mark.parametrize("name", ["omega", "tau"])
def test_one_sided_lines_refute_before_any_shared_line(monkeypatch, name):
    """A relevant pair on three lines, all of them shared, plus one line
    that one side alone holds with a term of Arthur dimension 2: every
    verdict, certificate and enumeration builds the one-sided line's
    network first and stops there, so exactly one ``_Line`` is built per
    call, and on the right side's line no path is searched.  The
    one-sided line's symbol sorts before every shared line (``omega``) or
    after them all (``tau``)."""
    a1, a2 = random_related_pair(random.Random(0), GGP_FAMILIES, 12, 5, SYMBOLS)
    assert [line[0] for line in a1._lines] == [line[0] for line in a2._lines] == list(SYMBOLS)
    builds, searches = [], []
    build, search = relevance._Line, relevance._residual_path
    monkeypatch.setattr(relevance, "_Line", lambda *args: builds.append(1) or build(*args))
    monkeypatch.setattr(relevance, "_residual_path", lambda *args: searches.append(1) or search(*args))
    calls = [ggp_relevant, strong_ext_relevant]
    calls += [partial(certify, families=families) for certify in (find_matching, enumerate_matchings)
              for families in (GGP_FAMILIES, STRONG_FAMILIES)]
    for call in calls:
        assert call(a1, a2)
        assert len(builds) == 3
        builds.clear()
    symbol = CuspidalSymbol(name)
    right_only = ArthurParameter((*a2.terms, SpehDatum(symbol, 1, 2)))
    left_only = ArthurParameter((*a1.terms, SpehDatum(symbol, 2, 2)))
    for call in calls:
        searches.clear()
        assert not call(a1, right_only)
        assert len(builds) == 1 and not searches
        builds.clear()
        assert not call(left_only, a2)
        assert len(builds) == 1
        builds.clear()


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

    def test_validate_messages(self):
        """Each of the three checks, reconstruction, family and drop rule,
        still raises its own message: a wrong copy count, a pair under
        the wrong family (only built around the constructor, which
        refuses it, its key frozen as the constructor would) and a
        dropped term of Arthur dimension 2."""
        left, right = SpehDatum(RHO, 1, 3), SpehDatum(RHO, 1, 2)
        pair = MatchedPair(left, right, MoveFamily.F1)
        wrong = object.__new__(MatchedPair)
        for set_field, value in zip(MatchedPair._setters, (left, right, MoveFamily.F2)):
            set_field(wrong, value)
        wrong._freeze((left.sort_key, MoveFamily.F2.value, right.sort_key))
        cases = [
            (Matching((pair, pair)), param((RHO, 1, 3)), param((RHO, 1, 2)),
             "matching does not reconstruct the parameter pair"),
            (Matching((pair,)), param((RHO, 1, 3), (RHO, 1, 3)), param((RHO, 1, 2)),
             "matching does not reconstruct the parameter pair"),
            (Matching((pair,), (), (SpehDatum(CHI, 1, 1),)), param((RHO, 1, 3)), param((RHO, 1, 2)),
             "matching does not reconstruct the parameter pair"),
            (Matching((wrong,)), param((RHO, 1, 3)), param((RHO, 1, 2)), f"pair {wrong} violates family F2"),
            (Matching((pair,), (SpehDatum(CHI, 1, 2),)), param((RHO, 1, 3), (CHI, 1, 2)), param((RHO, 1, 2)),
             "dropped term has Arthur dimension 2 > 1"),
        ]
        for matching, a1, a2, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                matching.validate(a1, a2)
        Matching((pair,), (SpehDatum(CHI, 1, 1),)).validate(param((RHO, 1, 3), (CHI, 1, 1)), param((RHO, 1, 2)))

    def test_validate_checks_the_family_set(self):
        """The F3 certificate of trivial(3)/Steinberg(2) is a strong
        certificate, not a Hom one: it validates under the four families,
        as by default, and fails under F1 and F2 with its own message."""
        certificate = find_matching(TRIV3, ST2, STRONG_FAMILIES)
        certificate.validate(TRIV3, ST2)
        certificate.validate(TRIV3, ST2, STRONG_FAMILIES)
        (pair,) = certificate.pairs
        with pytest.raises(ValueError, match=f"^{re.escape(f'pair {pair} uses family F3, not one of F1, F2')}$"):
            certificate.validate(TRIV3, ST2, GGP_FAMILIES)

    def test_validate_tells_degrees_apart(self):
        """One symbol id at two degrees names two cuspidal lines: a
        matching on the other line's terms does not reconstruct the pair."""
        rho2 = CuspidalSymbol(RHO.id, 2)
        for mine, other in ((RHO, rho2), (rho2, RHO)):
            pair = MatchedPair(SpehDatum(mine, 1, 3), SpehDatum(mine, 1, 2), MoveFamily.F1)
            matching = Matching((pair,), (SpehDatum(mine, 2, 1),))
            matching.validate(param((mine, 1, 3), (mine, 2, 1)), param((mine, 1, 2)))
            with pytest.raises(ValueError, match="^matching does not reconstruct the parameter pair$"):
                matching.validate(param((other, 1, 3), (other, 2, 1)), param((other, 1, 2)))


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
