"""Acceptance suite: each test implements one numbered criterion at its
stated sample sizes, tolerances and runtime budgets, and prints one
pass/fail line through the conftest summary hook."""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from spehcalc import (
    ArthurParameter,
    CuspidalMultiset,
    CuspidalSymbol,
    HalfInt,
    HypothesisError,
    Matching,
    MatchedPair,
    MoveFamily,
    Segment,
    SegmentRep,
    SpehDatum,
    TwistedCuspidal,
    az_dual_param,
    central_exponent,
    clebsch_gordan,
    csupp_param,
    csupp_segment,
    diagonal_restriction,
    enumerate_ggp_matchings,
    enumerate_strong_matchings,
    euler_poincare,
    ext_branch_recursive,
    ext_branch_segment_type,
    ggp_relevant,
    hom_branch_arthur,
    jacquet,
    parse_param,
    parse_rep,
    parse_segment,
    parse_support,
    strong_ext_relevant,
    tensor_pair_recovery,
)
from spehcalc.cli import main
from spehcalc.dsl import format_param, format_segment, format_segment_rep, format_support
from spehcalc.relevance import STRONG_FAMILIES
from spehcalc.segments import OPPOSITE, STANDARD
from _gen import (
    random_generic_pair,
    random_pair,
    random_param_bounded,
    random_segment_type_param,
    support_preserving_variant,
)
from _oracles import oracle_matchings

ONE = CuspidalSymbol("one")
RHO = CuspidalSymbol("rho")
CHI = CuspidalSymbol("chi")

TRIV3 = parse_param("triv(3)")
ST2 = parse_param("st(2)")


class _Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def test_c01_trivial3_vs_steinberg2_fixture():
    """criterion 1: trivial(3)/Steinberg(2) fixture

    Strong relevant but not GGP relevant, with exactly one matching and
    it uses F3; decided within 10 ms.
    """
    with _Stopwatch() as watch:
        strong = strong_ext_relevant(TRIV3, ST2)
        relevant = ggp_relevant(TRIV3, ST2)
        matchings = enumerate_strong_matchings(TRIV3, ST2)
    assert strong is True
    assert relevant is False
    assert len(matchings) == 1
    assert [p.family for p in matchings[0].pairs] == [MoveFamily.F3]
    assert watch.elapsed < 0.010


def test_c02_steinberg_vs_trivial_family():
    """criterion 2: Steinberg(n)/trivial(n-1) fixtures for n = 3..12

    Never strong relevant, and the Euler-Poincare value is 0; decided
    within 10 ms total.
    """
    with _Stopwatch() as watch:
        for n in range(3, 13):
            a1 = parse_param(f"st({n})")
            a2 = parse_param(f"triv({n - 1})")
            assert strong_ext_relevant(a1, a2) is False, n
            assert euler_poincare(a1, a2) == 0, n
    assert watch.elapsed < 0.010


def test_c03_non_segment_type_counterexample():
    """criterion 3: the non-segment-type counterexample pair

    u(rho;2,3) against u(rho;3,1) x rho x rho is not strong relevant,
    and the Ext decider rejects the offending term by name; within 10 ms.
    """
    a1 = parse_param("u(rho;2,3)")
    a2 = parse_param("u(rho;3,1) + rho + rho")
    with _Stopwatch() as watch:
        strong = strong_ext_relevant(a1, a2)
        with pytest.raises(HypothesisError) as info:
            ext_branch_segment_type(a1, a2)
    assert strong is False
    assert "u(rho;2,3)" in str(info.value)
    assert watch.elapsed < 0.010


def test_c04_two_matchings_for_gl13_gl12_pair():
    """criterion 4: the GL(13)/GL(12) fixture has exactly two matchings

    They are precisely the Arthur-step one and the dual-step one, with
    the count confirmed by brute force; within 50 ms.
    """
    a1 = parse_param("u(one;1,7) + u(one;5,1) + chi")
    a2 = parse_param("u(one;1,6) + u(one;6,1)")
    with _Stopwatch() as watch:
        matchings = enumerate_strong_matchings(a1, a2)
        brute = oracle_matchings(a1, a2, STRONG_FAMILIES)
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
    assert len(matchings) == 2
    assert set(matchings) == {arthur_step, dual_steps}
    assert brute == set(matchings)
    assert watch.elapsed < 0.050


def test_c05_decider_equivalence():
    """criterion 5: matcher and recursive Ext deciders always agree

    Zero disagreements on 10^4 random segment-type (n, n-1) pairs with
    n <= 30; within 60 s.
    """
    rng = random.Random(202608)
    disagreements = 0
    outcomes = {True: 0, False: 0}
    with _Stopwatch() as watch:
        for _ in range(10_000):
            n = rng.randint(1, 30)
            a1 = random_segment_type_param(rng, n)
            a2 = random_segment_type_param(rng, n - 1)
            matcher = ext_branch_segment_type(a1, a2).nonvanishing
            recursive = ext_branch_recursive(a1, a2)
            disagreements += matcher != recursive
            outcomes[matcher] += 1
    assert disagreements == 0
    assert outcomes[True] > 500 and outcomes[False] > 500
    assert watch.elapsed < 60.0


def _criterion6_pairs(seed: int):
    rng = random.Random(seed)
    return [random_pair(rng) for _ in range(10_000)]


def test_c06a_swap_symmetry():
    """criterion 6a: relevance deciders are symmetric under argument swap

    Checked for both deciders on 10^4 random pairs; within the 60 s
    budget.
    """
    with _Stopwatch() as watch:
        for a1, a2 in _criterion6_pairs(616101):
            assert strong_ext_relevant(a1, a2) == strong_ext_relevant(a2, a1)
            assert ggp_relevant(a1, a2) == ggp_relevant(a2, a1)
    assert watch.elapsed < 15.0


def test_c06b_ggp_implies_strong():
    """criterion 6b: GGP relevance implies strong Ext relevance

    Checked on 10^4 random pairs; within the 60 s budget.
    """
    with _Stopwatch() as watch:
        for a1, a2 in _criterion6_pairs(616102):
            if ggp_relevant(a1, a2):
                assert strong_ext_relevant(a1, a2)
    assert watch.elapsed < 15.0


def test_c06c_duality_covariance():
    """criterion 6c: strong Ext relevance is covariant under duality

    Dualizing both parameters termwise should preserve the verdict, on
    the standard fixtures and 10^4 random pairs.  This property is
    mathematically false: dualizing carries the four allowed move
    families onto the four excluded ones, and the trivial(3)/Steinberg(2)
    fixture maps to the Steinberg(3)/trivial(2) one with the opposite
    verdict.  Kept as stated; expected to fail.
    """
    fixtures = [
        (TRIV3, ST2),
        (parse_param("st(5)"), parse_param("triv(4)")),
        (parse_param("u(rho;2,3)"), parse_param("u(rho;3,1) + rho + rho")),
        (parse_param("u(one;1,7) + u(one;5,1) + chi"), parse_param("u(one;1,6) + u(one;6,1)")),
    ]
    with _Stopwatch() as watch:
        for a1, a2 in fixtures + _criterion6_pairs(616103):
            plain = strong_ext_relevant(a1, a2)
            dualized = strong_ext_relevant(az_dual_param(a1), az_dual_param(a2))
            assert plain == dualized, (
                f"dualizing flips the verdict: {format_param(a1)} / {format_param(a2)} "
                f"is {plain} but the termwise dual pair is {dualized}"
            )
    assert watch.elapsed < 15.0


def test_c06d_ggp_matching_uniqueness():
    """criterion 6d: GGP matchings are unique when they exist

    At most one on each of 10^4 random pairs; within the 60 s budget.
    """
    with _Stopwatch() as watch:
        for a1, a2 in _criterion6_pairs(616104):
            assert len(enumerate_ggp_matchings(a1, a2)) <= 1
    assert watch.elapsed < 15.0


def test_c07_sl2_suite():
    """criterion 7: SL2 suite (dimension conservation, pair recovery, restriction)

    Tensor decomposition conserves dimension and determines the factor
    pair, exhaustively to dimension 20; diagonal restriction equality
    coincides with support equality on 10^4 random pairs; within 30 s.
    """
    with _Stopwatch() as watch:
        table = {}
        for a in range(1, 21):
            for b in range(1, 21):
                dims = clebsch_gordan(a, b)
                assert sum(dims) == a * b
                table[(a, b)] = tuple(sorted(dims))
        for a in range(1, 21):
            for b in range(1, 21):
                for c in range(1, 21):
                    for d in range(1, 21):
                        same = table[(a, b)] == table[(c, d)]
                        assert same == (sorted((a, b)) == sorted((c, d)))
                        assert same == tensor_pair_recovery(a, b, c, d)
        rng = random.Random(77)
        equal_seen = 0
        for _ in range(10_000):
            a1 = random_param_bounded(rng, 30)
            if rng.random() < 0.5:
                a2 = support_preserving_variant(rng, a1)
            else:
                a2 = random_param_bounded(rng, 30)
            same_restriction = diagonal_restriction(a1) == diagonal_restriction(a2)
            assert same_restriction == (csupp_param(a1) == csupp_param(a2))
            equal_seen += same_restriction
        assert equal_seen > 1000
    assert watch.elapsed < 30.0


SIGN_PATTERNS = {
    ("Q", STANDARD): (1, -1),
    ("Q", OPPOSITE): (-1, 1),
    ("Z", STANDARD): (-1, 1),
    ("Z", OPPOSITE): (1, -1),
}


def test_c08_jacquet_suite():
    """criterion 8: Jacquet suite (vanishing, conservation, sign patterns)

    On all centered segments of length <= 10 and cuspidal degrees 1..3,
    Jacquet modules vanish exactly at indivisible splits, conserve degree
    and support, and follow the four sign patterns; within 10 s.
    """
    with _Stopwatch() as watch:
        for degree in (1, 2, 3):
            symbol = CuspidalSymbol("tau", degree)
            for length in range(1, 11):
                segment = Segment(symbol, HalfInt(-(length - 1)), HalfInt(length - 1))
                n = segment.degree
                for l in range(1, n):
                    for kind in ("Z", "Q"):
                        for side in (STANDARD, OPPOSITE):
                            result = jacquet(kind, side, segment, l)
                            assert result.is_zero == (l % degree != 0)
                            if result.is_zero:
                                continue
                            omega1, omega2 = result.factors
                            assert omega1.degree == n - l
                            assert omega2.degree == l
                            support1 = csupp_segment(omega1.segment)
                            support2 = csupp_segment(omega2.segment)
                            assert support1.union(support2) == csupp_segment(segment)
                            sign1, sign2 = SIGN_PATTERNS[(kind, side)]
                            assert central_exponent(support1) * sign1 > 0
                            assert central_exponent(support2) * sign2 > 0
    assert watch.elapsed < 10.0


def test_c09_generic_base():
    """criterion 9: generic pairs always branch

    On 10^3 random generic (n, n-1) pairs, Hom and Ext branching hold
    and the Euler-Poincare value is 1; within 10 s.
    """
    rng = random.Random(99)
    with _Stopwatch() as watch:
        for _ in range(1_000):
            a1, a2 = random_generic_pair(rng)
            assert hom_branch_arthur(a1, a2).nonvanishing
            assert ext_branch_segment_type(a1, a2).nonvanishing
            assert euler_poincare(a1, a2) == 1
    assert watch.elapsed < 10.0


_C10_IDS = ["one", "rho", "sigma", "chi", "tau", "phi_1", "b"]


def _random_symbol(rng):
    name = rng.choice(_C10_IDS)
    degree = 1 if name == "one" else rng.randint(1, 4)
    return CuspidalSymbol(name, degree)


def _random_value(rng):
    kind = rng.randrange(3)
    if kind == 0:
        terms = tuple(
            SpehDatum(_random_symbol(rng), rng.randint(1, 9), rng.randint(1, 9))
            for _ in range(rng.randint(0, 5))
        )
        return ArthurParameter(terms)
    if kind == 1:
        entries = tuple(
            TwistedCuspidal(_random_symbol(rng), HalfInt(rng.randint(-12, 12)))
            for _ in range(rng.randint(0, 6))
        )
        return CuspidalMultiset(entries)
    lo = HalfInt(rng.randint(-12, 12))
    segment = Segment(_random_symbol(rng), lo, lo + rng.randint(0, 9))
    return SegmentRep(rng.choice(("Z", "Q")), segment)


def test_c10_round_trips_and_cli_golden_files(capsys):
    """criterion 10: DSL round trips and byte-exact CLI golden files

    Parse-format identity on 10^4 random values, and the CLI fixtures
    for criteria 1-4 match their golden output and exit codes exactly;
    within 30 s.
    """
    rng = random.Random(1010)
    golden_dir = Path(__file__).parent / "golden"
    exit_codes = json.loads((golden_dir / "exit_codes.json").read_text(encoding="utf-8"))
    cli_fixtures = {
        "ext_triv3_st2": ["ext", "triv(3)", "st(2)"],
        "ext_st5_triv4": ["ext", "st(5)", "triv(4)"],
        "strong_counterexample": ["strong", "u(rho;2,3)", "u(rho;3,1)+rho+rho"],
        "matchings_gl13_gl12": [
            "matchings",
            "u(one;1,7) + u(one;5,1) + chi",
            "u(one;1,6) + u(one;6,1)",
        ],
        "ext_triv3_st2_json": ["ext", "--json", "triv(3)", "st(2)"],
        "strong_counterexample_json": ["strong", "--json", "u(rho;2,3)", "u(rho;3,1)+rho+rho"],
        "matchings_gl13_gl12_json": [
            "matchings",
            "--json",
            "u(one;1,7) + u(one;5,1) + chi",
            "u(one;1,6) + u(one;6,1)",
        ],
    }
    with _Stopwatch() as watch:
        for _ in range(10_000):
            value = _random_value(rng)
            if isinstance(value, ArthurParameter):
                assert parse_param(format_param(value)) == value
            elif isinstance(value, CuspidalMultiset):
                assert parse_support(format_support(value)) == value
            else:
                assert parse_rep(format_segment_rep(value)) == value
                assert parse_segment(format_segment(value.segment)) == value.segment
        for name, argv in cli_fixtures.items():
            code = main(argv)
            out = capsys.readouterr().out
            assert out.encode() == (golden_dir / f"{name}.out").read_bytes(), name
            assert code == exit_codes[name], name
    assert watch.elapsed < 30.0
