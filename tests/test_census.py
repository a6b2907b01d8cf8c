"""The census: every (n, n-1) pair of Arthur parameters on the cuspidal
``one``, and on the two cuspidals ``one`` and ``rho``, for each small n,
through both relevance verdicts, with the counts pinned in
``golden/census.json``, and against the brute-force matcher up to the
size the budget allows.  About half of the two-cuspidal pairs have a
line that one side alone occupies, so they test both outcomes of the
one-sided lines the matcher builds first."""

from __future__ import annotations

import json

from spehcalc import (
    enumerate_ggp_matchings,
    enumerate_strong_matchings,
    ext_branch_recursive,
    ext_branch_segment_type,
    ggp_relevant,
    strong_ext_relevant,
)
from spehcalc.relevance import GGP_FAMILIES, STRONG_FAMILIES
from _fixtures import GOLDEN
from _gen import SYMBOLS, every_param
from _oracles import oracle_matchings

CENSUS = json.loads((GOLDEN / "census.json").read_text(encoding="utf-8"))


def census_pairs(n: int, symbols=SYMBOLS[:1]) -> list:
    """Every (n, n-1) pair over the symbols; each side's parameters
    distinct."""
    left, right = every_param(n, symbols), every_param(n - 1, symbols)
    assert len(set(left)) == len(left) and len(set(right)) == len(right)
    return [(p, q) for p in left for q in right]


def check_counts(name: str, symbols) -> None:
    """The census ``name`` of ``golden/census.json``, over the symbols:
    its numbers of pairs, of GGP-relevant pairs and of strongly relevant
    pairs for each of its n."""
    pinned = CENSUS[name]
    counts = {"pairs": [], "ggp_relevant": [], "strong_relevant": []}
    for n in pinned["n"]:
        pairs = census_pairs(n, symbols)
        counts["pairs"].append(len(pairs))
        counts["ggp_relevant"].append(sum(ggp_relevant(p, q) for p, q in pairs))
        counts["strong_relevant"].append(sum(strong_ext_relevant(p, q) for p, q in pairs))
    assert counts == {key: pinned[key] for key in counts}


def check_against_the_oracle(top: int, symbols) -> int:
    """For n = 2..top over the symbols, every pair: both enumerations
    equal ``oracle_matchings``' sets, no pair has two GGP matchings, and on
    every segment-type pair the two Ext deciders agree.  Returns the number
    of segment-type pairs."""
    segment_type = 0
    for n in range(2, top + 1):
        for p, q in census_pairs(n, symbols):
            ggp = enumerate_ggp_matchings(p, q)
            assert set(ggp) == oracle_matchings(p, q, GGP_FAMILIES)
            assert set(enumerate_strong_matchings(p, q)) == oracle_matchings(p, q, STRONG_FAMILIES)
            assert len(ggp) <= 1
            if all(s.a == 1 or s.b == 1 for s in (*p, *q)):
                assert ext_branch_segment_type(p, q).nonvanishing == ext_branch_recursive(p, q)
                segment_type += 1
    return segment_type


def test_census_counts_are_pinned():
    """On ``one``, for n = 2..9 (13 630 pairs at n = 9; both verdicts on
    all 21 124 pairs took 0.45 s on an x86_64 host under CPython 3.11).
    Any change to a verdict moves a count."""
    check_counts("one", SYMBOLS[:1])


def test_census_against_the_oracle():
    """On ``one``, for n = 2..8 (7494 pairs, 4888 at n = 8; 2.3-2.9 s on
    an x86_64 host under CPython 3.11, of which n = 8 takes 1.8 s and n = 9
    would add about 6 s), with 5372 segment-type pairs."""
    assert check_against_the_oracle(8, SYMBOLS[:1]) == 5372


def test_two_cuspidal_census_counts_are_pinned():
    """On ``one`` and ``rho``, for n = 2..7 (74 112 pairs at n = 7; both
    verdicts on all 95 018 pairs, 47 198 of them with a one-sided line,
    took 2.4-3.4 s on an x86_64 host under CPython 3.11)."""
    check_counts("one+rho", SYMBOLS[:2])


def test_two_cuspidal_census_against_the_oracle():
    """On ``one`` and ``rho``, for n = 2..5 (4308 pairs, 3526 at n = 5;
    0.8 s on an x86_64 host under CPython 3.11), with 3948 segment-type
    pairs."""
    assert check_against_the_oracle(5, SYMBOLS[:2]) == 3948
