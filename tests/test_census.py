"""The census: every (n, n-1) pair of Arthur parameters on the cuspidal
``one``, for each small n, through both relevance verdicts, with the
counts pinned in ``golden/census.json``, and against the brute-force
matcher up to the size the budget allows."""

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
from _gen import every_param
from _oracles import oracle_matchings

CENSUS = json.loads((GOLDEN / "census.json").read_text(encoding="utf-8"))


def census_pairs(n: int) -> list:
    """Every (n, n-1) pair on ``one``; each side's parameters distinct."""
    left, right = every_param(n), every_param(n - 1)
    assert len(set(left)) == len(left) and len(set(right)) == len(right)
    return [(p, q) for p in left for q in right]


def test_census_counts_are_pinned():
    """The numbers of pairs, of GGP-relevant pairs and of strongly
    relevant pairs for n = 2..9 (13 630 pairs at n = 9; both verdicts
    on all 21 124 pairs took 0.45 s on an x86_64 host under CPython
    3.11).  Any change to a verdict moves a count."""
    pinned = CENSUS["one"]
    counts = {"pairs": [], "ggp_relevant": [], "strong_relevant": []}
    for n in pinned["n"]:
        pairs = census_pairs(n)
        counts["pairs"].append(len(pairs))
        counts["ggp_relevant"].append(sum(ggp_relevant(p, q) for p, q in pairs))
        counts["strong_relevant"].append(sum(strong_ext_relevant(p, q) for p, q in pairs))
    assert counts == {key: pinned[key] for key in counts}


def test_census_against_the_oracle():
    """For n = 2..8, every pair (7494 of them, 4888 at n = 8; 2.3-2.9 s on
    an x86_64 host under CPython 3.11, of which n = 8 takes 1.8 s and n = 9
    would add about 6 s): both enumerations equal ``oracle_matchings``'
    sets, no pair has two GGP matchings, and on every segment-type pair
    (5372 of them) the two Ext deciders agree."""
    segment_type = 0
    for n in range(2, 9):
        for p, q in census_pairs(n):
            ggp = enumerate_ggp_matchings(p, q)
            assert set(ggp) == oracle_matchings(p, q, GGP_FAMILIES)
            assert set(enumerate_strong_matchings(p, q)) == oracle_matchings(p, q, STRONG_FAMILIES)
            assert len(ggp) <= 1
            if all(s.a == 1 or s.b == 1 for s in (*p, *q)):
                assert ext_branch_segment_type(p, q).nonvanishing == ext_branch_recursive(p, q)
                segment_type += 1
    assert segment_type == 5372
