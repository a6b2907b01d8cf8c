"""Tests of the benchmark's own references and generators against brute
force on small inputs.  They import nothing from spehcalc.

    python3 -m pytest -q bench/test_check.py
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

import check
import gen
from check import GGP, STRONG


def small_pairs(seed: int, count: int):
    rng = random.Random(seed)
    names = [("rho", 1), ("sigma", 2)]
    for _ in range(count):
        if rng.random() < 0.5:
            left, right = gen.matched_pair(rng, rng.randint(0, 3), rng.randint(0, 2), STRONG,
                                           False, max_dim=3, cuspidals=names)
        else:
            left = [(*rng.choice(names), rng.randint(1, 3), rng.randint(1, 3))
                    for _ in range(rng.randint(0, 4))]
            right = [(*rng.choice(names), rng.randint(1, 3), rng.randint(1, 3))
                     for _ in range(rng.randint(0, 4))]
        yield left, right


def as_json(matching: tuple) -> dict:
    pairs, drops, rest = matching

    def term(t):
        return {"rho": {"id": t[0], "degree": t[1]}, "deligne": t[2], "arthur": t[3]}

    return {"pairs": [{"left": term(l), "right": term(r), "family": f} for l, f, r in pairs],
            "dropped_left": [term(t) for t in drops], "dropped_right": [term(t) for t in rest]}


@pytest.mark.parametrize("families", [STRONG, GGP])
def test_relevance_matches_brute_force(families):
    for left, right in small_pairs(1, 600):
        assert check.relevant(left, right, families) == bool(
            check.brute_matchings(left, right, families))


def test_certificates_of_brute_force_matchings_pass_and_mutants_fail():
    checked = 0
    for left, right in small_pairs(2, 300):
        for m in check.brute_matchings(left, right, STRONG):
            cert = as_json(m)
            check.check_certificate(cert, left, right, STRONG)
            assert check.certificate_key(cert) == m
            checked += 1
            if cert["pairs"]:
                wrong = dict(cert, pairs=[dict(cert["pairs"][0], family="F9")] + cert["pairs"][1:])
                with pytest.raises((check.CheckFailed, ValueError)):
                    check.check_certificate(wrong, left, right, STRONG)
                short = dict(cert, pairs=cert["pairs"][1:])
                with pytest.raises(check.CheckFailed):
                    check.check_certificate(short, left, right, STRONG)
    assert checked > 100


def test_drop_rule_rejects_arthur_dimension_two():
    left = [("rho", 1, 1, 2)]
    cert = {"pairs": [], "dropped_left": [as_json(((), (left[0],), ()))["dropped_left"][0]],
            "dropped_right": []}
    with pytest.raises(check.CheckFailed):
        check.check_certificate(cert, left, [], STRONG)


@pytest.mark.parametrize("ks", [[1], [2], [3], [1, 1], [2, 1], [1, 1, 1]])
def test_copies_family_closed_form(ks):
    copies = {(f"r{i}", 1 + i % 2): k for i, k in enumerate(ks)}
    left, right = gen.copies_family(copies)
    left.append(("pad", 1, 2, 1))  # droppable, on a cuspidal the right side lacks
    assert len(check.brute_matchings(left, right, STRONG)) == check.copies_family_count(copies)
    assert len(check.brute_matchings(left, right, GGP)) == 1


def test_generated_families_have_the_closed_form_count():
    rng = random.Random(3)
    for ks, _ in gen.ENUM_FAMILIES:
        if sum(ks) <= 3:
            op = gen.family_op(rng, ks)
            want = check.copies_family_count(dict(enumerate(op["copies"])))
            assert len(check.brute_matchings(op["left"], op["right"], STRONG)) == want


def brute_support(terms) -> Counter:
    out = Counter()
    for sid, deg, a, b in terms:
        for i in range(a):
            for j in range(b):
                out[(sid, deg, (2 * i - (a - 1)) + (2 * j - (b - 1)))] += 1
    return out


def brute_restriction(terms) -> Counter:
    """Peel the highest weight off the weights of V_a (x) V_b."""
    out = Counter()
    for sid, deg, a, b in terms:
        weights = Counter((a - 1 - 2 * i) + (b - 1 - 2 * j) for i in range(a) for j in range(b))
        while weights:
            top = max(weights)
            out[(sid, deg, top + 1)] += 1
            for w in range(-top, top + 1, 2):
                weights[w] -= 1
                if weights[w] == 0:
                    del weights[w]
    return out


def test_support_and_restriction_closed_forms():
    rng = random.Random(4)
    for _ in range(200):
        terms = [(*rng.choice(gen.CUSPIDALS), rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(rng.randint(1, 3))]
        support = check.support(terms)
        assert support == brute_support(terms)
        assert sum(support.values()) == check.twist_count(terms)
        assert sum(deg * m for (_, deg, _), m in support.items()) == check.total_degree(terms)
        assert check.central_exponent(support) == Fraction(0)
        assert check.restriction(terms) == brute_restriction(terms)


def test_support_rewrites_keep_the_support():
    rng = random.Random(5)
    for size in ("S", "M"):
        for _ in range(20):
            base = gen.big_param(rng, size)
            assert check.support(gen.rewrite(rng, base)) == check.support(base)


def test_renderings():
    counts = check.support([("rho", 1, 1, 3), ("sigma", 2, 2, 1)])
    assert check.support_text(counts) == \
        "{nu^-1 rho, rho, nu^1 rho, nu^(-1/2) sigma:2, nu^(1/2) sigma:2}"
    assert check.param_text([("rho", 1, 2, 3), ("one", 1, 1, 3)]) == "u(one;1,3) + u(rho;2,3)"
    assert check.jacquet_text("Q", "std", "rho", 1, -2, 2, 1) == "Q[0..1]{rho} (x) Q[-1..-1]{rho}"
    assert check.jacquet_text("Z", "std", "rho", 1, -2, 2, 1) == "Z[-1..0]{rho} (x) Z[1..1]{rho}"
    assert check.jacquet_text("Z", "opp", "sigma", 2, 0, 4, 3) == "0"
    lines = ["  F1: u(one;1,7) -> u(one;1,6)", "  dropped left: u(chi;1,1), u(one;5,1)",
             "  dropped right: u(one;6,1)"]
    cert = check.certificate_of_lines(lines)
    check.check_certificate(cert, [("one", 1, 1, 7), ("one", 1, 5, 1), ("chi", 1, 1, 1)],
                            [("one", 1, 1, 6), ("one", 1, 6, 1)], STRONG)


@pytest.mark.parametrize("workload", ["decide", "enumerate", "support", "cli"])
def test_rounds_are_seeded_and_never_repeat(workload):
    first, again, other = (gen.Rounds(workload, s) for s in (7, 7, 8))
    keys = []
    for _ in range(3):
        ops = first.next()
        assert [op["key"] for op in ops] == [op["key"] for op in again.next()]
        keys += [op["key"] for op in ops]
    assert len(set(keys)) == len(keys)
    assert keys[:5] != [op["key"] for op in other.next()][:5]


def test_decide_pairs_are_true_exactly_by_construction():
    src = gen.Rounds("decide", 9)
    ops = [op for _ in range(4) for op in src.next()]
    assert sum(op["truth"] for op in ops) * 2 == len(ops)
    for op in ops:
        families = GGP if op["kind"] == "hom" else STRONG
        assert check.relevant(op["left"], op["right"], families) == op["truth"]
        if op["kind"] != "strong":
            assert gen.dim(op["left"]) == gen.dim(op["right"]) + 1
        if op["kind"] == "ext":
            assert all(gen.is_segment(t) for t in op["left"] + op["right"])
