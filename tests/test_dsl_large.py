"""Round trips of large parameters through the parser: hundreds to a few
thousand terms over many cuspidals, in every spelling the grammar allows.
Also: parse_param and parse_rep, which read a text of u-terms with one
whole-text regex, agree with the plain per-token stream, in values and in
errors, and read such texts without the plain stream."""

from __future__ import annotations

import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spehcalc import ArthurParameter, CuspidalSymbol, ParseError, SpehDatum, format_param, parse_param, parse_rep
from spehcalc import dsl

# Names include the keywords that are plain symbols when not followed by
# "(" or "[", and "one", the trivial line, which has degree 1.
NAMES = ("one", "rho", "sigma", "chi", "tau_2", "nu", "u", "st", "triv", "Z", "Q", "_c9")
SPACES = ("", "", " ", "  ", "\t", "\n ")


def symbol_pool(rng: random.Random) -> list[CuspidalSymbol]:
    pool = [CuspidalSymbol("one")]
    pool += [CuspidalSymbol(n, rng.randint(1, 5)) for n in NAMES[1:] for _ in range(2)]
    pool += [CuspidalSymbol(f"pi{i}", rng.randint(1, 7)) for i in range(rng.randint(1, 30))]
    return pool


def half_tokens(doubled: int) -> list[str]:
    return [str(doubled // 2)] if doubled % 2 == 0 else [str(doubled), "/", "2"]


def spellings(s: SpehDatum) -> list[list[str]]:
    """Every spelling of one term, as token lists."""
    sym = [s.rho.id] if s.rho.degree == 1 else [s.rho.id, ":", str(s.rho.degree)]
    out = [["u", "("] + sym + [";", str(s.a), ",", str(s.b), ")"]]
    if s.rho.id == "one" and s.a == 1:
        out.append(["triv", "(", str(s.b), ")"])
    if s.rho.id == "one" and s.b == 1:
        out.append(["st", "(", str(s.a), ")"])
    if s.a == 1 or s.b == 1:  # the centred segment of length n
        n = s.a * s.b
        kinds = ("Z", "Q") if n == 1 else ("Z",) if s.a == 1 else ("Q",)
        ends = half_tokens(1 - n) + [".."] + half_tokens(n - 1)
        out += [[kind, "["] + ends + ["]", "{"] + sym + ["}"] for kind in kinds]
    if s.a == s.b == 1:
        out.append(sym)
    return out


def spell(terms: list[SpehDatum], rng: random.Random) -> str:
    """The terms in random spellings and separators, with random
    whitespace between all tokens ("x" always spaced, as it is an ident)."""
    parts = []
    for i, s in enumerate(terms):
        if i:
            parts.append(rng.choice((" x ", "\tx\n")) if rng.random() < 0.3 else rng.choice(SPACES) + "+")
        parts.append("".join(rng.choice(SPACES) + tok for tok in rng.choice(spellings(s))))
    return "".join(parts) + rng.choice(SPACES)


def random_terms(rng: random.Random, n: int) -> list[SpehDatum]:
    pool = symbol_pool(rng)
    terms = []
    for _ in range(n):
        a, b = rng.choice(((1, 1), (1, rng.randint(1, 40)), (rng.randint(1, 40), 1),
                           (rng.randint(1, 9), rng.randint(1, 9))))
        terms.append(SpehDatum(rng.choice(pool), a, b))
    return terms


# a seeded generator, not st.randoms(): that would draw every choice from
# Hypothesis, thousands of draws an example
@settings(max_examples=12, deadline=None)
@given(st.integers(100, 3000), st.integers(0, 2**32))
def test_large_parameters_round_trip(n, seed):
    rng = random.Random(seed)
    terms = random_terms(rng, n)
    param = ArthurParameter(tuple(terms))
    assert parse_param(spell(terms, rng)) == param
    text = format_param(param)
    assert parse_param(text) == param
    assert format_param(parse_param(text)) == text


# The whole-text path against the plain stream

MUTATIONS = "u();,:+x01- "


def outcome(read, text):
    """The value read from text, or the error's text, span and expected set."""
    try:
        return read(text)
    except ParseError as err:
        return str(err), err.span, err.expected


def plain_param(text: str) -> ArthurParameter:
    return dsl._Parser(text).parse_param()


def plain_rep(text: str):
    return dsl._Parser(text).parse_param_or_rep()


def assert_streams_agree(text: str) -> None:
    assert outcome(parse_param, text) == outcome(plain_param, text)
    assert outcome(parse_rep, text) == outcome(plain_rep, text)


def mutated(text: str, rng: random.Random) -> str:
    """text with one character inserted, deleted or replaced."""
    i = rng.randrange(len(text) + 1)
    edit = rng.randrange(3)
    if edit == 0:
        return text[:i] + rng.choice(MUTATIONS) + text[i:]
    if edit == 1:
        return text[:i] + text[i + 1:]
    return text[:i] + rng.choice(MUTATIONS) + text[i + 1:]


@settings(max_examples=12, deadline=None)
@given(st.integers(100, 3000), st.integers(0, 2**32))
def test_canonical_texts_parse_as_on_the_plain_stream(n, seed):
    rng = random.Random(seed)
    text = format_param(ArthurParameter(tuple(random_terms(rng, n))))
    assert_streams_agree(text)
    assert_streams_agree(mutated(text, rng))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32))
def test_mutated_short_texts_parse_as_on_the_plain_stream(n, seed):
    # one edit in a few terms lands on every part of a u-term in turn
    rng = random.Random(seed)
    text = format_param(ArthurParameter(tuple(random_terms(rng, n))))
    assert_streams_agree(mutated(text, rng))


@pytest.mark.parametrize("text", [
    "u(u(rho;1,1);1,1)", "u(a;1,1)u(b;1,1)", "u(rho;1,1)xu(tau;2,1)", "mu(rho;1,2)",
    "u(one:2;1,1)", "u(one:01;2,1)", "u(one:1:1;1,1)", "u(x;1,1)", "u(x:2;1,1)", "u(xu;1,1)",
    "u(rho;01,2)", "u(rho;-1,2)", "u(rho;0,2)", "u(rho:0;1,1)", "u( rho;1,1)", "u (rho;1,1)",
    "2u(rho;1,1)", "u(rho;1,1)2", "u(rho;1,1) x", "0 + u(rho;1,1)", "Z[-1/2..1/2]{rho}u(rho;1,1)",
    "Z[0..0]{u(rho;1,1)}", "u(rho;1,1)\u00a0+\u2003u(rho;2,2)",
    "u(a;1,1)x u(b;1,1)", "u(a;1,1) xu(b;1,1)", "u(a;1,1) x_ u(b;1,1)",
    "u(a;1,1) + x u(b;1,1)", "u(a;1,1)++u(b;1,1)", "+u(a;1,1)", "u(a;1,1)+",
    "u(one:1;1,1)", "\tu(a;1,1)\n+\tu(b;2,1)\n\tx\n u(one;1,3) \t",
])
def test_edge_cases_parse_as_on_the_plain_stream(text):
    assert_streams_agree(text)


def test_an_overlong_integer_fails_alike_on_both_paths():
    # Python 3.11 and later refuse to convert a string of over 4300 digits
    # (sys.get_int_max_str_digits); the error is the same on either path.
    text = "u(rho;1,1) + u(rho;1" + "0" * 4999 + ",2)"

    def read(parse):
        try:
            return parse(text)
        except ValueError as err:
            return type(err), str(err)

    outcomes = [read(parse) for parse in (parse_param, parse_rep, plain_param, plain_rep)]
    assert outcomes[1:] == outcomes[:-1]
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        assert outcomes[0][0] is ValueError


def spell_u_terms(param: ArthurParameter, rng: random.Random) -> str:
    """format_param's text, with "+" or "x" separators, random whitespace
    around them, leading zeros and explicit degrees 1, "one:1" among them."""
    def number(n: int) -> str:
        return "0" * rng.choice((0, 0, 1, 3)) + str(n)

    parts = []
    for s in param:
        degree = ":" + number(s.rho.degree) if s.rho.degree > 1 or rng.random() < 0.2 else ""
        parts.append(f"u({s.rho.id}{degree};{number(s.a)},{number(s.b)})")
    text = parts[0]
    for part in parts[1:]:
        text += rng.choice(("+", " + ", "x ", " x ", "\tx\n", "\n+\t")) + part
    return rng.choice(SPACES) + text + rng.choice(SPACES)


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 2**32))
def test_canonical_texts_never_reach_the_plain_stream(n, seed):
    # a regex slip that sends such texts down the per-token path would
    # otherwise show only in the timings
    rng = random.Random(seed)
    param = ArthurParameter(tuple(random_terms(rng, n)))
    texts = (format_param(param), spell_u_terms(param, rng))
    with mock.patch.object(dsl, "_Parser", side_effect=AssertionError("plain stream used")):
        for text in texts:
            assert parse_param(text) == param
            assert parse_rep(text) == param
