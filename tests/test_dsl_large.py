"""Round trips of large parameters through the parser: hundreds to a few
thousand terms over many cuspidals, in every spelling the grammar allows.
Also: parse_param and parse_rep, which read a text of u-terms with one
whole-text regex, agree with the plain per-token stream, in values and in
errors, and read such texts without the plain stream."""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spehcalc import (
    ArthurParameter,
    CuspidalSymbol,
    ParseError,
    SpehDatum,
    format_param,
    parse_param,
    parse_rep,
    parse_segment,
    parse_support,
)
from spehcalc import dsl
from _fixtures import SPACES, spell_u_terms

# Names include the keywords that are plain symbols when not followed by
# "(" or "[", and "one", the trivial line, which has degree 1.
NAMES = ("one", "rho", "sigma", "chi", "tau_2", "nu", "u", "st", "triv", "Z", "Q", "_c9")


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


# Every parser's outcomes, pinned by one digest

def spaced(tokens: list[str], rng: random.Random) -> str:
    return "".join(rng.choice(SPACES) + tok for tok in tokens) + rng.choice(SPACES)


def segment_text(rng: random.Random) -> str:
    """A segment, or a Z/Q segment rep in a fifth of the draws; in about
    a fifth, its ends are a non-integer or a negative step apart."""
    a = rng.randint(-9, 9)
    b = a + 2 * rng.randint(0, 6) + (rng.random() < 0.1) - 3 * (rng.random() < 0.1)
    symbol = rng.choice(NAMES) + (f":{rng.randint(1, 3)}" if rng.random() < 0.3 else "")
    tokens = ["[", *half_tokens(a), "..", *half_tokens(b), "]", "{", symbol, "}"]
    return spaced([rng.choice("ZQ")] + tokens if rng.random() < 0.2 else tokens, rng)


def support_text(rng: random.Random) -> str:
    """A support of zero to four twisted cuspidals, twists whole or half."""
    entries = []
    for _ in range(rng.randint(0, 4)):
        doubled = rng.randint(-7, 7)
        twist = [] if doubled == 0 else ["nu", "^", str(doubled // 2)] if doubled % 2 == 0 \
            else ["nu", "^", "(", str(doubled), "/", "2", ")"]
        entries.append(twist + [rng.choice(NAMES)])
    tokens = ["{"] + [tok for i, entry in enumerate(entries) for tok in ([","] if i else []) + entry] + ["}"]
    return spaced(tokens, rng)


def digest_texts(seed: int) -> list[str]:
    """A spelled parameter, a segment and a support of one seed, each with
    four one-edit variants of it."""
    rng = random.Random(seed)
    texts = []
    for text in (spell(random_terms(rng, rng.randint(1, 4)), rng), segment_text(rng), support_text(rng)):
        texts += [text] + [mutated(text, rng) for _ in range(4)]
    return texts


def parser_outcomes(seeds: int) -> dict:
    """parse_param, parse_rep, parse_segment and parse_support on the
    ``digest_texts`` of seeds 0 to seeds - 1: the number of calls and of
    errors, and a digest of each value's repr, or each error's text, span
    and sorted expected set, in order."""
    lines, errors = [], 0
    for seed in range(seeds):
        for text in digest_texts(seed):
            for parse in (parse_param, parse_rep, parse_segment, parse_support):
                try:
                    lines.append(repr(parse(text)))
                except ParseError as err:
                    errors += 1
                    lines.append(repr((str(err), err.span.start, err.span.end, sorted(err.expected))))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {"seeds": seeds, "calls": len(lines), "errors": errors, "sha256": digest}


def test_parser_outcomes_match_their_digest():
    """Seeds 0-299: 4500 texts, 18 000 calls, most of them errors.  The
    digest was taken before the plain stream built its errors through one
    constructor; any change to a value, message, span or expected set
    moves it."""
    golden = Path(__file__).parent / "golden" / "parser_outcomes.json"
    assert parser_outcomes(300) == json.loads(golden.read_text(encoding="utf-8"))
