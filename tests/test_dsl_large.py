"""Round trips of large parameters through the parser: hundreds to a few
thousand terms over many cuspidals, in every spelling the grammar allows."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from spehcalc import ArthurParameter, CuspidalSymbol, SpehDatum, format_param, parse_param

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


@settings(max_examples=12, deadline=None)
@given(st.integers(100, 3000), st.integers(0, 2**32))
def test_large_parameters_round_trip(n, seed):
    # a seeded generator, not st.randoms(): that would draw every choice
    # from Hypothesis, thousands of draws an example
    rng = random.Random(seed)
    pool = symbol_pool(rng)
    terms = []
    for _ in range(n):
        a, b = rng.choice(((1, 1), (1, rng.randint(1, 40)), (rng.randint(1, 40), 1),
                           (rng.randint(1, 9), rng.randint(1, 9))))
        terms.append(SpehDatum(rng.choice(pool), a, b))
    param = ArthurParameter(tuple(terms))
    assert parse_param(spell(terms, rng)) == param
    text = format_param(param)
    assert parse_param(text) == param
    assert format_param(parse_param(text)) == text
