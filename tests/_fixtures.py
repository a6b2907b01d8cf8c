"""Harnesses and fixtures shared by the test modules: the capped child
runner and its environment, the CLI golden table, a parameter builder,
the fixtures of criteria 1 and 4, the Jacquet sign patterns and a u-term
speller.  A new child run, golden or fixture that two modules need goes
here, not into either of them."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import spehcalc
from spehcalc import (
    ArthurParameter,
    CuspidalSymbol,
    Matching,
    MatchedPair,
    MoveFamily,
    SpehDatum,
    parse_param,
    parse_rep,
    parse_segment,
    parse_support,
)
from spehcalc.segments import OPPOSITE, STANDARD

# Child processes

# Every child interpreter's environment: this checkout's package first.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(spehcalc.__file__).resolve().parents[1])}


def run_capped(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a child capped at 1 GiB of address space and
    60 s, with its output as text: anything that allocates per twist, per
    Clebsch-Gordan piece or per exponent of a 10^9 span fails at once
    there rather than paging."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, *args], env=CHILD_ENV, capture_output=True, encoding="utf-8",
                          timeout=60, preexec_fn=cap)


# CLI goldens

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))

# The GL(13)/GL(12) fixture of criterion 4, as the CLI reads it.
GL13_GL12 = ("u(one;1,7) + u(one;5,1) + chi", "u(one;1,6) + u(one;6,1)")

# Each golden's argv: its stdout is GOLDEN / f"{name}.out", its exit code
# EXIT_CODES[name].
GOLDEN_ARGV = {
    "ext_triv3_st2": ["ext", "triv(3)", "st(2)"],
    "ext_st5_triv4": ["ext", "st(5)", "triv(4)"],
    "strong_counterexample": ["strong", "u(rho;2,3)", "u(rho;3,1)+rho+rho"],
    "matchings_gl13_gl12": ["matchings", *GL13_GL12],
    "hom_triv3_st2": ["hom", "triv(3)", "st(2)"],
    "relevant_st2_triv1": ["relevant", "st(2)", "triv(1)"],
    "ext_triv3_st2_json": ["ext", "--json", "triv(3)", "st(2)"],
    "strong_counterexample_json": ["strong", "--json", "u(rho;2,3)", "u(rho;3,1)+rho+rho"],
    "matchings_gl13_gl12_json": ["matchings", "--json", *GL13_GL12],
    # captured before relevant, strong and hom shared one verdict handler
    "hom_st2_triv1": ["hom", "st(2)", "triv(1)"],
    "hom_st2_triv1_json": ["hom", "--json", "st(2)", "triv(1)"],
    "relevant_st2_triv1_json": ["relevant", "--json", "st(2)", "triv(1)"],
    "relevant_triv3_st2": ["relevant", "triv(3)", "st(2)"],
    "strong_triv3_st2": ["strong", "triv(3)", "st(2)"],
    # captured before same_cuspidal_support moved from relevance to core
    "samegroup_triv4_st4": ["samegroup", "triv(4)", "st(4)"],
    "samegroup_rho_chi": ["samegroup", "u(rho;1,2)", "u(chi;1,2)"],
    "samegroup_triv4_st4_json": ["samegroup", "--json", "triv(4)", "st(4)"],
    "samegroup_rho_chi_json": ["samegroup", "--json", "u(rho;1,2)", "u(chi;1,2)"],
    "ep_st5_st4": ["ep", "st(5)", "st(4)"],
    "ep_st5_triv4_json": ["ep", "--json", "st(5)", "triv(4)"],
}

# Parse-error goldens, captured before the one-pass tokenizer (the entries
# from "u_term_as_symbol" on, before whole Speh terms became one token): for
# each input, the error's text, span and expected set, and where a
# subcommand reads that kind of input, its exit code, stdout and stderr.
PARSE_ERRORS = json.loads((GOLDEN / "parse_errors.json").read_text(encoding="utf-8"))
PARSERS = {f.__name__: f for f in (parse_param, parse_rep, parse_segment, parse_support)}


# Values

def param(*terms) -> ArthurParameter:
    """The parameter of the (symbol, a, b) terms."""
    return ArthurParameter(tuple(SpehDatum(rho, a, b) for rho, a, b in terms))


ONE, RHO, CHI = CuspidalSymbol("one"), CuspidalSymbol("rho"), CuspidalSymbol("chi")

# The fixture of criterion 1: trivial(3) against Steinberg(2).
TRIV3, ST2 = param((ONE, 1, 3)), param((ONE, 2, 1))

# The two matchings of the GL(13)/GL(12) fixture: the Arthur step, and the
# two dual steps.
GL13_GL12_MATCHINGS = (
    Matching(
        (MatchedPair(SpehDatum(ONE, 1, 7), SpehDatum(ONE, 1, 6), MoveFamily.F1),),
        (SpehDatum(ONE, 5, 1), SpehDatum(CHI, 1, 1)),
        (SpehDatum(ONE, 6, 1),),
    ),
    Matching(
        (
            MatchedPair(SpehDatum(ONE, 1, 7), SpehDatum(ONE, 6, 1), MoveFamily.F3),
            MatchedPair(SpehDatum(ONE, 5, 1), SpehDatum(ONE, 1, 6), MoveFamily.F4),
        ),
        (SpehDatum(CHI, 1, 1),),
        (),
    ),
)


# The signs of the central exponents of a Jacquet module's two factors,
# by the representation's kind and the side of the split.
SIGN_PATTERNS = {
    ("Q", STANDARD): (1, -1),
    ("Q", OPPOSITE): (-1, 1),
    ("Z", STANDARD): (-1, 1),
    ("Z", OPPOSITE): (1, -1),
}


# Texts

SPACES = ("", "", " ", "  ", "\t", "\n ")


def spell_u_terms(terms, rng: random.Random) -> str:
    """One or more terms as u-terms, in the order given, for the whole-text
    path: "+" or "x" separators, random whitespace around them, leading
    zeros and explicit degrees 1, "one:1" among them."""
    def number(n: int) -> str:
        return "0" * rng.choice((0, 0, 1, 3)) + str(n)

    parts = []
    for s in terms:
        degree = ":" + number(s.rho.degree) if s.rho.degree > 1 or rng.random() < 0.2 else ""
        parts.append(f"u({s.rho.id}{degree};{number(s.a)},{number(s.b)})")
    text = parts[0]
    for part in parts[1:]:
        text += rng.choice(("+", " + ", "x ", " x ", "\tx\n", "\n+\t")) + part
    return rng.choice(SPACES) + text + rng.choice(SPACES)
