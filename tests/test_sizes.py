"""Size audit: every public function and every CLI command answers on
a and b up to 10^9.

Each group of calls runs in one child process capped at 1 GiB of address
space and 60 s, where anything that allocates per twist, per
Clebsch-Gordan piece or per exponent of the span fails at once.  A name
in ``spehcalc.__all__`` and a CLI command is either probed here, with
its correct answer worked out by hand, or listed in ``SPAN_SIZED`` with
the reason its output is as large as the span by definition.  A new
public name must join one of the two, so a path that is bound by size
shows up here first.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import spehcalc
from spehcalc.cli import build_parser
from _fixtures import run_capped

N = 10**9
RHO_REPR, SIGMA_REPR = "CuspidalSymbol(id='rho', degree=1)", "CuspidalSymbol(id='sigma', degree=1)"

# The outputs that hold one item per twist, per Clebsch-Gordan piece or
# per exponent of the span: no closed form can make them smaller.
SPAN_SIZED = {
    "csupp_param": "returns the support: O(span) runs per cuspidal line",
    "csupp_speh": "returns the support of one term: O(a + b) runs",
    "csupp_segment": "returns one twist per exponent of the segment",
    "CuspidalMultiset.runs": "one (twist, multiplicity) pair per distinct twist",
    "CuspidalMultiset.entries": "one twist per element, counted with multiplicity: O(a·b)",
    "iter(CuspidalMultiset)": "the same twists as .entries, one by one",
    "DiagonalRestriction.entries": "one pair per Clebsch-Gordan piece, sum of min(a, b) in all; built in "
                                   "O(entries + terms), so a wide gap between dimensions costs nothing",
    "iter(DiagonalRestriction)": "the same pairs as .entries, one by one",
    "format_support": "prints every twist of the support",
    "csupp": "the CLI command prints the support through format_support",
    "half_range": "yields every exponent from lo to hi",
    "Segment.exponents": "yields every exponent of the segment",
    "clebsch_gordan": "returns the min(a, b) dimensions of V_a (x) V_b",
    "tensor_pair_recovery": "compares two clebsch_gordan decompositions, min(a, b) pieces each",
}

# The Python names a probe may use, defined in each child before the probes.
PRELUDE = f"""
import contextlib, io, json, sys
from spehcalc import *
from spehcalc.cli import main
N = {N}
RHO, SIGMA, TAU = CuspidalSymbol("rho"), CuspidalSymbol("sigma"), CuspidalSymbol("tau", 2)
P = parse_param

def raises(call):
    try:
        call()
    except Exception as exc:
        return type(exc).__name__
    return None

def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()

for name, expression in json.loads(sys.argv[1]):
    print(json.dumps([name, expression, repr(eval(expression))]), flush=True)
"""

# Parameters over four cuspidal lines (rho and sigma of degree 1, tau of
# degree 2, rho again at degree 3), each line with terms of both parities
# of a + b.
MIXED = (f"u(rho;{N},{N}) + u(rho;{N},{N - 1}) + u(sigma;1,{N}) + u(sigma;{N - 1},2) + u(sigma;3,3)"
         f" + u(tau:2;{N},3) + u(tau:2;2,{N}) + u(rho:3;{N - 2},{N + 1}) + u(rho:3;5,{N})")
MIXED_DUAL = (f"u(rho;{N},{N}) + u(rho;{N - 1},{N}) + u(sigma;{N},1) + u(sigma;2,{N - 1}) + u(sigma;3,3)"
              f" + u(tau:2;3,{N}) + u(tau:2;{N},2) + u(rho:3;{N + 1},{N - 2}) + u(rho:3;{N},5)")
# the same dimension as MIXED, but rho's first term moved by one on each
# side and the twist this frees moved to sigma's line
MIXED_MOVED = MIXED.replace(f"u(rho;{N},{N})", f"u(rho;{N + 1},{N - 1})") + " + sigma"
MIXED_RESTRICTION_LEN = N + (N - 1) + 1 + 2 + 3 + 3 + 2 + (N - 2) + 5
SQUARE = f"u(rho;{N},{N})"
# the three-term Clebsch-Gordan split of u(rho;N,3): V_N (x) V_3 = V_(N+2) + V_N + V_(N-2)
THIN, THIN_SPLIT = f"u(rho;{N},3)", f"u(rho;1,{N + 2}) + u(rho;1,{N}) + u(rho;1,{N - 2})"
# segment-type pairs of one group, with and without the same support
SEG_TRUE = (f"u(rho;1,{N}) + u(sigma;{N},1) + u(tau:2;1,{N - 1})",
            f"u(rho;{N},1) + u(sigma;1,{N}) + u(tau:2;{N - 1},1)")
SEG_FALSE = (f"u(rho;1,{N}) + u(rho;2,1)", f"u(rho;{N + 1},1) + u(rho;1,1)")
# (n, n-1) pairs: the left term steps down its Arthur dimension onto the
# right one, or finds no partner on the right's other line
STEP, STEP_DOWN, OTHER_LINE = f"u(rho;1,{N + 1})", f"u(rho;1,{N})", f"u(sigma;1,{N})"
ARTHUR, ARTHUR_DOWN = f"u(rho;{N},{N + 1})", f"u(rho;{N},{N})"
# the centered segment of length N, from -(N-1)/2 to (N-1)/2
CENTERED = f"[-{N - 1}/2..{N - 1}/2]{{rho}}"
FAR = f"Segment(RHO, HalfInt({2 * N}), HalfInt({2 * N + 4}))"  # exponents N, N+1, N+2
# [0, N] and [N+1, 2N]: adjacent, so linked
LOW_HALF, HIGH_HALF = "Segment(RHO, HalfInt(0), HalfInt(2 * N))", "Segment(RHO, HalfInt(2 * N + 2), HalfInt(4 * N))"

# (public name, expression, its correct value, compared by repr)
LIBRARY = [
    ("ArthurParameter", f"ArthurParameter((SpehDatum(RHO, N, N), SpehDatum(TAU, N, N))).dim", 3 * N * N),
    ("ArthurParameter", f"len(P({MIXED!r}))", 9),
    ("SpehDatum", "SpehDatum(TAU, N, N + 1).degree", 2 * N * (N + 1)),
    ("CuspidalSymbol", "CuspidalSymbol('rho', N).degree", N),
    ("HalfInt", "str(HalfInt(2 * N + 1) + N)", f"{4 * N + 1}/2"),
    ("TwistedCuspidal", "TwistedCuspidal(RHO, HalfInt(N)).shifted(N).exponent.doubled", 3 * N),
    ("TwistedCuspidal", "TwistedCuspidal(RHO, HalfInt(N)).same_line(TwistedCuspidal(RHO, HalfInt(-N)))", True),
    ("CuspidalMultiset", f"len(csupp_segment({FAR}).union(csupp_segment({FAR})))", 6),
    ("CuspidalMultiset", f"csupp_segment({FAR}).union(csupp_segment({FAR})).total_degree", 6),
    ("CuspidalMultiset", f"CuspidalMultiset([TwistedCuspidal(RHO, HalfInt(2 * N))] * 3) == "
                         f"parse_support('{{nu^{N} rho, nu^{N} rho, nu^{N} rho}}')", True),
    ("central_exponent", f"central_exponent(csupp_segment({FAR}), 3)", Fraction(N + 1)),
    ("in_cuspidal_lines", f"in_cuspidal_lines(TwistedCuspidal(RHO, HalfInt(-2 * N)), csupp_segment({FAR}))", True),
    ("in_cuspidal_lines", f"in_cuspidal_lines(TwistedCuspidal(RHO, HalfInt(1)), csupp_segment({FAR}))", False),
    ("diagonal_restriction", f"len(diagonal_restriction(P({MIXED!r})))", MIXED_RESTRICTION_LEN),
    ("diagonal_restriction", f"len(diagonal_restriction(P({SQUARE!r})))", N),
    ("DiagonalRestriction", f"diagonal_restriction(P({MIXED!r})) == diagonal_restriction(P({MIXED_DUAL!r}))", True),
    ("DiagonalRestriction",
     f"hash(diagonal_restriction(P({MIXED!r}))) == hash(diagonal_restriction(P({MIXED_DUAL!r})))", True),
    ("DiagonalRestriction", f"diagonal_restriction(P({MIXED!r})) == diagonal_restriction(P({MIXED_MOVED!r}))", False),
    # two entries 10^9 dimensions apart: reading them steps over the gap
    ("DiagonalRestriction",
     f"diagonal_restriction(P('u(rho;1,1) + u(rho;1,{N})')).entries == ((RHO, 1), (RHO, N))", True),
    ("DiagonalRestriction", f"repr(DiagonalRestriction([(RHO, N), (SIGMA, N), (RHO, 1)]))",
     f"DiagonalRestriction(entries=(({RHO_REPR}, 1), ({RHO_REPR}, {N}), ({SIGMA_REPR}, {N})))"),
    ("same_cuspidal_support", f"same_cuspidal_support(P({SQUARE!r}), P({SQUARE!r}))", True),
    ("same_cuspidal_support", f"same_cuspidal_support(P({SQUARE!r}), az_dual_param(P({SQUARE!r})))", True),
    ("same_cuspidal_support", f"same_cuspidal_support(P({SQUARE!r}), P('u(rho;{N + 1},{N - 1})'))", False),
    ("same_cuspidal_support", f"same_cuspidal_support(P({THIN!r}), P({THIN_SPLIT!r}))", True),
    ("same_cuspidal_support", f"same_cuspidal_support(P({MIXED!r}), P({MIXED_DUAL!r}))", True),
    ("same_cuspidal_support", f"same_cuspidal_support(P({MIXED!r}), P({MIXED_MOVED!r}))", False),
    ("az_dual_param", f"az_dual_param(P({MIXED!r})) == P({MIXED_DUAL!r})", True),
    ("az_dual_speh", "az_dual_speh(SpehDatum(RHO, N, 1)) == SpehDatum(RHO, 1, N)", True),
    ("speh_level", "speh_level(SpehDatum(TAU, N, N))", 2 * N),
    ("speh_minus", "speh_minus(SpehDatum(RHO, N, N)) == SpehDatum(RHO, N, N - 1)", True),
    ("speh_pair_same_group", "speh_pair_same_group(SpehDatum(RHO, N, N - 1), SpehDatum(RHO, N - 1, N))", True),
    ("speh_pair_same_group", "speh_pair_same_group(SpehDatum(RHO, N, N - 1), SpehDatum(RHO, N, N - 1))", True),
    ("speh_pair_same_group", "speh_pair_same_group(SpehDatum(RHO, N, 2), SpehDatum(RHO, 2 * N, 1))", False),
    ("speh_from_segment_rep", f"speh_from_segment_rep(parse_rep('Q{CENTERED}')) == SpehDatum(RHO, N, 1)", True),
    ("is_generic_param", f"is_generic_param(P('u(rho;{N},1) + u(sigma;{N},1)'))", True),
    ("whittaker_dim", f"whittaker_dim(P({MIXED!r}))", 0),
    ("Segment", f"parse_segment({CENTERED!r}).length", N),
    ("SegmentRep", f"parse_rep('Z{CENTERED}').degree", N),
    ("JacquetResult", f"jacquet('Z', 'standard', parse_segment({CENTERED!r}), N // 2).is_zero", False),
    ("jacquet",
     f"[format_segment_rep(f) for f in jacquet('Z', 'standard', parse_segment({CENTERED!r}), N // 2).factors]",
     [f"Z[-{N - 1}/2..-1/2]{{rho}}", f"Z[1/2..{N - 1}/2]{{rho}}"]),
    ("linked", f"linked({LOW_HALF}, {HIGH_HALF})", True),
    ("precedes", f"precedes({LOW_HALF}, {HIGH_HALF})", True),
    ("precedes", f"precedes({HIGH_HALF}, {LOW_HALF})", False),
    ("MoveFamily", "MoveFamily.F3.partner(SpehDatum(RHO, N, N + 1)) == SpehDatum(RHO, N, N)", True),
    ("MatchedPair", "MatchedPair(SpehDatum(RHO, 1, N + 1), SpehDatum(RHO, 1, N), MoveFamily.F1).right.b", N),
    ("Matching",
     f"hom_branch_arthur(P({STEP!r}), P({STEP_DOWN!r})).certificate.validate(P({STEP!r}), P({STEP_DOWN!r}))", None),
    ("ggp_relevant", f"ggp_relevant(P({ARTHUR!r}), P({ARTHUR_DOWN!r}))", True),
    ("ggp_relevant", f"ggp_relevant(P({ARTHUR!r}), P('u(sigma;{N},{N})'))", False),
    ("strong_ext_relevant", f"strong_ext_relevant(P({ARTHUR!r}), P({ARTHUR_DOWN!r}))", True),
    ("strong_ext_relevant", f"strong_ext_relevant(P({ARTHUR!r}), P('u(sigma;{N},{N})'))", False),
    # u(N, N+1) steps down to u(N, N) by F1, and by F3 to u(N+1-1, N), the same term
    ("enumerate_ggp_matchings", f"len(enumerate_ggp_matchings(P({ARTHUR!r}), P({ARTHUR_DOWN!r})))", 1),
    ("enumerate_strong_matchings", f"len(enumerate_strong_matchings(P({ARTHUR!r}), P({ARTHUR_DOWN!r})))", 2),
    ("hom_branch_arthur", f"hom_branch_arthur(P({STEP!r}), P({STEP_DOWN!r})).nonvanishing", True),
    ("hom_branch_arthur", f"hom_branch_arthur(P({STEP!r}), P({OTHER_LINE!r})).nonvanishing", False),
    ("BranchingVerdict", f"hom_branch_arthur(P({STEP!r}), P({STEP_DOWN!r})).decider", "matcher"),
    ("ext_branch_segment_type", f"ext_branch_segment_type(P({STEP!r}), P({STEP_DOWN!r})).nonvanishing", True),
    ("ext_branch_segment_type", f"ext_branch_segment_type(P({STEP!r}), P({OTHER_LINE!r})).nonvanishing", False),
    ("ext_branch_recursive", f"ext_branch_recursive(P({STEP!r}), P({STEP_DOWN!r}))", True),
    ("ext_branch_recursive", f"ext_branch_recursive(P({STEP!r}), P({OTHER_LINE!r}))", False),
    # the product of the two Whittaker dimensions: 1 only when both sides are generic
    ("euler_poincare", f"euler_poincare(P('u(rho;{N},1) + rho'), P('u(rho;{N},1)'))", 1),
    ("euler_poincare", f"euler_poincare(P({STEP!r}), P({STEP_DOWN!r}))", 0),
    ("same_group_ext_segment_type", f"same_group_ext_segment_type(*map(P, {SEG_TRUE!r}))", True),
    ("same_group_ext_segment_type", f"same_group_ext_segment_type(*map(P, {SEG_FALSE!r}))", False),
    ("HypothesisError", f"raises(lambda: same_group_ext_segment_type(P({SQUARE!r}), P({SQUARE!r})))",
     "HypothesisError"),
    ("parse_param", f"P('u(tau:2;{N},{N}) x u(rho;{N},{N})') == P('u(rho;{N},{N}) + u(tau:2;{N},{N})')", True),
    ("parse_rep", f"parse_rep('Q{CENTERED}').segment.b.doubled", N - 1),
    ("parse_segment", f"parse_segment('[{N}..{2 * N}]{{rho}}').length", N + 1),
    ("parse_support", f"len(parse_support('{{nu^{N} rho, nu^({2 * N + 1}/2) rho}}'))", 2),
    ("ParseError", f"raises(lambda: P('u(rho;0,{N})'))", "ParseError"),
    ("SourceSpan", "SourceSpan(N, 2 * N).end", 2 * N),
    ("format_param", f"format_param(P({SQUARE!r}))", SQUARE),
    ("format_term", "format_term(SpehDatum(TAU, N, 1))", f"u(tau:2;{N},1)"),
    ("format_segment", f"format_segment(parse_segment({CENTERED!r}))", CENTERED),
    ("format_segment_rep", f"format_segment_rep(parse_rep('Q{CENTERED}'))", f"Q{CENTERED}"),
]

# (command, argv, exit code, stdout)
CLI = [
    ("parse", ["parse", f"u(rho;{N},{N}) + rho"], 0, f"u(rho;1,1) + u(rho;{N},{N})\ndim {N * N + 1}\n"),
    ("dual", ["dual", f"u(rho;{N},{N - 1})"], 0, f"u(rho;{N - 1},{N})\ndim {N * (N - 1)}\n"),
    ("minus", ["minus", f"u(rho;{N},{N}) + u(rho;{N},1)"], 0,
     f"u(rho;{N},{N - 1})\ndim {N * (N - 1)}\ndropped: u(rho;{N},1)\n"),
    ("jacquet", ["jacquet", "Z", "std", CENTERED, str(N // 2)], 0,
     f"Z[-{N - 1}/2..-1/2]{{rho}} (x) Z[1/2..{N - 1}/2]{{rho}}\n"),
    ("relevant", ["relevant", ARTHUR, ARTHUR_DOWN], 0, f"relevant\n  F1: {ARTHUR} -> {ARTHUR_DOWN}\n"),
    ("strong", ["strong", ARTHUR, f"u(sigma;{N},{N})"], 1, "not strong ext relevant\n"),
    ("matchings", ["matchings", ARTHUR, ARTHUR_DOWN], 0,
     f"2 matching(s)\nmatching 1:\n  F1: {ARTHUR} -> {ARTHUR_DOWN}\nmatching 2:\n  F3: {ARTHUR} -> {ARTHUR_DOWN}\n"),
    ("hom", ["hom", STEP, STEP_DOWN], 0, f"Hom != 0\n  F1: {STEP} -> {STEP_DOWN}\n"),
    ("ext", ["ext", STEP, OTHER_LINE], 1, "Ext = 0\n"),
    ("samegroup", ["samegroup", *SEG_TRUE], 0, "Ext != 0\n"),
    ("ep", ["ep", f"u(rho;{N},1) + rho", f"u(rho;{N},1)"], 0, "1\n"),
]


def answers(probes: list[tuple[str, str]]) -> dict[tuple[str, str], str]:
    """The probes' values, run in one capped child."""
    proc = run_capped("-c", PRELUDE, json.dumps(probes))
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr[-2000:]
    return {(name, expression): value for name, expression, value in map(json.loads, proc.stdout.splitlines())}


@pytest.mark.parametrize("half", [0, 1])
def test_library_answers_within_the_cap(half):
    probes = LIBRARY[half::2]
    got = answers([(name, expression) for name, expression, _ in probes])
    want = {(name, expression): repr(value) for name, expression, value in probes}
    assert got == want


def test_cli_answers_within_the_cap():
    probes = [(command, f"cli(*{argv!r})") for command, argv, _, _ in CLI]
    got = answers(probes)
    want = {probe: repr((code, out, "")) for probe, (_, _, code, out) in zip(probes, CLI)}
    assert got == want


def test_every_public_name_is_probed_or_span_sized():
    probed = {name for name, _, _ in LIBRARY}
    assert not probed & SPAN_SIZED.keys()
    assert set(spehcalc.__all__) - SPAN_SIZED.keys() == probed


def test_every_cli_command_is_probed_or_span_sized():
    (subparsers,) = (a for a in build_parser()._actions if a.dest == "command")
    probed = {command for command, _, _, _ in CLI}
    assert not probed & SPAN_SIZED.keys()
    assert set(subparsers.choices) - SPAN_SIZED.keys() == probed
    assert all(argv[0] == command for command, argv, _, _ in CLI)
