"""Command-line front end.

Every decision procedure is exposed as a subcommand whose verdict is the
exit code: 0 for a true verdict (or plain success), 1 for a false
verdict, 2 for usage or parse errors, 3 for a violated theorem
hypothesis, 4 for an internal error (so that no failure reads as a
verdict).  Every certificate is checked against its pair, under the
verdict's move families, before anything is printed: one that fails is
an internal error.  ``--json`` switches the output to machine-readable
form and ``--quiet`` suppresses stdout entirely, leaving the exit code as
the sole verdict channel.  A reader that closes stdout early does not
change the exit code either.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from .branching import (
    HypothesisError,
    euler_poincare,
    ext_branch_recursive,
    ext_branch_segment_type,
    hom_branch_arthur,
    same_group_ext_segment_type,
)
from .core import ArthurParameter, csupp_param
from .dsl import (
    ParseError,
    format_param,
    format_segment_rep,
    format_support,
    format_term,
    parse_param,
    parse_rep,
    parse_segment,
)
from .relevance import (
    GGP_FAMILIES,
    STRONG_FAMILIES,
    Matching,
    enumerate_strong_matchings,
    find_matching,
)
from .segments import (
    OPPOSITE,
    STANDARD,
    SegmentRep,
    az_dual_param,
    csupp_segment,
    jacquet,
    speh_minus,
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_INTERNAL = 4


def _matching_json(value: object) -> dict:
    """Encode the matchings a payload holds; refuse anything else as json does."""
    if value.__class__ is not Matching:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    return value.to_json_dict()


def _emit(args: argparse.Namespace, lines: Iterable[str], payload: dict) -> None:
    """Print the lines, or with ``--json`` the payload: only that form is rendered."""
    if args.quiet:
        return
    if args.json:
        import json

        text = json.dumps(payload, indent=2, sort_keys=True, default=_matching_json)
    else:
        text = "\n".join(lines)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout, as "| head" does; the exit code still
        # carries the verdict.  What is left in the buffer goes to devnull,
        # so that the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _matching_lines(header: str, matching: Optional[Matching]) -> Iterator[str]:
    """The header line, then the matching's pairs and drops, if any."""
    yield header
    if matching is None:
        return
    for p in matching.pairs:
        yield f"  {p.family.value}: {format_term(p.left)} -> {format_term(p.right)}"
    for side, dropped in (("left", matching.dropped_left), ("right", matching.dropped_right)):
        if dropped:
            yield f"  dropped {side}: " + ", ".join(map(format_term, dropped))


def _cmd_parse(args: argparse.Namespace) -> int:
    """``parse`` echoes the value, ``dual`` its Aubert-Zelevinsky dual."""
    value = parse_rep(args.expr)
    if isinstance(value, SegmentRep):
        if args.command == "dual":
            value = SegmentRep("Q" if value.kind == "Z" else "Z", value.segment)
        canonical, dim = format_segment_rep(value), value.degree
    else:
        if args.command == "dual":
            value = az_dual_param(value)
        canonical, dim = format_param(value), value.dim
    _emit(args, [canonical, f"dim {dim}"], {"canonical": canonical, "dim": dim})
    return EXIT_TRUE


def _cmd_minus(args: argparse.Namespace) -> int:
    kept = []
    dropped = []  # in canonical order, one entry a copy
    for term in parse_param(args.expr):
        lower = speh_minus(term)
        if lower is None:
            dropped.append(format_term(term))
        else:
            kept.append(lower)
    result = ArthurParameter(kept)
    canonical = format_param(result)
    lines = [canonical, f"dim {result.dim}"]
    if dropped:
        lines.append("dropped: " + ", ".join(dropped))
    _emit(args, lines, {"canonical": canonical, "dim": result.dim, "dropped": dropped})
    return EXIT_TRUE


def _cmd_csupp(args: argparse.Namespace) -> int:
    value = parse_rep(args.expr)
    if isinstance(value, SegmentRep):
        support = csupp_segment(value.segment)
    else:
        support = csupp_param(value)
    text = format_support(support)
    _emit(args, [text], {"support": text, "count": len(support)})
    return EXIT_TRUE


def _cmd_jacquet(args: argparse.Namespace) -> int:
    segment = parse_segment(args.segment)
    side = STANDARD if args.side == "std" else OPPOSITE
    try:
        result = jacquet(args.kind, side, segment, args.split)
    except ValueError as exc:  # the split out of range: the one refusal user input reaches
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if result.is_zero:
        _emit(args, ["0"], {"zero": True})
    else:
        factors = [format_segment_rep(omega) for omega in result.factors]
        _emit(args, [" (x) ".join(factors)], {"zero": False, "factors": factors})
    return EXIT_TRUE


def _verdict_exit(verdict: bool) -> int:
    return EXIT_TRUE if verdict else EXIT_FALSE


def _report(args: argparse.Namespace, verdict: bool, certificate: Optional[Matching],
            true_line: str, false_line: str, **extra) -> int:
    lines = _matching_lines(true_line if verdict else false_line, certificate)
    _emit(args, lines, {"verdict": verdict, "certificate": certificate, **extra})
    return _verdict_exit(verdict)


# command -> (the verdict's move families, true line, false line)
_VERDICTS = {
    "relevant": (GGP_FAMILIES, "relevant", "not relevant"),
    "strong": (STRONG_FAMILIES, "strong ext relevant", "not strong ext relevant"),
    "hom": (GGP_FAMILIES, "Hom != 0", "Hom = 0"),
}


def _cmd_verdict(args: argparse.Namespace) -> int:
    families, true_line, false_line = _VERDICTS[args.command]
    a1, a2 = parse_param(args.expr1), parse_param(args.expr2)
    if args.command == "hom":
        certificate = hom_branch_arthur(a1, a2).certificate
    else:
        certificate = find_matching(a1, a2, families)
    if certificate is not None:
        certificate.validate(a1, a2, families)
    return _report(args, certificate is not None, certificate, true_line, false_line)


def _cmd_matchings(args: argparse.Namespace) -> int:
    a1, a2 = parse_param(args.expr1), parse_param(args.expr2)
    matchings = enumerate_strong_matchings(a1, a2)
    for matching in matchings:
        matching.validate(a1, a2, STRONG_FAMILIES)
    lines = chain([f"{len(matchings)} matching(s)"], *(
        _matching_lines(f"matching {index}:", matching) for index, matching in enumerate(matchings, start=1)
    ))
    _emit(args, lines, {"count": len(matchings), "matchings": matchings})
    return _verdict_exit(bool(matchings))


def _cmd_ext(args: argparse.Namespace) -> int:
    a1, a2 = parse_param(args.expr1), parse_param(args.expr2)
    certificate = None
    if args.decider != "recursive":
        certificate = ext_branch_segment_type(a1, a2).certificate
        if certificate is not None:
            certificate.validate(a1, a2, STRONG_FAMILIES)
    verdict = certificate is not None
    if args.decider != "matcher":
        recursive = ext_branch_recursive(a1, a2)
        if args.decider == "both" and recursive != verdict:
            raise RuntimeError(
                f"deciders disagree on ({args.expr1!r}, {args.expr2!r}): "
                f"matcher={verdict} recursive={recursive}"
            )
        verdict = recursive
    return _report(args, verdict, certificate, "Ext != 0", "Ext = 0", decider=args.decider)


def _cmd_samegroup(args: argparse.Namespace) -> int:
    a1, a2 = parse_param(args.expr1), parse_param(args.expr2)
    verdict = same_group_ext_segment_type(a1, a2)
    _emit(args, ["Ext != 0" if verdict else "Ext = 0"], {"verdict": verdict})
    return _verdict_exit(verdict)


def _cmd_ep(args: argparse.Namespace) -> int:
    a1, a2 = parse_param(args.expr1), parse_param(args.expr2)
    value = euler_poincare(a1, a2)
    _emit(args, [str(value)], {"value": value})
    return _verdict_exit(value != 0)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--quiet", action="store_true", help="exit code only, no stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spehcalc",
        description="Hom/Ext branching calculator for Arthur-type representations of p-adic GL(n)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, exprs: Sequence[str]) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        for expr in exprs:
            p.add_argument(expr)
        _add_common_flags(p)
        p.set_defaults(func=func)
        return p

    add("parse", _cmd_parse, "echo the canonical form and dimension", ["expr"])
    add("dual", _cmd_parse, "Aubert-Zelevinsky dual", ["expr"])
    add("minus", _cmd_minus, "termwise Arthur step down, reporting drops", ["expr"])
    add("csupp", _cmd_csupp, "cuspidal support multiset", ["expr"])

    p = add("jacquet", _cmd_jacquet, "Jacquet module of a segment representation", [])
    p.add_argument("kind", choices=["Z", "Q"])
    p.add_argument("side", choices=["std", "opp"])
    p.add_argument("segment")
    p.add_argument("split", type=int)

    add("relevant", _cmd_verdict, "relevance of a parameter pair", ["expr1", "expr2"])
    add("strong", _cmd_verdict, "strong Ext relevance of a parameter pair", ["expr1", "expr2"])
    add("matchings", _cmd_matchings, "enumerate all strong matchings", ["expr1", "expr2"])
    add("hom", _cmd_verdict, "Hom branching verdict for a (n, n-1) pair", ["expr1", "expr2"])

    p = add("ext", _cmd_ext, "Ext branching verdict for a segment-type (n, n-1) pair", ["expr1", "expr2"])
    p.add_argument("--decider", choices=["matcher", "recursive", "both"], default="both")

    add("samegroup", _cmd_samegroup, "same-group Ext verdict for segment-type products", ["expr1", "expr2"])
    add("ep", _cmd_ep, "Euler-Poincare pairing value", ["expr1", "expr2"])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisError as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except Exception as exc:  # a fault of the program, e.g. an input too large to index
        # some exceptions (MemoryError) carry no message: name the class instead
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
