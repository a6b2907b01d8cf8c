"""Command-line front end.

Every decision procedure is exposed as a subcommand whose verdict is the
exit code: 0 for a true verdict (or plain success), 1 for a false
verdict, 2 for usage or parse errors, 3 for a violated theorem
hypothesis, 4 for an internal error (so that no failure reads as a
verdict).  ``--json`` switches the output to machine-readable form and
``--quiet`` suppresses stdout entirely, leaving the exit code as the sole
verdict channel.  A reader that closes stdout early does not change the
exit code either.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

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
    _format_u,
    format_param,
    format_segment_rep,
    format_support,
    format_symbol,
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
)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_INTERNAL = 4


def _emit(args: argparse.Namespace, lines: list[str], payload: dict) -> None:
    if args.quiet:
        return
    if args.json:
        import json

        lines = [json.dumps(payload, indent=2, sort_keys=True)]
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # The reader closed stdout, as "| head" does; the exit code still
        # carries the verdict.  What is left in the buffer goes to devnull,
        # so that the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _matching_lines(matching: Matching) -> list[str]:
    lines = []
    for p in matching.pairs:
        lines.append(f"  {p.family.value}: {format_term(p.left)} -> {format_term(p.right)}")
    if matching.dropped_left:
        dropped = ", ".join(format_term(s) for s in matching.dropped_left)
        lines.append(f"  dropped left: {dropped}")
    if matching.dropped_right:
        dropped = ", ".join(format_term(s) for s in matching.dropped_right)
        lines.append(f"  dropped right: {dropped}")
    return lines


def _matching_json(matching: Optional[Matching]) -> Optional[dict]:
    return matching.to_json_dict() if matching is not None else None


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
    # On the parameter's lines: u(a, b) steps down to u(a, b-1), which
    # keeps a line's keys sorted, and drops when b = 1.
    param = parse_param(args.expr)
    kept_lines = []
    dropped = []  # in canonical order, one entry a copy
    for rho, keys, counts in param._lines:
        symbol_text = format_symbol(rho)
        kept_keys, kept_counts = [], []
        for (a, b), n in zip(keys, counts):
            if b > 1:
                kept_keys.append((a, b - 1))
                kept_counts.append(n)
            else:
                dropped += [_format_u(symbol_text, a, 1)] * n
        if kept_keys:
            kept_lines.append((rho, tuple(kept_keys), tuple(kept_counts)))
    result = ArthurParameter._from_lines(tuple(kept_lines))
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
    result = jacquet(args.kind, side, segment, args.split)
    if result.is_zero:
        _emit(args, ["0"], {"zero": True})
    else:
        omega1, omega2 = result.factors
        text = f"{format_segment_rep(omega1)} (x) {format_segment_rep(omega2)}"
        _emit(
            args,
            [text],
            {"zero": False, "factors": [format_segment_rep(omega1), format_segment_rep(omega2)]},
        )
    return EXIT_TRUE


def _verdict_exit(verdict: bool) -> int:
    return EXIT_TRUE if verdict else EXIT_FALSE


def _report(args: argparse.Namespace, verdict: bool, certificate: Optional[Matching],
            true_line: str, false_line: str, **extra) -> int:
    lines = [true_line if verdict else false_line]
    if certificate is not None:
        lines.extend(_matching_lines(certificate))
    _emit(args, lines, {"verdict": verdict, "certificate": _matching_json(certificate), **extra})
    return _verdict_exit(verdict)


# command -> (certificate of a parameter pair or None, true line, false line)
_VERDICTS = {
    "relevant": (lambda a1, a2: find_matching(a1, a2, GGP_FAMILIES), "relevant", "not relevant"),
    "strong": (
        lambda a1, a2: find_matching(a1, a2, STRONG_FAMILIES),
        "strong ext relevant",
        "not strong ext relevant",
    ),
    "hom": (lambda a1, a2: hom_branch_arthur(a1, a2).certificate, "Hom != 0", "Hom = 0"),
}


def _cmd_verdict(args: argparse.Namespace) -> int:
    certify, true_line, false_line = _VERDICTS[args.command]
    certificate = certify(parse_param(args.expr1), parse_param(args.expr2))
    return _report(args, certificate is not None, certificate, true_line, false_line)


def _cmd_matchings(args: argparse.Namespace) -> int:
    a1, a2 = parse_param(args.expr1), parse_param(args.expr2)
    matchings = enumerate_strong_matchings(a1, a2)
    lines = [f"{len(matchings)} matching(s)"]
    for index, matching in enumerate(matchings, start=1):
        lines.append(f"matching {index}:")
        lines.extend(_matching_lines(matching))
    payload = {"count": len(matchings), "matchings": [m.to_json_dict() for m in matchings]}
    _emit(args, lines, payload)
    return _verdict_exit(bool(matchings))


def _cmd_ext(args: argparse.Namespace) -> int:
    a1, a2 = parse_param(args.expr1), parse_param(args.expr2)
    certificate = None
    if args.decider != "recursive":
        certificate = ext_branch_segment_type(a1, a2).certificate
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

    p = sub.add_parser("jacquet", help="Jacquet module of a segment representation")
    p.add_argument("kind", choices=["Z", "Q"])
    p.add_argument("side", choices=["std", "opp"])
    p.add_argument("segment")
    p.add_argument("split", type=int)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_jacquet)

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
    except ValueError as exc:  # bad argument values, e.g. split out of range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, e.g. an input too large to index
        # some exceptions (MemoryError) carry no message: name the class instead
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
