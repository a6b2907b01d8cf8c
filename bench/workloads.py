"""The four workloads: what one operation does, and how its output is
checked against the references in ``check``.

An operation calls into the program only through ``t.call(layer, fn,
*args)`` and ``t.count(name, n)``.  In an untraced run ``t`` is
``Direct``, which just calls ``fn``; in a traced run it is a
``tracing.Tracer``, which records one span per call.  So both runs execute
the same code.  Only names in ``spehcalc.__all__`` and the CLI are used.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import check
from check import GGP, STRONG, expect

from spehcalc import (
    central_exponent,
    csupp_param,
    diagonal_restriction,
    enumerate_ggp_matchings,
    enumerate_strong_matchings,
    ext_branch_recursive,
    ext_branch_segment_type,
    format_support,
    format_term,
    hom_branch_arthur,
    parse_param,
    same_cuspidal_support,
    same_group_ext_segment_type,
    strong_ext_relevant,
)


class OperationFailed(Exception):
    """The program crashed on an operation instead of answering."""


class Direct:
    """The untraced caller: no bookkeeping at all."""

    traced = False

    @staticmethod
    def call(layer, fn, *args):
        return fn(*args)

    @staticmethod
    def count(name: str, n: int) -> None:
        pass


def certificate_lines(matching) -> list[str]:
    """A certificate as a user prints it, one line per pair or drop list."""
    lines = [f"  {p.family.value}: {format_term(p.left)} -> {format_term(p.right)}"
             for p in matching.pairs]
    for side, terms in (("left", matching.dropped_left), ("right", matching.dropped_right)):
        if terms:
            lines.append(f"  dropped {side}: " + ", ".join(format_term(s) for s in terms))
    return lines


def parse_pair(op: dict, t):
    a1 = t.call("dsl.parse", parse_param, op["key"][1])
    a2 = t.call("dsl.parse", parse_param, op["key"][2])
    t.count("dsl.terms_parsed", len(a1) + len(a2))
    return a1, a2


def _strong_layer(verdict: bool) -> str:
    return "relevance.strong_true" if verdict else "relevance.strong_false"


class Decide:
    """Library Hom/Ext verdicts with their certificates."""

    def run(self, op: dict, t) -> dict:
        a1, a2 = parse_pair(op, t)
        if op["kind"] == "strong":
            return {"verdict": t.call(_strong_layer, strong_ext_relevant, a1, a2)}
        if op["kind"] == "hom":
            verdict = t.call("branching.hom", hom_branch_arthur, a1, a2)
            out = {"verdict": verdict.nonvanishing}
        else:
            verdict = t.call("branching.ext_matcher", ext_branch_segment_type, a1, a2)
            out = {"verdict": verdict.nonvanishing,
                   "recursive": t.call("branching.ext_recursive", ext_branch_recursive, a1, a2)}
        if verdict.certificate is not None:
            t.call("relevance.validate", verdict.certificate.validate, a1, a2)
            out["lines"] = t.call("dsl.format", certificate_lines, verdict.certificate)
        return out

    def check(self, op: dict, out: dict) -> None:
        families = GGP if op["kind"] == "hom" else STRONG
        truth = check.relevant(op["left"], op["right"], families)
        expect(truth == op["truth"], f"generator built a {op['truth']} pair that is {truth}")
        expect(out["verdict"] == truth, f"{op['kind']} verdict {out['verdict']} on {op['key']}")
        if op["kind"] == "ext":
            expect(out["recursive"] == truth, f"recursive verdict differs on {op['key']}")
        if op["kind"] != "strong":
            expect(("lines" in out) == truth, "certificate present exactly for true verdicts")
            if truth:
                cert = check.certificate_of_lines(out["lines"])
                check.check_certificate(cert, op["left"], op["right"], families)


def render_json(strong: list, ggp: list) -> str:
    return json.dumps({"strong": [m.to_json_dict() for m in strong],
                       "ggp": [m.to_json_dict() for m in ggp]})


class Enumerate:
    """Every strong and GGP matching, rendered as JSON certificates."""

    def run(self, op: dict, t) -> str:
        a1, a2 = parse_pair(op, t)
        strong = t.call("relevance.enumerate", enumerate_strong_matchings, a1, a2)
        ggp = t.call("relevance.enumerate", enumerate_ggp_matchings, a1, a2)
        t.count("relevance.matchings", len(strong) + len(ggp))
        return t.call("relevance.json", render_json, strong, ggp)

    def check(self, op: dict, out: str) -> None:
        data = json.loads(out)
        check_matchings(op, data["strong"], STRONG)
        check_matchings(op, data["ggp"], GGP)


def check_matchings(op: dict, certs: list, families: tuple) -> None:
    """Every certificate valid and distinct, and the whole set complete:
    by closed form on the k-copies family, by brute force otherwise."""
    keys = set()
    for cert in certs:
        check.check_certificate(cert, op["left"], op["right"], families)
        keys.add(check.certificate_key(cert))
    expect(len(keys) == len(certs), "a matching is listed twice")
    if op["kind"] == "family":
        # the only GGP matching sends every u(r;2,2) to u(r;2,3) by F2
        want = check.copies_family_count(dict(enumerate(op["copies"]))) if families == STRONG else 1
        expect(len(keys) == want, f"{len(keys)} matchings, closed form says {want}")
    else:
        expect(keys == check.brute_matchings(op["left"], op["right"], families),
               f"matchings differ from brute force on {op['key']}")


class Support:
    """Cuspidal supports, restrictions and support comparisons."""

    def run(self, op: dict, t) -> dict:
        p, q = parse_pair(op, t)
        out = {"same": t.call("relevance.same_support", same_cuspidal_support, p, q)}
        if op["kind"] == "segment":
            out["samegroup"] = t.call("branching.samegroup", same_group_ext_segment_type, p, q)
        support = t.call("core.csupp", csupp_param, p)
        t.count("core.support_entries", len(support))
        out["count"], out["degree"] = len(support), support.total_degree
        out["central"] = t.call("core.central_exponent", central_exponent, support)
        out["text"] = t.call("dsl.format_support", format_support, support)
        out["restriction"] = t.call("sl2.restriction", diagonal_restriction, p)
        return out

    def check(self, op: dict, out: dict) -> None:
        left = check.support(op["left"])
        same = left == check.support(op["right"])
        expect(out["same"] == same, f"same_cuspidal_support wrong on {op['key'][:2]}")
        if op["kind"] == "segment":
            expect(out["samegroup"] == same, "same-group verdict differs from the supports")
        expect(out["count"] == check.twist_count(op["left"]), "wrong number of twists")
        expect(out["degree"] == check.total_degree(op["left"]), "wrong support degree")
        expect(out["central"] == check.central_exponent(left) == 0, "unitary but central exponent != 0")
        expect(out["text"] == check.support_text(left), "format_support text differs")
        restriction = Counter((s.id, s.degree, d) for s, d in out["restriction"])
        expect(restriction == check.restriction(op["left"]), "diagonal restriction differs")


VERDICT_WORDS = {
    "ext": ("Ext = 0", "Ext != 0"),
    "hom": ("Hom = 0", "Hom != 0"),
    "strong": ("not strong ext relevant", "strong ext relevant"),
    "relevant": ("not relevant", "relevant"),
}
# An exit code above 3 is not a verdict, and a negative one is a signal.
VERDICT_CODES = (0, 1, 2, 3)


def cli_env(root: Path) -> dict:
    """The environment of every child: spehcalc from the checkout's src/,
    and bytecode cached as for an installed package, whatever the
    caller's PYTHONDONTWRITEBYTECODE."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Cli:
    """One ``python -m spehcalc.cli`` process per operation."""

    def __init__(self, root: Path):
        self.root = root
        self.env = cli_env(root)

    def spawn(self, argv: list) -> tuple:
        try:
            proc = subprocess.run([sys.executable, "-m", "spehcalc.cli", *argv], cwd=self.root,
                                  env=self.env, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired as exc:
            raise OperationFailed(f"timed out: {argv[:1]}") from exc
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def in_process(argv: list) -> None:
        from spehcalc.cli import main

        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                main(argv)
            except RecursionError:
                pass  # the known failure; the traced run only times the call

    def run(self, op: dict, t) -> tuple:
        code, out, err = t.call("cli.process", self.spawn, op["argv"])
        if t.traced:
            t.call("cli.command", self.in_process, op["argv"])
        if code not in VERDICT_CODES or "Traceback (most recent call last)" in err:
            raise OperationFailed(f"exit {code}: {err.strip().splitlines()[-1:]}")
        return code, out

    def check(self, op: dict, result: tuple) -> None:
        code, out = result
        lines = out.splitlines()
        data = json.loads(out) if op["json"] else None
        kind = op["kind"]
        if kind in VERDICT_WORDS:
            families = GGP if kind in ("hom", "relevant") else STRONG
            truth = check.relevant(op["left"], op["right"], families)
            expect(code == (0 if truth else 1), f"{kind} exit {code}, verdict should be {truth}")
            if data is not None:
                expect(data["verdict"] == truth, f"{kind} --json verdict")
                cert = data["certificate"]
            else:
                expect(lines[0] == VERDICT_WORDS[kind][truth], f"{kind} printed {lines[:1]}")
                cert = check.certificate_of_lines(lines[1:]) if len(lines) > 1 else None
            expect((cert is not None) == truth, f"{kind} certificate present exactly when true")
            if cert is not None:
                check.check_certificate(cert, op["left"], op["right"], families)
        elif kind == "matchings":
            if data is not None:
                certs = data["matchings"]
                expect(data["count"] == len(certs), "matchings --json count")
            else:
                certs, block = [], None
                for line in lines[1:]:
                    if line.startswith("matching "):
                        block = []
                        certs.append(block)
                    else:
                        block.append(line)
                certs = [check.certificate_of_lines(b) for b in certs]
                expect(lines[0] == f"{len(certs)} matching(s)", f"matchings printed {lines[:1]}")
            check_matchings(op, certs, STRONG)
            expect(code == (0 if certs else 1), f"matchings exit {code}")
        elif kind == "csupp":
            want = check.support_text(check.support(op["left"]))
            got = (data["support"], data["count"]) if data is not None else (out.rstrip("\n"), None)
            expect(got[0] == want, "csupp text differs")
            expect(got[1] in (None, check.twist_count(op["left"])), "csupp --json count")
            expect(code == 0, f"csupp exit {code}")
        elif kind == "parse":
            canonical = op["segment_rep"] or check.param_text(op["left"])
            dimension = sum(deg * a * b for _, deg, a, b in op["left"])
            if data is not None:
                expect(data == {"canonical": canonical, "dim": dimension}, "parse --json differs")
            else:
                expect(lines == [canonical, f"dim {dimension}"], f"parse printed {lines}")
            expect(code == 0, f"parse exit {code}")
        else:
            want = check.jacquet_text(*op["segment"], op["split"])
            if data is not None:
                got = "0" if data["zero"] else " (x) ".join(data["factors"])
            else:
                got = out.rstrip("\n")
            expect(got == want, f"jacquet printed {got!r}, expected {want!r}")
            expect(code == 0, f"jacquet exit {code}")


def make(name: str, root: Path):
    if name == "cli":
        return Cli(root)
    return {"decide": Decide, "enumerate": Enumerate, "support": Support}[name]()
