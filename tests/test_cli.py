"""CLI tests: golden outputs, exit codes, JSON schema, flag behaviour."""

from __future__ import annotations

import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import spehcalc
from spehcalc import Matching, ParseError, format_param, parse_param, parse_rep, parse_segment, parse_support
from spehcalc.cli import main
from _gen import LARGE_FALSE_DRAWS, segment_type_draw

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))

GOLDEN_ARGV = {
    "ext_triv3_st2": ["ext", "triv(3)", "st(2)"],
    "ext_st5_triv4": ["ext", "st(5)", "triv(4)"],
    "strong_counterexample": ["strong", "u(rho;2,3)", "u(rho;3,1)+rho+rho"],
    "matchings_gl13_gl12": [
        "matchings",
        "u(one;1,7) + u(one;5,1) + chi",
        "u(one;1,6) + u(one;6,1)",
    ],
    "hom_triv3_st2": ["hom", "triv(3)", "st(2)"],
    "relevant_st2_triv1": ["relevant", "st(2)", "triv(1)"],
    "ext_triv3_st2_json": ["ext", "--json", "triv(3)", "st(2)"],
    "strong_counterexample_json": ["strong", "--json", "u(rho;2,3)", "u(rho;3,1)+rho+rho"],
    "matchings_gl13_gl12_json": [
        "matchings",
        "--json",
        "u(one;1,7) + u(one;5,1) + chi",
        "u(one;1,6) + u(one;6,1)",
    ],
    # captured before relevant, strong and hom shared one verdict handler
    "hom_st2_triv1": ["hom", "st(2)", "triv(1)"],
    "hom_st2_triv1_json": ["hom", "--json", "st(2)", "triv(1)"],
    "relevant_st2_triv1_json": ["relevant", "--json", "st(2)", "triv(1)"],
    "relevant_triv3_st2": ["relevant", "triv(3)", "st(2)"],
    "strong_triv3_st2": ["strong", "triv(3)", "st(2)"],
}

# csupp goldens were captured from the expanded-twist implementation
CSUPP_PARAM = "u(rho;2,3) + u(sigma:2;3,3) + u(rho;1,2) + chi + u(rho;3,1)"
CSUPP_GOLDEN_ARGV = {
    "csupp_param": ["csupp", CSUPP_PARAM],
    "csupp_param_json": ["csupp", "--json", CSUPP_PARAM],
    "csupp_segment_rep": ["csupp", "Z[-1/2..5/2]{rho}"],
    "csupp_segment_rep_json": ["csupp", "--json", "Z[-1/2..5/2]{rho}"],
}


# Parse-error goldens, captured before the one-pass tokenizer (the entries
# from "u_term_as_symbol" on, before whole Speh terms became one token): for
# each input, the error's text, span and expected set, and where a
# subcommand reads that kind of input, its exit code, stdout and stderr.
PARSE_ERRORS = json.loads((GOLDEN / "parse_errors.json").read_text(encoding="utf-8"))
PARSERS = {f.__name__: f for f in (parse_param, parse_rep, parse_segment, parse_support)}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_golden_output(capsys, name):
    code, out, _ = run(capsys, GOLDEN_ARGV[name])
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    assert code == EXIT_CODES[name]


@pytest.mark.parametrize("name", sorted(CSUPP_GOLDEN_ARGV))
def test_csupp_golden_output(capsys, name):
    code, out, _ = run(capsys, CSUPP_GOLDEN_ARGV[name])
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
    assert code == 0


def readme_examples():
    """The ``$ spehcalc ...`` lines of the README's CLI section, each with
    the lines shown under it up to the next blank line or fence."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples, shown = [], None
    for line in section.splitlines():
        if line.startswith("$ spehcalc "):
            shown = []
            examples.append((line[2:], shown))
        elif not line or line.startswith("```"):
            shown = None
        elif shown is not None:
            shown.append(line)
    return examples


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize("command, shown", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_cli_example(capsys, command, shown):
    """Each CLI example in the README prints the lines shown under it and,
    where it echoes ``exit $?``, exits with the code shown last."""
    command, echo, _ = command.partition('; echo "exit $?"')
    code, out, _ = run(capsys, shlex.split(command)[1:])
    if echo:
        *shown, exit_line = shown
        assert exit_line == f"exit {code}"
    assert out.splitlines() == shown


@pytest.mark.parametrize("case", PARSE_ERRORS, ids=[c["name"] for c in PARSE_ERRORS])
def test_parse_error_golden(capsys, case):
    with pytest.raises(ParseError) as info:
        PARSERS[case["parser"]](case["text"])
    err = info.value
    assert str(err) == case["str"]
    assert [err.span.start, err.span.end] == case["span"]
    assert sorted(err.expected) == case["expected"]
    if "argv" in case:
        assert run(capsys, case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


class TestCalculatorCommands:
    def test_parse(self, capsys):
        code, out, _ = run(capsys, ["parse", "chi + st(5)"])
        assert code == 0
        assert out == "u(chi;1,1) + u(one;5,1)\ndim 6\n"

    def test_parse_segment_rep(self, capsys):
        code, out, _ = run(capsys, ["parse", "Q[0..2]{sigma:2}"])
        assert code == 0
        assert out == "Q[0..2]{sigma:2}\ndim 6\n"

    def test_dual(self, capsys):
        code, out, _ = run(capsys, ["dual", "u(rho;2,3) + st(4)"])
        assert code == 0
        assert out == "u(one;1,4) + u(rho;3,2)\ndim 10\n"

    def test_dual_of_segment_rep_flips_kind(self, capsys):
        code, out, _ = run(capsys, ["dual", "Z[0..1]{rho}"])
        assert code == 0
        assert out.splitlines()[0] == "Q[0..1]{rho}"

    def test_minus_reports_drops(self, capsys):
        code, out, _ = run(capsys, ["minus", "u(one;1,7) + u(one;5,1) + chi"])
        assert code == 0
        assert out == "u(one;1,6)\ndim 6\ndropped: u(chi;1,1), u(one;5,1)\n"

    # (id, degree): two degrees of one id, and a symbol of degree 2
    MINUS_SYMBOLS = (("chi", 1), ("rho", 1), ("rho", 3), ("sigma", 2))

    @staticmethod
    def raw_term_text(symbol, degree, a, b):
        return f"u({symbol if degree == 1 else f'{symbol}:{degree}'};{a},{b})"

    @pytest.mark.parametrize("seed", range(30))
    def test_minus_against_raw_terms(self, capsys, seed):
        # Several cuspidal lines, each with repeated terms; the reference
        # steps the raw (id, degree, a, b) tuples and sorts them itself.
        rng = random.Random(seed)
        raw = []
        for symbol, degree in rng.sample(self.MINUS_SYMBOLS, rng.randint(2, 4)):
            for a, b in sorted({(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))}):
                raw += [(symbol, degree, a, b)] * rng.randint(1, 3)
        rng.shuffle(raw)
        kept = sorted((symbol, degree, a, b - 1) for symbol, degree, a, b in raw if b > 1)
        dropped = sorted(term for term in raw if term[3] == 1)
        canonical = " + ".join(self.raw_term_text(*term) for term in kept) or "0"
        dim = sum(degree * a * (b - 1) for _, degree, a, b in raw)
        dropped_text = [self.raw_term_text(*term) for term in dropped]
        expr = " + ".join(self.raw_term_text(*term) for term in raw)

        code, out, _ = run(capsys, ["minus", expr])
        lines = [canonical, f"dim {dim}"] + (["dropped: " + ", ".join(dropped_text)] if dropped else [])
        assert (code, out) == (0, "\n".join(lines) + "\n")
        code, out, _ = run(capsys, ["minus", "--json", expr])
        assert code == 0
        assert json.loads(out) == {"canonical": canonical, "dim": dim, "dropped": dropped_text}

    def test_csupp(self, capsys):
        code, out, _ = run(capsys, ["csupp", "u(rho;2,2)"])
        assert code == 0
        assert out == "{nu^-1 rho, rho, rho, nu^1 rho}\n"

    def test_jacquet(self, capsys):
        code, out, _ = run(capsys, ["jacquet", "Q", "std", "[-1..1]{rho}", "1"])
        assert code == 0
        assert out == "Q[0..1]{rho} (x) Q[-1..-1]{rho}\n"

    def test_jacquet_json_keeps_the_factor_order(self, capsys):
        code, out, _ = run(capsys, ["jacquet", "--json", "Q", "std", "[-1..1]{rho}", "1"])
        assert code == 0
        assert json.loads(out) == {"zero": False, "factors": ["Q[0..1]{rho}", "Q[-1..-1]{rho}"]}
        code, out, _ = run(capsys, ["jacquet", "--json", "Z", "opp", "[0..2]{sigma:2}", "3"])
        assert (code, json.loads(out)) == (0, {"zero": True})

    def test_jacquet_zero(self, capsys):
        code, out, _ = run(capsys, ["jacquet", "Z", "opp", "[0..2]{sigma:2}", "3"])
        assert code == 0
        assert out == "0\n"

    def test_ep(self, capsys):
        code, out, _ = run(capsys, ["ep", "st(5)", "st(4)"])
        assert (code, out) == (0, "1\n")
        code, out, _ = run(capsys, ["ep", "st(5)", "triv(4)"])
        assert (code, out) == (1, "0\n")

    def test_samegroup(self, capsys):
        code, out, _ = run(capsys, ["samegroup", "triv(4)", "st(4)"])
        assert (code, out) == (0, "Ext != 0\n")
        code, out, _ = run(capsys, ["samegroup", "u(rho;1,2)", "u(chi;1,2)"])
        assert (code, out) == (1, "Ext = 0\n")


class TestFlags:
    def test_quiet_suppresses_stdout(self, capsys):
        code, out, _ = run(capsys, ["ext", "--quiet", "triv(3)", "st(2)"])
        assert (code, out) == (0, "")
        code, out, _ = run(capsys, ["ext", "--quiet", "st(5)", "triv(4)"])
        assert (code, out) == (1, "")

    def test_json_certificate_parses_under_schema(self, capsys):
        code, out, _ = run(capsys, ["strong", "--json", "triv(3)", "st(2)"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is True
        matching = Matching.from_json_dict(payload["certificate"])
        assert len(matching.pairs) == 1

    def test_json_on_every_subcommand(self, capsys):
        cases = [
            ["parse", "--json", "st(3)"],
            ["dual", "--json", "st(3)"],
            ["minus", "--json", "st(3)"],
            ["csupp", "--json", "st(3)"],
            ["jacquet", "--json", "Q", "std", "[-1..1]{one}", "1"],
            ["relevant", "--json", "st(3)", "st(2)"],
            ["strong", "--json", "st(3)", "st(2)"],
            ["matchings", "--json", "st(3)", "st(2)"],
            ["hom", "--json", "st(3)", "st(2)"],
            ["ext", "--json", "st(3)", "st(2)"],
            ["samegroup", "--json", "st(3)", "triv(3)"],
            ["ep", "--json", "st(3)", "st(2)"],
        ]
        for argv in cases:
            run_code, out, _ = run(capsys, argv)
            assert run_code == 0, argv
            json.loads(out)

    def test_decider_selection(self, capsys):
        for decider in ("matcher", "recursive", "both"):
            code, out, _ = run(capsys, ["ext", "--json", "--decider", decider, "triv(3)", "st(2)"])
            assert code == 0
            payload = json.loads(out)
            assert payload["verdict"] is True
            assert payload["decider"] == decider
        assert json.loads(out)["certificate"] is not None


class TestErrorChannels:
    def test_parse_error_exit_2(self, capsys):
        code, out, err = run(capsys, ["parse", "u(rho;0,3)"])
        assert code == 2
        assert out == ""
        assert "parse error" in err and "at" in err

    def test_usage_error_exit_2(self, capsys):
        assert main(["no-such-command"]) == 2
        capsys.readouterr()
        assert main(["ext", "--no-such-flag", "a", "b"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_jacquet_bad_split_exit_2(self, capsys):
        code, out, err = run(capsys, ["jacquet", "Q", "std", "[-1..1]{rho}", "5"])
        assert code == 2
        assert out == ""
        assert "split size" in err

    def test_hypothesis_violation_exit_3(self, capsys):
        code, out, err = run(capsys, ["ext", "u(rho;2,3)", "u(rho;3,1)+rho+rho"])
        assert code == 3
        assert out == ""
        assert "u(rho;2,3)" in err
        code, _, err = run(capsys, ["hom", "st(3)", "st(3)"])
        assert code == 3
        assert "(n, n-1)" in err

    def test_many_copies_decide_without_internal_error(self, capsys):
        code, out, err = run(capsys, ["ext", "+".join(["rho"] * 1500), "+".join(["rho"] * 1499)])
        assert code == 0
        assert out.startswith("Ext != 0\n")
        assert err == ""

    @pytest.mark.parametrize("name", sorted(LARGE_FALSE_DRAWS))
    def test_large_false_draws_exit_1(self, capsys, name):
        a1, a2 = segment_type_draw(**LARGE_FALSE_DRAWS[name])
        assert run(capsys, ["ext", format_param(a1), format_param(a2)]) == (1, "Ext = 0\n", "")

    def test_huge_arthur_dimensions_exit_0(self, capsys):
        code, out, err = run(capsys, ["ext", "u(rho;1,1000000000)", "u(rho;1,999999999)"])
        assert (code, err) == (0, "")
        assert out == "Ext != 0\n  F1: u(rho;1,1000000000) -> u(rho;1,999999999)\n"

    def test_disagreeing_deciders_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr("spehcalc.cli.ext_branch_recursive", lambda a1, a2: False)
        code, out, err = run(capsys, ["ext", "triv(3)", "st(2)"])
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: deciders disagree")
        assert err.count("\n") == 1

    def test_support_restriction_disagreement_exit_4(self, capsys, monkeypatch):
        # a fault inside the same-support comparison is reported, never read as a verdict
        def boom(param):
            raise RuntimeError("boom")

        monkeypatch.setattr("spehcalc.relevance.diagonal_restriction", boom)
        code, out, err = run(capsys, ["samegroup", "triv(4)", "st(4)"])
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: boom")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_input_too_large_to_index_exit_4(self, capsys):
        code, out, err = run(capsys, ["csupp", "u(rho;99999999999999999999,1)"])
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_internal_error_without_message_names_its_class(self, capsys, monkeypatch):
        # csupp of u(rho;1,99999999999) fails this way, by running out of memory
        def out_of_memory(args):
            raise MemoryError()

        monkeypatch.setattr("spehcalc.cli._cmd_csupp", out_of_memory)
        assert run(capsys, ["csupp", "rho"]) == (4, "", "internal error: MemoryError\n")

    def test_quiet_errors_still_reported(self, capsys):
        code, _, err = run(capsys, ["ext", "--quiet", "u(rho;2,3)", "u(rho;3,1)+rho+rho"])
        assert code == 3
        assert err != ""


def test_import_leaves_json_and_fractions_unloaded():
    """``import spehcalc.cli`` loads neither json nor fractions (nor the
    decimal module that fractions pulls in); they load where used.  Nor
    does it load dataclasses or the inspect module that dataclasses pulls
    in: the value types are plain ``__slots__`` classes.  It does load all
    seven spehcalc modules, each eagerly (the benchmark's import breakdown
    reads one ``-X importtime`` line for each)."""
    src = str(Path(spehcalc.__file__).resolve().parents[1])
    probe = (
        "import sys, spehcalc.cli; "
        "print(sorted({'json', 'fractions', 'decimal', 'dataclasses', 'inspect'} & set(sys.modules))); "
        "print(sorted(m for m in sys.modules if m.startswith('spehcalc.')))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    # -S: no site hooks, which may import modules of their own
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, encoding="utf-8",
                          check=True)
    unloaded, loaded = proc.stdout.splitlines()
    assert unloaded == "[]"
    modules = ("branching", "cli", "core", "dsl", "relevance", "segments", "sl2")
    assert loaded == str([f"spehcalc.{m}" for m in modules])


class TestHugeSegments:
    """Same-group verdicts on segments of length 10^9 come from the
    mathematics, not from memory: each runs in a child process capped at
    1 GiB of address space, where one array as long as the exponent span
    (16 GB of list slots here) fails at once with exit 4 rather than paging."""

    TRUE = ("u(rho;1,1000000000)", "u(rho;1000000000,1)")
    # one length moved by one on each side: same dimension, other support
    FALSE = ("u(rho;1,1000000000) + u(rho;2,1)", "u(rho;1000000001,1) + u(rho;1,1)")

    @staticmethod
    def run_capped(args):
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = {**os.environ, "PYTHONPATH": str(Path(spehcalc.__file__).resolve().parents[1])}
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, encoding="utf-8",
                              timeout=60, preexec_fn=cap)

    @pytest.mark.parametrize("pair, code, out", [(TRUE, 0, "Ext != 0\n"), (FALSE, 1, "Ext = 0\n")])
    def test_samegroup_cli(self, pair, code, out):
        proc = self.run_capped(["-m", "spehcalc.cli", "samegroup", *pair])
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")

    @pytest.mark.parametrize("pair, verdict", [(TRUE, True), (FALSE, False)])
    def test_same_group_ext_segment_type(self, pair, verdict):
        probe = (
            "import sys; from spehcalc import parse_param, same_group_ext_segment_type; "
            "print(same_group_ext_segment_type(*map(parse_param, sys.argv[1:])))"
        )
        proc = self.run_capped(["-c", probe, *pair])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{verdict}\n", "")


class TestClosedStdout:
    """A reader that closes stdout before the output is written leaves the
    verdict in the exit code: no ``internal error``, nothing on stderr."""

    @staticmethod
    def command(*argv):
        env = {**os.environ, "PYTHONPATH": str(Path(spehcalc.__file__).resolve().parents[1])}
        return [sys.executable, "-m", "spehcalc.cli", *argv], env

    def test_large_output_closed_after_20_bytes_exits_0(self):
        # about 1.2 MB of support, far more than a pipe holds
        argv, env = self.command("csupp", "u(rho;300,300)")
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            head = proc.stdout.read(20)
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.wait(timeout=60)
        assert (head, proc.returncode, stderr) == (b"{nu^-299 rho, nu^-29", 0, b"")

    @pytest.mark.parametrize("command, code", [("strong", 0), ("relevant", 1)])
    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_verdict_to_a_closed_reader_keeps_its_exit_code(self, command, code, flags):
        read_end, write_end = os.pipe()
        os.close(read_end)
        argv, env = self.command(command, *flags, "triv(3)", "st(2)")
        try:
            proc = subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, b"")
