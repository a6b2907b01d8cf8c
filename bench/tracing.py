"""Tracing for the per-layer metrics: spans around every call the
benchmark makes into a layer, cold-start probes for the CLI layer, and
the scaling ladders.

Spans are kept in memory and written out when the run ends.  Each span
is (operation id, name, start ns, end ns); name "op" is the operation
itself, and the layer spans of one operation share its id, so the
operation is the span that caused them.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

LADDERS = (
    ("strong_terms", (10, 20, 40, 60, 80)),
    ("ext_matcher_n", (30, 60, 120, 240)),
    ("ext_recursive_n", (30, 60, 120, 240)),
    ("enum_k", (2, 3, 4, 5, 6, 7)),
    ("csupp_ab", (50, 100, 200, 300)),
)
# Hard cap per ladder point, in seconds: a point still running then is
# killed and recorded as a timeout.
LADDER_CAP_S = 4.0

# Per-layer metrics: each layer span name maps to "<name>_ms".
LAYERS = (
    "dsl.parse", "relevance.strong_true", "relevance.strong_false", "branching.hom",
    "branching.ext_matcher", "branching.ext_recursive", "relevance.validate", "dsl.format",
    "relevance.enumerate", "relevance.json", "core.csupp", "sl2.restriction",
    "relevance.same_support", "branching.samegroup", "core.central_exponent",
    "dsl.format_support", "cli.command",
)
COUNTS = ("dsl.terms_parsed", "relevance.matchings", "core.support_entries")
MODULES = ("core", "sl2", "segments", "relevance", "branching", "dsl", "cli")


class Tracer:
    """The traced caller: one span per call into a layer."""

    traced = True

    def __init__(self):
        self.spans: list[tuple] = []
        self.totals: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = 0

    def call(self, layer, fn, *args):
        start = time.perf_counter_ns()
        result = fn(*args)
        end = time.perf_counter_ns()
        name = layer(result) if callable(layer) else layer
        self.spans.append((self.op_id, name, start, end))
        self.totals[name] += end - start
        return result

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def operation(self, start: int, end: int) -> None:
        self.spans.append((self.op_id, "op", start, end))
        self.op_id += 1


def _run(argv: list, env: dict, cwd: Path, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, check=True, **kw)


def cold_start(module: str, env: dict, cwd: Path) -> float:
    """Wall seconds of one cold interpreter importing ``module``."""
    start = time.perf_counter()
    _run([sys.executable, "-c", f"import {module}"], env, cwd)
    return time.perf_counter() - start


_IMPORT_RE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s+)(\S+)")


def import_breakdown(env: dict, cwd: Path, n: int = 5) -> dict:
    """The cli layer's start-up: bare interpreter, the whole import of
    spehcalc.cli, and each spehcalc module's cumulative import time from
    ``python -X importtime`` (medians of n starts, in ms)."""
    bare = []
    for _ in range(n):
        start = time.perf_counter()
        _run([sys.executable, "-c", "pass"], env, cwd)
        bare.append((time.perf_counter() - start) * 1000)
    per_module: dict = {m: [] for m in MODULES}
    whole = []
    for _ in range(n):
        err = _run([sys.executable, "-X", "importtime", "-c", "import spehcalc.cli"], env, cwd).stderr
        cumulative = {m.group(4): int(m.group(2)) for m in _IMPORT_RE.finditer(err)}
        for m in MODULES:
            per_module[m].append(cumulative[f"spehcalc.{m}"] / 1000)
        whole.append((cumulative["spehcalc"] + cumulative["spehcalc.cli"]) / 1000)
    out = {"cli.interpreter_ms": statistics.median(bare), "cli.import_ms": statistics.median(whole)}
    for m in MODULES:
        out[f"cli.import.{m}_ms"] = statistics.median(per_module[m])
    return out


def run_ladders(seed: int, env: dict, cwd: Path) -> dict:
    """Every ladder point in its own process, killed at LADDER_CAP_S.  A
    finished point reports the time of its calls; a killed one reports
    the wall time until the kill and counts in ladder.timeouts."""
    out, timeouts = {}, 0
    script = Path(__file__).with_name("ladder.py")
    for name, points in LADDERS:
        for n in points:
            start = time.perf_counter()
            try:
                proc = _run([sys.executable, str(script), name, str(n), str(seed)], env, cwd,
                            timeout=LADDER_CAP_S)
                value = float(proc.stdout.split()[-1])
            except subprocess.TimeoutExpired:
                value = (time.perf_counter() - start) * 1000
                timeouts += 1
            out[f"ladder.{name}_{n}_ms"] = value
    out["ladder.timeouts"] = timeouts
    return out
