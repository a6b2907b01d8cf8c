"""Runs one batch of a workload's rounds in a fresh process.

``run.py`` sends the batch on stdin and reads the result on stdout, both
pickled (only ever written by these two files).  Each batch runs in its
own process so that peak resident memory can be taken per batch: one
input with an exceptionally large search sets the peak of its batch
only, and the run reports the median over batches.
"""

from __future__ import annotations

import pickle
import resource
import sys
import time
from pathlib import Path


def run_batch(name: str, rounds: list, traced: bool, root: Path) -> dict:
    """Closed loop, one operation at a time.  Checks run outside the timed
    calls; a crash of the program counts as a failed operation."""
    import tracing
    import workloads
    from check import CheckFailed

    workload = workloads.make(name, root)
    t = tracing.Tracer() if traced else workloads.Direct
    latencies, rates, wrong = [], [], []
    attempted = failed = 0
    for ops in rounds:
        busy = done = 0
        for op in ops:
            attempted += 1
            t0 = time.perf_counter_ns()
            try:
                out = workload.run(op, t)
            except Exception as exc:
                elapsed = time.perf_counter_ns() - t0
                busy += elapsed
                failed += 1
                if traced:
                    t.operation(t0, t0 + elapsed)
                if not op.get("known_failure"):
                    print(f"failed: {op['key'][:2]}: {exc!r}", file=sys.stderr)
                continue
            elapsed = time.perf_counter_ns() - t0
            if traced:
                t.operation(t0, t0 + elapsed)
            busy += elapsed
            done += 1
            latencies.append(elapsed)
            try:
                workload.check(op, out)
            except CheckFailed as exc:
                wrong.append(f"{op['key'][:2]}: {exc}")
        rates.append(done * 1e9 / busy)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    result = {"latencies": latencies, "rates": rates, "attempted": attempted, "failed": failed,
              "wrong": wrong, "peak_rss_kb": resource.getrusage(who).ru_maxrss}
    if traced:
        result.update(totals=t.totals, counts=t.counts, spans=t.spans)
    return result


def main() -> int:
    name, rounds, traced, root = pickle.load(sys.stdin.buffer)
    sys.path.insert(0, str(root / "src"))
    result = run_batch(name, rounds, traced, root)
    sys.stdout.buffer.write(pickle.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
