"""Benchmark for spehcalc: four workloads, end-to-end metrics, and a
traced run for the per-layer metrics and scaling ladders.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones.  The same object, and with ``--trace 1`` every span, is also
written under ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import pickle
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decide", "enumerate", "support", "cli")
# At least ten latency samples lie beyond p95.
MIN_OPS = 200
# setup_s is the median of cold starts spread over the run: a few before
# every batch, and at least SETUP_STARTS in all.
SETUP_PER_BATCH = 2
SETUP_STARTS = 15
# Rounds per worker process: about two and a half seconds of work on
# this machine.
BATCH_ROUNDS = {"decide": 14, "enumerate": 1, "support": 2, "cli": 1}
BATCH_SECONDS = 2.5


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_batches(name: str, seed: int, traced: bool, env: dict, seconds: float = 0,
                min_ops: int = 0, batches: int = 1, between=lambda: None) -> dict:
    """Whole batches of rounds, each in a fresh ``worker.py`` process: at
    least ``batches`` of them, and more until both ``seconds`` have passed
    and ``min_ops`` operations were attempted.  Inputs are generated here,
    outside the timed calls.  ``between`` runs before every batch."""
    import gen

    rounds = gen.Rounds(name, seed)
    total = {"latencies": [], "rates": [], "attempted": 0, "failed": 0, "wrong": [],
             "peaks_kb": [], "totals": Counter(), "counts": Counter(), "spans": []}
    start = time.perf_counter()
    while True:
        batch = [rounds.next() for _ in range(BATCH_ROUNDS[name])]
        between()
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=env,
                              input=pickle.dumps((name, batch, traced, ROOT)),
                              capture_output=True, check=True, timeout=170)
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        result = pickle.loads(proc.stdout)
        for key in ("latencies", "rates", "wrong"):
            total[key] += result[key]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["peaks_kb"].append(result["peak_rss_kb"])
        if traced:
            total["totals"].update(result["totals"])
            total["counts"].update(result["counts"])
            base = len(total["spans"]) and total["spans"][-1][0] + 1
            total["spans"] += [(base + op, *rest) for op, *rest in result["spans"]]
        if (len(total["peaks_kb"]) >= batches and time.perf_counter() - start >= seconds
                and total["attempted"] >= min_ops):
            break
    for line in total["wrong"][:5]:
        print(f"wrong: {line}", file=sys.stderr)
    total.update(rounds=rounds.index, wall_s=time.perf_counter() - start)
    return total


def end_to_end(loop: dict) -> dict:
    ms = [x / 1e6 for x in loop["latencies"]]
    return {
        "ops_per_s": (statistics.median(loop["rates"]), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p95_ms": (statistics.quantiles(ms, n=20)[18], "ms"),
        "peak_rss_mb": (statistics.median(loop["peaks_kb"]) / 1024, "MB"),
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spehcalc" / "__init__.py").is_file():
        print(f"error: no spehcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    env = workloads.cli_env(ROOT)
    if args.trace:
        # A fixed amount of work, so that layer totals compare across
        # commits: the batches --seconds holds at this machine's pace, then
        # one batch of every other workload, so that each layer is measured
        # whichever workload the run is for.
        loop = run_batches(args.workload, args.seed, True, env,
                           batches=math.ceil(args.seconds / BATCH_SECONDS))
        totals, counts, wrong = loop["totals"], loop["counts"], len(loop["wrong"])
        for other in WORKLOADS:
            if other != args.workload:
                sample = run_batches(other, args.seed, True, env)
                totals.update(sample["totals"])
                counts.update(sample["counts"])
                wrong += len(sample["wrong"])
        metrics = {f"{layer}_ms": (totals[layer] / 1e6, "ms") for layer in tracing.LAYERS}
        metrics.update({name: (counts[name], "count") for name in tracing.COUNTS})
        metrics.update({k: (v, "ms") for k, v in tracing.import_breakdown(env, ROOT).items()})
        ladders = tracing.run_ladders(args.seed, env, ROOT)
        metrics.update({k: (v, "count" if k == "ladder.timeouts" else "ms") for k, v in ladders.items()})
        extra = {"traced_loop": {k: v for k, (v, _) in end_to_end(loop).items()}}
    else:
        module = "spehcalc.cli" if args.workload == "cli" else "spehcalc"
        tracing.cold_start(module, env, ROOT)  # leaves the bytecode cache warm
        setup = []

        def starts(n=SETUP_PER_BATCH):
            setup.extend(tracing.cold_start(module, env, ROOT) for _ in range(n))

        loop = run_batches(args.workload, args.seed, False, env, args.seconds, MIN_OPS,
                           between=starts)
        starts(max(0, SETUP_STARTS - len(setup)))
        wrong = len(loop["wrong"])
        metrics = {"setup_s": (statistics.median(setup), "s"), **end_to_end(loop)}
        extra = {"setup_samples_s": setup}

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(names) != sorted(metrics):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(metrics))}",
              file=sys.stderr)
        return 1
    result = {
        "correct": wrong == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {**result, "rounds": loop["rounds"], "wall_s": loop["wall_s"], **extra}
    (out_dir / f"result-{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        (out_dir / f"spans-{stem}.json").write_text(json.dumps(loop["spans"]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
