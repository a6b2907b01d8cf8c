"""Repeat the benchmark over several seeds and summarise the spread.

    python3 bench/sweep.py --workloads decide,cli --seeds 1-10 --seconds 20
    python3 bench/sweep.py --seeds 1-10 --seconds 20 --traced-seed 1 --out bench/reference.json

Runs ``bench/run.py`` once per (workload, seed), one process at a time,
and reports for every end-to-end metric the median and the quartile
spread (q3 - q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  With ``--traced-seed``
it also makes one traced run per workload and keeps its per-layer
metrics and its traced loop figures, from which the tracing overhead is
read.  The summary is written to ``--out`` (default
``bench/out/sweep.json``); ``bench/reference.json`` holds the reference
figures the README quotes.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {"runs": len(results),
           "correct": all(r["correct"] for r in results),
           "failed_share": sorted({f"{r['failed']}/{r['attempted']}" for r in results}),
           "metrics": {}}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out["metrics"][name] = {
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "unit": results[0]["metrics"][name]["unit"], "values": values,
        }
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="decide,enumerate,support,cli")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "sweep.json")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = {"machine": f"{platform.machine()}, {platform.python_implementation()} "
                          f"{platform.python_version()}, seconds={args.seconds}",
               "workloads": {}}
    for workload in args.workloads.split(","):
        entry = summarise([run(workload, s, args.seconds, 0) for s in seeds(args.seeds)])
        for name, m in entry["metrics"].items():
            flag = "" if m["spread"] < bounds[name] / 3 else "  (spread >= bound/3)"
            print(f"{workload:10} {name:16} median {m['median']:12.4f} {m['unit']:5} "
                  f"spread {m['spread']:.3f}{flag}")
        print(f"{workload:10} correct {entry['correct']} failed {entry['failed_share']}")
        if args.traced_seed is not None:
            traced = run(workload, args.traced_seed, args.seconds, 1)
            details = json.loads((HERE / "out" /
                                  f"result-{workload}-seed{args.traced_seed}-trace1.json").read_text())
            entry["traced"] = {"seed": args.traced_seed, "correct": traced["correct"],
                               "loop": details["traced_loop"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        summary["workloads"][workload] = entry
        args.out.parent.mkdir(exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
