"""One scaling-ladder point, run in a child process so that the parent
can kill it at its cap.

    python3 bench/ladder.py LADDER N SEED

prints the milliseconds the point's calls took.  The ladders are listed
in ``tracing.LADDERS``; their inputs come from ``gen.ladder_inputs``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    name, n, seed = argv[0], int(argv[1]), int(argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import gen
    from spehcalc import (
        csupp_param,
        enumerate_strong_matchings,
        ext_branch_recursive,
        ext_branch_segment_type,
        parse_param,
        strong_ext_relevant,
    )

    call = {
        "strong_terms": strong_ext_relevant,
        "ext_matcher_n": ext_branch_segment_type,
        "ext_recursive_n": ext_branch_recursive,
        "enum_k": enumerate_strong_matchings,
        "csupp_ab": lambda p, _: csupp_param(p),
    }[name]
    pairs = [(parse_param(a), parse_param(b or "0")) for a, b in gen.ladder_inputs(name, n, seed)]
    start = time.perf_counter()
    for a1, a2 in pairs:
        call(a1, a2)
    print(f"{(time.perf_counter() - start) * 1000:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
