"""Seeded input generators for the benchmark workloads and ladders.

Every generator draws from a ``random.Random`` and returns plain data:
terms are tuples ``(symbol_id, degree, a, b)`` for u_rho(a, b), and the
program receives them only as texts.  Nothing here calls into spehcalc,
so a change to the program or to its tests cannot shift an input.

A workload runs in rounds.  Every round has the same make-up (the MIX
tables below), so a run of whole rounds always has the same shares of
each kind and size class, whatever its seed and length.
"""

from __future__ import annotations

import random

from check import GGP, STRONG, half_text, param_text, symbol_text, term_text

# Named cuspidals (id, degree); "one" is the trivial-character line.
CUSPIDALS = (
    ("one", 1), ("rho", 1), ("sigma", 2), ("tau", 1), ("pi", 3),
    ("chi", 1), ("eta", 2), ("mu", 1),
)
# Cuspidals put on one side only, to make a pair irrelevant.
FRESH = (("omega", 1), ("zeta", 2), ("xi", 1))


def cuspidal(rng: random.Random) -> tuple:
    """A numbered cuspidal r0..r99 of degree 1 to 3, for input variety."""
    return (f"r{rng.randrange(100)}", rng.randint(1, 3))


def partner(t: tuple, family: str):
    """The right term a family pairs with the left term t, or None when
    the family steps down from Arthur dimension 1."""
    sid, deg, c, d = t
    if family == "F1":
        return (sid, deg, c, d - 1) if d >= 2 else None
    if family == "F2":
        return (sid, deg, c, d + 1)
    if family == "F3":
        return (sid, deg, d - 1, c) if d >= 2 else None
    return (sid, deg, d, c + 1)


def is_segment(t: tuple) -> bool:
    return t[2] == 1 or t[3] == 1


def dim(terms: list) -> int:
    return sum(deg * a * b for _, deg, a, b in terms)


def matched_pair(rng: random.Random, pairs: int, pads: int, families: tuple,
                 segment_type: bool, max_dim: int = 5, cuspidals=None):
    """A pair that is relevant by construction: draw left terms and a
    family for each, put the partner on the right, then add ``pads``
    Arthur-dimension-1 terms (which a matching may drop) to the sides."""
    cuspidals = cuspidals or rng.sample(CUSPIDALS, rng.randint(2, 4))
    left, right = [], []
    while len(left) < pairs:
        sid, deg = rng.choice(cuspidals)
        if segment_type:
            n = rng.randint(1, max_dim + 1)
            t = (sid, deg, 1, n) if rng.random() < 0.5 else (sid, deg, n, 1)
        else:
            t = (sid, deg, rng.randint(1, max_dim), rng.randint(1, max_dim))
        p = partner(t, rng.choice(families))
        if p is not None and segment_type and not is_segment(p):
            continue
        left.append(t)
        if p is not None:
            right.append(p)
    for _ in range(pads):
        side = left if rng.random() < 0.5 else right
        side.append((*rng.choice(cuspidals), rng.randint(1, 3), 1))
    return left, right


def break_pair(rng: random.Random, left: list, right: list) -> None:
    """Make a pair irrelevant: one side gains a term of Arthur dimension
    >= 2 on a cuspidal the other side lacks."""
    sid, deg = rng.choice(FRESH)
    side = left if rng.random() < 0.5 else right
    side.append((sid, deg, 1, rng.randint(2, 4)))


def balance(left: list, right: list) -> None:
    """Add Arthur-dimension-1 terms on the trivial line until
    dim(left) = dim(right) + 1, as the (GL_n, GL_(n-1)) theorems need."""
    gap = dim(left) - dim(right) - 1
    side = right if gap > 0 else left
    gap = abs(gap)
    while gap > 0:
        step = min(gap, 6)
        side.append(("one", 1, step, 1))
        gap -= step


def pair_op(kind: str, left: list, right: list, **extra) -> dict:
    return {"kind": kind, "left": left, "right": right,
            "key": (kind, param_text(left), param_text(right)), **extra}


class Rounds:
    """The rounds of one workload under one seed.  Round r is the same
    list for a given seed however many rounds a run reaches, and no
    input repeats within a run."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}/{seed}")
        self.make = MAKERS[workload]
        self.seen: set = set()
        self.index = 0

    def fresh(self, build) -> dict:
        while True:
            op = build()
            if op["key"] not in self.seen:
                self.seen.add(op["key"])
                return op

    def next(self) -> list:
        ops = self.make(self)
        self.rng.shuffle(ops)
        self.index += 1
        return ops


# -- decide: 22 operations a round -------------------------------------------------

# (kind, size class, operations per round).  Sizes count the terms of
# both sides: small 10-20, medium 20-35, large 35-50, and F the k-copies
# family below.  Half of each kind is relevant by construction.
DECIDE_MIX = (
    ("strong", "S", 2), ("strong", "M", 3), ("strong", "L", 2), ("strong", "F", 2),
    ("hom", "S", 2), ("hom", "M", 3), ("hom", "L", 1),
    ("ext", "S", 2), ("ext", "M", 3), ("ext", "L", 2),
)
DECIDE_SIZES = {"S": (10, 20), "M": (20, 35), "L": (35, 50)}
# Class F: the k-copies family with 3 + 3 copies on two fresh cuspidals
# (30-35 terms), false when the right side also carries a term of Arthur
# dimension >= 2 on a cuspidal the left lacks.  Its search costs about the
# same either way (some 45 ms today) and more than all but about 2 % of
# the other operations, so p95 falls inside this class (the slowest 9 %
# of a round) rather than on the thin tail of the large class, which
# moves from run to run.
DECIDE_FAMILY = (3, 3)


def decide_pair(rng: random.Random, kind: str, size: str, truth: bool) -> dict:
    if size == "F":
        op = family_op(rng, DECIDE_FAMILY)
        left, right = op["left"], op["right"]
        if not truth:
            right.append((*rng.choice(FRESH), 1, rng.randint(2, 4)))
        return pair_op(kind, left, right, size=size, truth=truth)
    lo, hi = DECIDE_SIZES[size]
    total = rng.randint(lo, hi)
    pads = rng.randint(total // 5, total // 3)
    families = GGP if kind == "hom" else STRONG
    left, right = matched_pair(rng, max(1, (total - pads) // 2), pads, families, kind == "ext")
    if not truth:
        break_pair(rng, left, right)
    if kind != "strong":
        balance(left, right)
    return pair_op(kind, left, right, size=size, truth=truth)


def _decide_round(src: Rounds) -> list:
    ops = []
    for kind, size, count in DECIDE_MIX:
        for i in range(count):
            # alternate so that each kind and size is half true over two rounds
            truth = (i + src.index) % 2 == 0
            ops.append(src.fresh(lambda: decide_pair(src.rng, kind, size, truth)))
    return ops


# -- enumerate: 40 operations a round ------------------------------------------------

# (how K total copies of the k-copies family split over cuspidals,
# operations per round); the other ENUM_SMALL operations of a round are
# small random pairs.  Costs grow about 7x per copy, so the classes order
# the latencies: p50 falls inside K = 2 (40-65 % of a round).  K = 4 on a
# single cuspidal, the costliest shape, is the slowest tenth of a round,
# so p95 falls in its middle.  K = 5 (about a second each) is left to the
# enum_k ladder: one such operation would take half of every round and
# leave a run too few rounds.
ENUM_FAMILIES = (
    ((4,), 4), ((2, 2), 2), ((3, 1), 2),
    ((3,), 2), ((2, 1), 2), ((1, 1, 1), 2),
    ((2,), 5), ((1, 1), 5),
    ((1,), 6),
)
ENUM_SMALL = 10
# The shapes of each K, for the cli workload's small families.
SHAPES = {2: ((2,), (1, 1)), 1: ((1,),)}


def copies_family(copies: dict) -> tuple[list, list]:
    """sum over r of k x u(r;1,3) + k x u(r;2,2)  against
    k x u(r;1,2) + k x u(r;2,1) + k x u(r;2,3)."""
    left, right = [], []
    for (sid, deg), k in copies.items():
        left += [(sid, deg, 1, 3)] * k + [(sid, deg, 2, 2)] * k
        right += [(sid, deg, 1, 2)] * k + [(sid, deg, 2, 1)] * k + [(sid, deg, 2, 3)] * k
    return left, right


def family_op(rng: random.Random, ks: tuple) -> dict:
    """The family with ks[i] copies on the i-th of fresh random cuspidals,
    plus Arthur-dimension-1 terms on cuspidals the other side lacks (so
    they can only be dropped and the matching count stays prod(k + 1))."""
    parts = len(ks)
    names = []
    while len(names) < parts + 2:
        c = cuspidal(rng)
        if c[0] not in {n[0] for n in names}:
            names.append(c)
    copies = dict(zip(names, ks))
    left, right = copies_family(copies)
    left += [(*names[parts], rng.randint(1, 4), 1) for _ in range(rng.randint(0, 2))]
    right += [(*names[parts + 1], rng.randint(1, 4), 1) for _ in range(rng.randint(0, 2))]
    return pair_op("family", left, right, copies=list(ks))


def small_pair_op(rng: random.Random) -> dict:
    names = [cuspidal(rng) for _ in range(2)]
    left, right = matched_pair(rng, rng.randint(1, 3), rng.randint(0, 2), STRONG, False,
                               max_dim=4, cuspidals=names)
    if rng.random() < 0.3:
        break_pair(rng, left, right)
    return pair_op("small", left, right)


def _enumerate_round(src: Rounds) -> list:
    ops = [src.fresh(lambda: family_op(src.rng, ks)) for ks, n in ENUM_FAMILIES for _ in range(n)]
    ops += [src.fresh(lambda: small_pair_op(src.rng)) for _ in range(ENUM_SMALL)]
    return ops


# -- support: 20 operations a round --------------------------------------------------

# (size class, kind, operations per round); sizes are total twists a*b
# of the parameter: small 200-800, medium 1500-3000, large 8000-10000.
# Every round has the same kinds in the same classes.  Large segment-type
# pairs cost about twice the other large ones, so they alone are the
# slowest tenth of a round and p95 falls in their middle, not on the
# boundary between two kinds.
SUPPORT_MIX = (
    ("S", "rewrite", 2), ("S", "perturbed", 2), ("S", "segment", 2),
    ("M", "rewrite", 4), ("M", "perturbed", 3), ("M", "segment", 3),
    ("L", "rewrite", 1), ("L", "perturbed", 1), ("L", "segment", 2),
)
SUPPORT_SIZES = {"S": (200, 800), "M": (1500, 3000), "L": (8000, 10000)}


def big_param(rng: random.Random, size: str) -> list:
    lo, hi = SUPPORT_SIZES[size]
    total = rng.randint(lo, hi)
    terms = []
    for share in ([1.0] if rng.random() < 0.5 else [0.6, 0.4]):
        twists = int(total * share)
        a = rng.randint(2, int(twists ** 0.5))
        terms.append((*cuspidal(rng), a, max(2, twists // a)))
    return terms


def split(rng: random.Random, t: tuple) -> list:
    """The segment-type terms of t's diagonal SL2 decomposition, each
    as u(r;1,d) or u(r;d,1) at random: the support is unchanged."""
    sid, deg, a, b = t
    return [(sid, deg, 1, d) if rng.random() < 0.5 else (sid, deg, d, 1)
            for d in range(a + b - 1, abs(a - b), -2)]


def rewrite(rng: random.Random, terms: list) -> list:
    """Keep, swap the two SL2 factors of, or split each term."""
    out = []
    for t in terms:
        roll = rng.random()
        if roll < 0.3:
            out.append(t)
        elif roll < 0.65:
            out.append((t[0], t[1], t[3], t[2]))
        else:
            out += split(rng, t)
    return out


def perturb(rng: random.Random, terms: list) -> list:
    """Reshape one term, or move it to another cuspidal."""
    out = list(terms)
    i = rng.randrange(len(out))
    sid, deg, a, b = out[i]
    out[i] = (sid, deg, a + 1, b - 1) if rng.random() < 0.5 else (*cuspidal(rng), a, b)
    return out


def support_op(rng: random.Random, size: str, kind: str) -> dict:
    base = big_param(rng, size)
    if kind == "rewrite":
        left, right = base, rewrite(rng, base)
    elif kind == "perturbed":
        left, right = base, rewrite(rng, perturb(rng, base))
    else:
        left = [s for t in base for s in split(rng, t)]
        right = [s for t in base for s in split(rng, t)]
        if rng.random() < 0.5:
            i = max(range(len(right)), key=lambda j: right[j][2] * right[j][3])
            sid, deg, a, b = right[i]
            right[i:i + 1] = [(sid, deg, a, b - 1), (sid, deg, a, 1)] if a == 1 else \
                [(sid, deg, a - 1, b), (sid, deg, 1, b)]
    return pair_op(kind, left, right, size=size)


def _support_round(src: Rounds) -> list:
    return [src.fresh(lambda: support_op(src.rng, size, kind))
            for size, kind, count in SUPPORT_MIX for _ in range(count)]


# -- cli: 28 processes a round ------------------------------------------------------

# (subcommand, processes per round, how many of them with --json).  One
# more process a round runs the failing ext below, and CLI_LARGE more
# print a large support.
CLI_MIX = (
    ("ext", 4, 2), ("hom", 3, 1), ("strong", 3, 1), ("relevant", 3, 1),
    ("matchings", 3, 1), ("csupp", 3, 1), ("parse", 3, 1), ("jacquet", 2, 1),
)
# ``csupp`` of one term with 28 000-32 000 twists: some 150 ms of core and
# dsl work on top of start-up.  These are the slowest tenth of a round, so
# p95 falls in their middle rather than on the tail of start-up times,
# which the host's load sets.
CLI_LARGE = 3
CLI_LARGE_TWISTS = (28000, 32000)
# ``ext`` on (500 + r) copies of rho against (499 + r) copies overflows
# the recursion limit in the recursive decider, which ``--decider both``
# (the default) runs.  The right answer is "Ext != 0": every term has
# Arthur dimension 1.
FAILING_COPIES = 500


def surface(rng: random.Random, t: tuple) -> str:
    """One of the equivalent spellings the grammar allows for a term."""
    sid, deg, a, b = t
    sym = symbol_text(sid, deg)
    forms = [term_text(t)]
    if sid == "one" and a == 1:
        forms.append(f"triv({b})")
    if sid == "one" and b == 1:
        forms.append(f"st({a})")
    if a == 1 or b == 1:
        n = max(a, b)
        forms.append(f"{'Z' if a == 1 else 'Q'}[{half_text(1 - n)}..{half_text(n - 1)}]{{{sym}}}")
    if a == 1 and b == 1:
        forms.append(sym)
    return rng.choice(forms)


def spelled(rng: random.Random, terms: list) -> str:
    if not terms:
        return "0"
    order = list(terms)
    rng.shuffle(order)
    text = surface(rng, order[0])
    for t in order[1:]:
        text += rng.choice((" + ", "+", " x ")) + surface(rng, t)
    return text


def cli_op(rng: random.Random, command: str, json_mode: bool) -> dict:
    flags = ["--json"] if json_mode else []
    if command in ("ext", "hom", "strong", "relevant", "matchings"):
        if command == "matchings" and rng.random() < 0.5:
            op = family_op(rng, rng.choice(SHAPES[rng.randint(1, 2)]))
        elif command in ("ext", "hom"):
            op = decide_pair(rng, command, "S", rng.random() < 0.5)
        else:
            families = GGP if command == "relevant" else STRONG
            left, right = matched_pair(rng, rng.randint(1, 4), rng.randint(0, 2), families, False,
                                       max_dim=4)
            if rng.random() < 0.5:
                break_pair(rng, left, right)
            op = pair_op(command, left, right)
        argv = [command, spelled(rng, op["left"]), spelled(rng, op["right"])]
    elif command in ("csupp", "parse"):
        terms = [(*rng.choice(CUSPIDALS), rng.randint(1, 5), rng.randint(1, 5))
                 for _ in range(rng.randint(1, 5))]
        spelling = spelled(rng, terms)
        # a lone Z/Q term reads as a segment representation, not a parameter
        op = {"left": terms, "segment_rep": spelling if spelling[:2] in ("Z[", "Q[") and
              len(terms) == 1 else None}
        argv = [command, spelling]
    else:
        sid, deg = rng.choice(CUSPIDALS)
        n = rng.randint(2, 7)
        lo2 = rng.randint(-6, 6)
        kind, side = rng.choice("ZQ"), rng.choice(("std", "opp"))
        op = {"segment": (kind, side, sid, deg, lo2, lo2 + 2 * (n - 1))}
        split_at = rng.randint(1, n * deg - 1)
        segment = f"[{half_text(lo2)}..{half_text(lo2 + 2 * (n - 1))}]{{{symbol_text(sid, deg)}}}"
        argv = ["jacquet", kind, side, segment, str(split_at)]
        op["split"] = split_at
    op.update(kind=command, argv=argv + flags, json=json_mode, key=tuple(argv + flags))
    return op


def large_csupp_op(rng: random.Random) -> dict:
    twists = rng.randint(*CLI_LARGE_TWISTS)
    a = rng.randint(100, 200)
    term = (*cuspidal(rng), a, twists // a)
    argv = ["csupp", term_text(term)]
    return {"kind": "csupp", "left": [term], "segment_rep": None, "argv": argv, "json": False,
            "key": tuple(argv)}


def failing_op(index: int) -> dict:
    """The known failure of round ``index``; it does not depend on the seed."""
    copies = FAILING_COPIES + index
    left, right = [("rho", 1, 1, 1)] * copies, [("rho", 1, 1, 1)] * (copies - 1)
    argv = ["ext", "+".join(["rho"] * copies), "+".join(["rho"] * (copies - 1))]
    return {"kind": "ext", "left": left, "right": right, "argv": argv, "json": False,
            "key": tuple(argv), "known_failure": True}


def _cli_round(src: Rounds) -> list:
    ops = []
    for command, count, with_json in CLI_MIX:
        for i in range(count):
            ops.append(src.fresh(lambda: cli_op(src.rng, command, i < with_json)))
    ops += [src.fresh(lambda: large_csupp_op(src.rng)) for _ in range(CLI_LARGE)]
    ops.append(src.fresh(lambda: failing_op(src.index)))
    return ops


MAKERS = {
    "decide": _decide_round,
    "enumerate": _enumerate_round,
    "support": _support_round,
    "cli": _cli_round,
}


# -- ladders ------------------------------------------------------------------------

def ladder_inputs(name: str, n: int, seed: int) -> list:
    """The inputs of one ladder point, as (left text, right text) pairs."""
    rng = random.Random(f"ladder/{name}/{n}/{seed}")
    if name == "strong_terms":
        pairs = []
        for _ in range(3):
            left, right = matched_pair(rng, n, rng.randint(0, 4), STRONG, False, max_dim=6)
            pairs.append((param_text(left), param_text(right)))
        return pairs
    if name in ("ext_matcher_n", "ext_recursive_n"):
        rng = random.Random(f"ladder/ext_n/{n}/{seed}")
        return [(param_text(segment_product(rng, n)), param_text(segment_product(rng, n - 1)))
                for _ in range(3)]
    if name == "enum_k":
        left, right = copies_family({("rho", 1): n})
        return [(param_text(left), param_text(right))]
    if name == "csupp_ab":
        return [(f"u(rho;{n},{n})", "")]
    raise ValueError(f"unknown ladder {name!r}")


def segment_product(rng: random.Random, total: int, max_len: int = 6) -> list:
    """A random product of segment-type terms of dimension exactly total."""
    terms, left = [], total
    cuspidals = (("one", 1), ("rho", 1), ("sigma", 2))
    while left > 0:
        sid, deg = rng.choice([c for c in cuspidals if c[1] <= left])
        n = rng.randint(1, min(left // deg, max_len))
        terms.append((sid, deg, n, 1) if rng.random() < 0.5 else (sid, deg, 1, n))
        left -= deg * n
    return terms
