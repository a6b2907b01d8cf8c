"""Reference computations the benchmark checks the program against.

Nothing here calls into spehcalc.  Terms are plain tuples
``(symbol_id, degree, a, b)`` standing for u_rho(a, b); certificates are
read in their JSON form (``Matching.to_json_dict``).  Each reference is
derived from the definitions directly, not from the program's algorithms:

- relevance by bipartite matching (Mendelsohn-Dulmage): a pair is relevant
  exactly when one matching covers every left term of Arthur dimension > 1
  and another covers every right term of Arthur dimension > 1;
- certificates by rebuilding both multisets, testing the family equations
  coordinate by coordinate and applying the drop rule;
- enumeration by an index-level brute force, and by the closed form
  prod(k + 1) on the k-copies families;
- cuspidal supports, diagonal restrictions and their renderings by the
  closed forms of u_rho(a, b).
"""

from __future__ import annotations

import re
from collections import Counter, deque
from fractions import Fraction

STRONG = ("F1", "F2", "F3", "F4")
GGP = ("F1", "F2")


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


# -- move families -----------------------------------------------------------

def compatible(left: tuple, right: tuple, family: str) -> bool:
    """The family equations on coordinates: left u(c1,d1), right u(c2,d2)."""
    if left[:2] != right[:2]:
        return False
    c1, d1, c2, d2 = left[2], left[3], right[2], right[3]
    if family == "F1":
        return d1 >= 2 and c2 == c1 and d2 == d1 - 1
    if family == "F2":
        return c2 == c1 and d2 == d1 + 1
    if family == "F3":
        return d1 >= 2 and c2 == d1 - 1 and d2 == c1
    if family == "F4":
        return c2 == d1 and d2 == c1 + 1
    raise ValueError(f"unknown family {family!r}")


def _edges(left: list, right: list, families: tuple) -> list[list[int]]:
    return [
        [j for j, u in enumerate(right) if any(compatible(t, u, f) for f in families)]
        for t in left
    ]


def _covers(required: list[int], adjacency: list[list[int]], n_right: int) -> bool:
    """Whether one matching saturates every vertex in ``required``
    (augmenting paths found by breadth-first search, no recursion)."""
    mate_of_right = [-1] * n_right
    mate_of_left = [-1] * len(adjacency)
    for start in required:
        parent = {}
        queue = deque([start])
        seen = {start}
        end = -1
        while queue and end < 0:
            v = queue.popleft()
            for j in adjacency[v]:
                if j in parent:
                    continue
                parent[j] = v
                if mate_of_right[j] < 0:
                    end = j
                    break
                w = mate_of_right[j]
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if end < 0:
            return False
        j = end
        while j >= 0:
            v = parent[j]
            previous = mate_of_left[v]
            mate_of_left[v] = j
            mate_of_right[j] = v
            j = previous
    return True


def relevant(left: list, right: list, families: tuple) -> bool:
    """Reference relevance decider (Mendelsohn-Dulmage)."""
    forward = _edges(left, right, families)
    backward = [[] for _ in right]
    for i, js in enumerate(forward):
        for j in js:
            backward[j].append(i)
    need_left = [i for i, t in enumerate(left) if t[3] > 1]
    need_right = [j for j, u in enumerate(right) if u[3] > 1]
    return _covers(need_left, forward, len(right)) and _covers(need_right, backward, len(left))


# -- certificates ------------------------------------------------------------

def term_of_json(data: dict) -> tuple:
    return (data["rho"]["id"], data["rho"]["degree"], data["deligne"], data["arthur"])


def check_certificate(cert: dict, left: list, right: list, families: tuple) -> None:
    """Check a JSON certificate against the pair it claims to decompose."""
    pairs = [(term_of_json(p["left"]), term_of_json(p["right"]), p["family"]) for p in cert["pairs"]]
    dropped_left = [term_of_json(t) for t in cert["dropped_left"]]
    dropped_right = [term_of_json(t) for t in cert["dropped_right"]]
    expect(
        Counter(l for l, _, _ in pairs) + Counter(dropped_left) == Counter(left),
        "certificate does not rebuild the left parameter",
    )
    expect(
        Counter(r for _, r, _ in pairs) + Counter(dropped_right) == Counter(right),
        "certificate does not rebuild the right parameter",
    )
    for l, r, family in pairs:
        expect(family in families, f"family {family} not allowed here")
        expect(compatible(l, r, family), f"{l} -> {r} is not an {family} pair")
    for t in dropped_left + dropped_right:
        expect(t[3] == 1, f"dropped term {t} has Arthur dimension {t[3]}")


_TERM_RE = re.compile(r"u\(([A-Za-z_][A-Za-z0-9_]*)(?::([0-9]+))?;([0-9]+),([0-9]+)\)")
_PAIR_RE = re.compile(r"\s*(F[1-4]): (\S+) -> (\S+)$")


def term_of_text(text: str) -> tuple:
    m = _TERM_RE.fullmatch(text)
    expect(m is not None, f"not a term: {text!r}")
    return (m.group(1), int(m.group(2) or 1), int(m.group(3)), int(m.group(4)))


def _json_term(t: tuple) -> dict:
    return {"rho": {"id": t[0], "degree": t[1]}, "deligne": t[2], "arthur": t[3]}


def certificate_of_lines(lines: list) -> dict:
    """Read a certificate printed as '  F1: u(..) -> u(..)' lines plus
    optional 'dropped left: ...' and 'dropped right: ...' lines."""
    cert = {"pairs": [], "dropped_left": [], "dropped_right": []}
    for line in lines:
        stripped = line.strip()
        for side in ("left", "right"):
            if stripped.startswith(f"dropped {side}: "):
                terms = stripped[len(f"dropped {side}: "):].split(", ")
                cert[f"dropped_{side}"] = [_json_term(term_of_text(t)) for t in terms]
                break
        else:
            m = _PAIR_RE.fullmatch(line)
            expect(m is not None, f"not a certificate line: {line!r}")
            cert["pairs"].append({
                "left": _json_term(term_of_text(m.group(2))),
                "right": _json_term(term_of_text(m.group(3))),
                "family": m.group(1),
            })
    return cert


def certificate_key(cert: dict) -> tuple:
    """A value-level identity for a certificate (order-free)."""
    pairs = sorted((term_of_json(p["left"]), p["family"], term_of_json(p["right"])) for p in cert["pairs"])
    return (
        tuple(pairs),
        tuple(sorted(term_of_json(t) for t in cert["dropped_left"])),
        tuple(sorted(term_of_json(t) for t in cert["dropped_right"])),
    )


def brute_matchings(left: list, right: list, families: tuple) -> set:
    """Every matching of a small pair, by assigning each left position a
    drop or a (right position, family), deduplicated at value level."""
    found = set()

    def go(i: int, used: frozenset, pairs: list, drops: list) -> None:
        if i == len(left):
            rest = [u for j, u in enumerate(right) if j not in used]
            if all(u[3] == 1 for u in rest):
                found.add((tuple(sorted(pairs)), tuple(sorted(drops)), tuple(sorted(rest))))
            return
        t = left[i]
        if t[3] == 1:
            go(i + 1, used, pairs, drops + [t])
        for j, u in enumerate(right):
            if j not in used:
                for f in families:
                    if compatible(t, u, f):
                        go(i + 1, used | {j}, pairs + [(t, f, u)], drops)

    go(0, frozenset(), [], [])
    return found


def copies_family_count(copies: dict) -> int:
    """Number of strong matchings of the k-copies family
    k x u(r;1,3) + k x u(r;2,2)  against  k x u(r;1,2) + k x u(r;2,1) + k x u(r;2,3),
    summed over cuspidals r with the given k.  Every u(r;2,2) must go to a
    u(r;2,3), through F2 or F4; every u(r;1,3) then goes to u(r;1,2) by F1
    and the u(r;2,1) are dropped.  So a matching is fixed by how many
    copies use F2, which gives k + 1 choices per cuspidal."""
    count = 1
    for k in copies.values():
        count *= k + 1
    return count


# -- cuspidal supports and SL2 restrictions --------------------------------------

def support(terms: list) -> Counter:
    """Cuspidal support as {(id, degree, doubled exponent): multiplicity}.

    For u(r;a,b) the exponents are i + j over the centered segments of
    lengths a and b; with t = i + j shifted to start at 0, exponent t
    occurs min(t + 1, a, b, a + b - 1 - t) times (a trapezoid)."""
    out = Counter()
    for sid, deg, a, b in terms:
        for t in range(a + b - 1):
            out[(sid, deg, 2 * t - (a + b - 2))] += min(t + 1, a, b, a + b - 1 - t)
    return out


def twist_count(terms: list) -> int:
    return sum(a * b for _, _, a, b in terms)


def total_degree(terms: list) -> int:
    return sum(deg * a * b for _, deg, a, b in terms)


def restriction(terms: list) -> Counter:
    """Diagonal SL2 restriction: V_a (x) V_b = sum of V_(a+b-1-2k), k < min(a, b)."""
    out = Counter()
    for sid, deg, a, b in terms:
        for k in range(min(a, b)):
            out[(sid, deg, a + b - 1 - 2 * k)] += 1
    return out


def central_exponent(counts: Counter) -> Fraction:
    degree = sum(deg * m for (_, deg, _), m in counts.items())
    weighted = sum(deg * e2 * m for (_, deg, e2), m in counts.items())
    return Fraction(weighted, 2 * degree)


# -- renderings ------------------------------------------------------------------

def symbol_text(sid: str, deg: int) -> str:
    return sid if deg == 1 else f"{sid}:{deg}"


def term_text(t: tuple) -> str:
    return f"u({symbol_text(t[0], t[1])};{t[2]},{t[3]})"


def param_text(terms: list) -> str:
    """Canonical parameter text: terms sorted by (id, degree, a, b)."""
    return " + ".join(term_text(t) for t in sorted(terms)) if terms else "0"


def half_text(doubled: int) -> str:
    return str(doubled // 2) if doubled % 2 == 0 else f"{doubled}/2"


def support_text(counts: Counter) -> str:
    """Canonical support text, e.g. {nu^-1 rho, rho, nu^(3/2) sigma:2}."""
    parts = []
    for (sid, deg, e2) in sorted(counts):
        sym = symbol_text(sid, deg)
        if e2 == 0:
            text = sym
        elif e2 % 2 == 0:
            text = f"nu^{e2 // 2} {sym}"
        else:
            text = f"nu^({e2}/2) {sym}"
        parts.extend([text] * counts[(sid, deg, e2)])
    return "{" + ", ".join(parts) + "}"


def segment_text(kind: str, sid: str, deg: int, lo2: int, hi2: int) -> str:
    return f"{kind}[{half_text(lo2)}..{half_text(hi2)}]{{{symbol_text(sid, deg)}}}"


def jacquet_text(kind: str, side: str, sid: str, deg: int, lo2: int, hi2: int, split: int) -> str:
    """The Jacquet module of Z/Q[lo..hi]{sym} along the (n - split, split)
    parabolic, as the CLI prints it.  It vanishes unless deg divides split;
    otherwise, with p = split / deg, it cuts p exponents off one end:
    Z standard and Q opposite keep the bottom of the segment first and the
    top p exponents second; Q standard and Z opposite keep the top first
    and the bottom p exponents second."""
    if split % deg:
        return "0"
    p = split // deg
    if (kind, side) in (("Z", "std"), ("Q", "opp")):
        first, second = (lo2, hi2 - 2 * p), (hi2 - 2 * (p - 1), hi2)
    else:
        first, second = (lo2 + 2 * p, hi2), (lo2, lo2 + 2 * (p - 1))
    return (
        f"{segment_text(kind, sid, deg, *first)} (x) {segment_text(kind, sid, deg, *second)}"
    )
