"""Output checks for the benchmark, written from the paper's statements.

Nothing here imports hyptor.  Every check takes the JSON the command
line printed (or the certificate file it wrote) and returns a list of
problems; an empty list means the output is right.

The facts checked come from the classification itself: a free D4
action in Case 1 has reflection shifts a1 != a2 that are nonzero
2-torsion points, a rotation shift c3 of order exactly 4, and divides
out H = <(w, w, 0)> with w = a1 + a2; Case 2 never acts freely; every
family member has the Hodge diamond 1 0 0 1 / 0 2 2 0 / 0 2 2 0 /
1 0 0 1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

HODGE_ROWS = [[1, 0, 0, 1], [0, 2, 2, 0], [0, 2, 2, 0], [1, 0, 0, 1]]
BETTI = [1, 0, 2, 6, 2, 0, 1]

# Bits (2i, 2i+1) of a 6-bit mask are the two half-period coordinates
# of the i-th elliptic factor of E x E x E'.
_FACTOR_MASKS = (0b000011, 0b001100, 0b110000)


def frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def torsion_points(order: int) -> list[tuple[Fraction, Fraction]]:
    """Points of E of exact order `order`, as coordinates in [0, 1)."""
    out = []
    for i in range(order):
        for j in range(order):
            p = (Fraction(i, order), Fraction(j, order))
            if max(c.denominator for c in p) == order:
                out.append(p)
    return out


def add_points(p, q):
    return tuple((a + b) % 1 for a, b in zip(p, q))


def point(texts) -> tuple[Fraction, ...]:
    return tuple(frac(x) for x in texts)


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------


def _single_factor(v: int) -> bool:
    return v != 0 and any(v & ~m == 0 for m in _FACTOR_MASKS)


def _swap_first_factors(v: int) -> int:
    """The rotation (z1, z2, z3) -> (z2, -z1, z3) on 2-torsion."""
    return ((v & 0b000011) << 2) | ((v & 0b001100) >> 2) | (v & 0b110000)


def subgroup_family() -> list[frozenset[int]]:
    """Subgroups of the 2-torsion F2^6 of dimension <= 2 with no nonzero
    element supported in a single factor."""
    allowed = [v for v in range(1, 64) if not _single_factor(v)]
    family = {frozenset({0})}
    family.update(frozenset({0, v}) for v in allowed)
    for v, w in itertools.combinations(allowed, 2):
        if not _single_factor(v ^ w):
            family.add(frozenset({0, v, w, v ^ w}))
    return sorted(family, key=lambda s: (len(s), sorted(s)))


def rotation_stable(family: list[frozenset[int]]) -> list[frozenset[int]]:
    return [h for h in family if {_swap_first_factors(v) for v in h} == h]


FAMILY_SIZE = 460
STABLE_SIZE = 50


def grid_size(case: int, q: int) -> int:
    """Tuples per subgroup: a1, a2 and c3 (and a3 in Case 2) range over
    the q-torsion of their curve."""
    return q ** (2 * (3 if case == 1 else 4))


def _span(gens) -> frozenset:
    out = {(Fraction(0),) * 6}
    for g in gens:
        out |= {add_points(x, g) for x in out}
    return frozenset(out)


def expected_case1_survivors() -> set:
    """The 6 x 12 = 72 tuples (a1, a2, c3, H) of the classification."""
    out = set()
    two = torsion_points(2)
    for a1, a2 in itertools.permutations(two, 2):
        w = add_points(a1, a2)
        h = _span([w + w + (Fraction(0), Fraction(0))])
        for c3 in torsion_points(4):
            out.add((a1, a2, c3, h))
    return out


def _survivor_key(s: dict):
    return (point(s["a1"]), point(s["a2"]), point(s["c3"]), _span([point(g) for g in s["h_generators"]]))


def check_census(doc: dict, case: int, q: int, family_size: int, stable_size: int) -> list[str]:
    """Problems with a census report of `classify --case case
    --max-denominator q`, given the benchmark's own family counts."""
    problems = []
    grid = grid_size(case, q)
    if family_size != FAMILY_SIZE or stable_size != STABLE_SIZE:
        problems.append(f"own enumeration gives {family_size} subgroups, {stable_size} stable")
    if doc.get("case") != f"case{case}":
        problems.append(f"case is {doc.get('case')!r}")
    if doc.get("h_family", {}).get("size") != family_size:
        problems.append(f"h_family size {doc.get('h_family')}, expected {family_size}")
    total = doc.get("total")
    if total != family_size * grid:
        problems.append(f"total {total}, expected {family_size} x {grid}")
    counts = doc.get("failure_counts", {})
    if counts.get("lattice:r") != (family_size - stable_size) * grid:
        problems.append(f"lattice:r {counts.get('lattice:r')}, expected {family_size - stable_size} x {grid}")
    survivors = doc.get("survivors", [])
    if doc.get("survivor_count") != len(survivors):
        problems.append("survivor_count differs from the survivor list")
    if sum(counts.values()) + len(survivors) != total:
        problems.append("failure counts plus survivors do not sum to total")
    if case == 1:
        got = [_survivor_key(s) for s in survivors]
        if len(set(got)) != len(got) or set(got) != expected_case1_survivors():
            problems.append(f"{len(got)} survivors differ from the 72 of the classification")
    elif survivors:
        problems.append(f"Case 2 has {len(survivors)} survivors, expected none")
    return problems


# ---------------------------------------------------------------------------
# Certificates and invariants
# ---------------------------------------------------------------------------


def _matmul(a, b):
    n = 6
    return tuple(sum(a[i * n + k] * b[k * n + j] for k in range(n)) for i in range(n) for j in range(n))


def check_certificate(doc: dict, params: dict) -> list[str]:
    """Plain-integer re-check of a certificate for the requested `params`
    (tau, tau_prime, s_shift1, s_shift2, r_shift as certificate strings)."""
    problems = []
    stored = doc.get("parameters", {})
    for key, value in params.items():
        if stored.get(key) != value:
            problems.append(f"parameters.{key} is {stored.get(key)!r}, asked for {value!r}")
    elements = doc.get("group", {}).get("elements", [])
    linear = {e["word"]: tuple(e["linear"]["entries"]) for e in elements}
    shift = {e["word"]: point(e["translation"]) for e in elements}
    parts = set(linear.values())
    ident = tuple(int(i == j) for i in range(6) for j in range(6))
    if len(elements) != 8 or len(parts) != 8 or ident not in parts:
        problems.append(f"{len(parts)} distinct linear parts, expected 8 with the identity")
    elif any(_matmul(a, b) not in parts for a in parts for b in parts):
        problems.append("linear parts are not closed under multiplication")
    witnesses = doc.get("fixed_point_witnesses", [])
    if sorted(w.get("word") for w in witnesses) != sorted(set(linear) - {"e"}):
        problems.append("witnesses do not cover the nonidentity elements")
    for w in witnesses:
        word, u = w.get("word"), w.get("row")
        if word not in linear:
            continue
        a, t = linear[word], shift[word]
        left = [sum(u[i] * (a[i * 6 + j] - (i == j)) for i in range(6)) for j in range(6)]
        ut = sum(ui * ti for ui, ti in zip(u, t))
        if any(left):
            problems.append(f"witness {word}: u (A - I) != 0")
        elif ut.denominator == 1:
            problems.append(f"witness {word}: u . t is an integer")
        elif frac(w.get("value", "0/1")) != -ut:
            problems.append(f"witness {word}: stated value is not -u . t")
    return problems


def check_invariants(doc: dict) -> list[str]:
    problems = []
    if doc.get("hodge") != HODGE_ROWS:
        problems.append(f"Hodge rows {doc.get('hodge')}")
    if doc.get("betti") != BETTI:
        problems.append(f"Betti numbers {doc.get('betti')}")
    return problems
