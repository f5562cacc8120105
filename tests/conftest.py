"""Shared test helpers.

The library reads words and relations from the product table its group
closure keeps, and closes the linear parts apart from the translations.
The helpers here compose maps directly: ``compose`` multiplies two
automorphisms, ``identity_aut`` is the identity map of a torus,
``reference_generate_group`` is the closure that composes every element
with every generator, and the fixtures evaluate words letter by letter,
so a test can check a built action, the table or the closure itself
against a route that shares none of them.
``point`` builds a torsion point from strings such as "1/2",
``rand_unimodular`` a seeded unimodular matrix, and
``survivor_actions`` holds the 72 Case-1 census survivors.
"""

from fractions import Fraction
from math import lcm
from operator import mul

import pytest

from hyptor.affine_actions import (
    AffineAut,
    GeneratedGroup,
    GroupElement,
    GroupGenerationError,
    TorusMismatchError,
)
from hyptor.classify import SearchSpace, enumerate_case1
from hyptor.d4_family import CaseTag, D4Parameters, build_general
from hyptor.exact_linear import Matrix
from hyptor.torus import EllipticCurveParam, TorsionPoint


def point(*coords):
    """A torsion point from ints, Fractions and strings such as "1/2"."""
    return TorsionPoint(tuple(Fraction(c) if isinstance(c, str) else c for c in coords))


def replace_params(params, **changes):
    """A D4Parameters with the given fields changed and the others kept."""
    return D4Parameters(**{**{name: getattr(params, name) for name in D4Parameters.__slots__}, **changes})


def rand_unimodular(rng, n) -> Matrix:
    """Product of random elementary row operations on the identity."""
    m = Matrix.identity(n).to_rows()
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = rng.randint(-2, 2)
        m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    if rng.random() < 0.5:
        rng.shuffle(m)
    return Matrix.from_rows(m)


def identity_aut(torus):
    """The identity map of a torus."""
    return AffineAut(torus, Matrix.identity(torus.rank), TorsionPoint.zero(torus.rank))


def compose(f, g):
    """f after g: z -> f(g(z)), with translation f.a g.t + f.t."""
    if f.torus != g.torus:
        raise TorusMismatchError("different tori")
    d = lcm(*(c.denominator for c in f.t.coords), *(c.denominator for c in g.t.coords))
    g_t = [c.numerator * (d // c.denominator) for c in g.t.coords]
    t = TorsionPoint(
        tuple(
            Fraction((sum(map(mul, f.a.row(i), g_t)) + c.numerator * (d // c.denominator)) % d, d)
            for i, c in enumerate(f.t.coords)
        )
    )
    return AffineAut(f.torus, f.a @ g.a, t)


def reference_generate_group(gens, cap=64):
    """Breadth-first closure that composes each element with each
    generator as maps, with no linear core: the reference that
    ``generate_group`` must equal, element for element."""
    if not gens:
        raise ValueError("no generators")
    torus = next(iter(gens.values())).torus
    for gaut in gens.values():
        if gaut.torus != torus:
            raise TorusMismatchError("generators live on different tori")
    ident = identity_aut(torus)
    seen = {(ident.a.entries, ident.t.coords): "e"}
    auts = {"e": ident}
    products = {}
    frontier = ["e"]
    names = sorted(gens)
    while frontier:
        nxt = []
        for word in frontier:
            row = products[word] = []
            for name in names:
                new_aut = compose(auts[word], gens[name])
                k = (new_aut.a.entries, new_aut.t.coords)
                if k not in seen:
                    if len(seen) >= cap:
                        raise GroupGenerationError(f"generated more than {cap} elements")
                    new_word = name if word == "e" else word + name
                    seen[k] = new_word
                    auts[new_word] = new_aut
                    nxt.append(new_word)
                row.append(seen[k])
        frontier = nxt
    words = sorted(auts, key=lambda w: (0 if w == "e" else len(w), w))
    index = {w: i for i, w in enumerate(words)}
    return GeneratedGroup(
        tuple(GroupElement(w, auts[w]) for w in words),
        tuple(names),
        tuple(tuple(index[p] for p in products[w]) for w in words),
    )


def _compose_word(gens, word):
    """A word as a composition of maps: "rs" is z -> r(s(z))."""
    acc = identity_aut(next(iter(gens.values())).torus)
    for letter in word:
        acc = compose(acc, gens[letter])
    return acc


def _direct_relations(gens, words):
    """Whether each word composes to the identity map."""
    out = {}
    for word in words:
        aut = _compose_word(gens, word)
        out[word] = aut.a.is_identity() and aut.t.is_zero()
    return out


@pytest.fixture
def matmul_calls(monkeypatch):
    """Every Matrix product taken while the test runs, as (left, right)."""
    calls = []
    original = Matrix.__matmul__

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    return calls


@pytest.fixture
def compose_word():
    return _compose_word


@pytest.fixture
def direct_relations():
    return _direct_relations


@pytest.fixture(scope="session")
def survivor_actions():
    """The 72 Case-1 census survivors built at (i, 2i)."""
    tau, tau_prime = EllipticCurveParam(0, 1), EllipticCurveParam(0, 2)
    report = enumerate_case1(SearchSpace(CaseTag.CASE1, tau=tau, tau_prime=tau_prime))
    assert len(report.survivors) == 72
    return [build_general(CaseTag.CASE1, survivor.parameters(tau, tau_prime)) for survivor in report.survivors]
