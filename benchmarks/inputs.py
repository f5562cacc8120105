"""Seeded inputs of the certification operations.

A family member has tau and tau' drawn from small rationals in the
upper half-plane, reflection shifts h != k that are nonzero 2-torsion
points, and a rotation shift h' of order exactly 4.  Each non-free kind
breaks one of those conditions and names the phrase `construct` must
report; each tamper changes one field of a valid certificate, which
`verify` must then reject.  The inputs of the faulty operations do not
depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from checks import add_points, frac, frac_str, torsion_points

# tau and tau' of the census grid, used by its certification probe
CENSUS_TAU = "0/1+1/1i"
CENSUS_TAU_PRIME = "0/1+2/1i"


@dataclass(frozen=True)
class Member:
    tau: str
    tau_prime: str
    h: tuple[Fraction, Fraction]
    k: tuple[Fraction, Fraction]
    h_prime: tuple[Fraction, Fraction]

    def argv(self, out: str | None = None) -> list[str]:
        # --flag=value throughout: argparse reads "--tau-prime -1/2+1/5i"
        # as a flag followed by nothing.
        argv = [
            "construct",
            f"--tau={self.tau}",
            f"--tau-prime={self.tau_prime}",
            f"--h={_point_arg(self.h)}",
            f"--k={_point_arg(self.k)}",
            f"--h-prime={_point_arg(self.h_prime)}",
        ]
        return argv + ([f"--out={out}"] if out else [])

    def parameters(self) -> dict:
        """The certificate's `parameters` fields for this member."""
        return {
            "tau": self.tau,
            "tau_prime": self.tau_prime,
            "s_shift1": [frac_str(c) for c in self.h],
            "s_shift2": [frac_str(c) for c in self.k],
            "r_shift": [frac_str(c) for c in self.h_prime],
        }


def _point_arg(p) -> str:
    return ",".join(frac_str(c) for c in p)


def _upper_half_plane(rng: random.Random) -> str:
    q = rng.randint(1, 4)
    re = Fraction(rng.randint(-q, q), q)
    q = rng.randint(1, 4)
    im = Fraction(rng.randint(1, 2 * q), q)
    return f"{frac_str(re)}+{frac_str(im)}i"


_TWO = torsion_points(2)
_FOUR = torsion_points(4)
_EIGHT = torsion_points(8)


def member(rng: random.Random, census_grid: bool = False) -> Member:
    h, k = rng.sample(_TWO, 2)
    if census_grid:
        return Member(CENSUS_TAU, CENSUS_TAU_PRIME, h, k, rng.choice(_FOUR))
    return Member(_upper_half_plane(rng), _upper_half_plane(rng), h, k, rng.choice(_FOUR))


def non_free(kind: str, rng: random.Random, census_grid: bool = False) -> Member:
    """A member with one condition broken, as named by `kind`."""
    m = member(rng, census_grid)
    zero = (Fraction(0), Fraction(0))
    if kind == "h_equals_k":
        return Member(m.tau, m.tau_prime, m.h, m.h, m.h_prime)
    if kind == "h_prime_order_1":
        return Member(m.tau, m.tau_prime, m.h, m.k, zero)
    if kind == "h_prime_order_2":
        return Member(m.tau, m.tau_prime, m.h, m.k, rng.choice(_TWO))
    if kind == "h_prime_order_8":
        return Member(m.tau, m.tau_prime, m.h, m.k, rng.choice(_EIGHT))
    if kind == "h_order_4":
        # k = w - h keeps h + k = w of order 2, so H stays a 2-torsion
        # subgroup and the broken condition is s^2 = id itself.  w = 2h
        # would make k = h and break h != k as well, and that tuple is
        # rejected four times faster, so w is drawn from the others.
        h = rng.choice(_FOUR)
        w = rng.choice([w for w in _TWO if w != add_points(h, h)])
        return Member(m.tau, m.tau_prime, h, add_points(w, tuple(-c for c in h)), m.h_prime)
    raise ValueError(kind)


# Phrase `construct` must report for each non-free kind.
NON_FREE = {
    "h_equals_k": "(rs would have a fixed point)",
    "h_prime_order_1": "(r would have a fixed point)",
    "h_prime_order_2": "(r^2 would have a fixed point)",
    "h_prime_order_8": "(r^4 = id fails)",
    "h_order_4": "(s^2 = id fails",
}


def _witness_row(doc, rng):
    w = rng.choice(doc["fixed_point_witnesses"])
    w["row"][rng.randrange(6)] += 1


def _witness_value(doc, rng):
    w = rng.choice(doc["fixed_point_witnesses"])
    w["value"] = frac_str(frac(w["value"]) + Fraction(1, 2))


def _element_translation(doc, rng):
    e = rng.choice(doc["group"]["elements"][1:])
    i = rng.randrange(6)
    e["translation"][i] = frac_str((frac(e["translation"][i]) + Fraction(1, 3)) % 1)


def _generator_linear(doc, rng):
    doc["generators"][rng.choice("rs")]["linear"]["entries"][rng.randrange(36)] += 1


def _basis_change(doc, rng):
    entries = doc["torus"]["basis_change"]["entries"]
    i = rng.randrange(36)
    entries[i] = frac_str(frac(entries[i]) + 1)


def _no_translations(doc, rng):
    doc["no_translations"] = False


def _freeness_flag(doc, rng):
    flags = doc["freeness_conditions"]
    flags[rng.choice(sorted(flags))] = False


def _group_order(doc, rng):
    doc["group"]["order"] = 16


TAMPERS = {
    "witness_row": _witness_row,
    "witness_value": _witness_value,
    "element_translation": _element_translation,
    "generator_linear": _generator_linear,
    "basis_change": _basis_change,
    "no_translations": _no_translations,
    "freeness_flag": _freeness_flag,
    "group_order": _group_order,
}

# Parameter shifts that are not 2-torsion make `verify` raise
# GroupGenerationError instead of reporting a failure; applied to the
# distinguished member's certificate.
FAULTY = {"r_shift": ["1/17", "0/1"], "s_shift1": ["1/3", "0/1"]}
DISTINGUISHED = ["construct", f"--tau={CENSUS_TAU}", f"--tau-prime={CENSUS_TAU_PRIME}"]
