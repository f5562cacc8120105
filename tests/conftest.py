"""Shared test helpers.

The library reads words and relations from the product table its group
closure keeps.  The fixtures here evaluate words by direct composition,
letter by letter, so a test can check a built action, or the table
itself, against a route that does not read the table.
"""

import pytest

from hyptor.affine_actions import compose, identity_aut


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
def compose_word():
    return _compose_word


@pytest.fixture
def direct_relations():
    return _direct_relations
