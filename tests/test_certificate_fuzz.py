"""Seeded mutation fuzzing of a certificate through the command line.

Each round changes one place of the distinguished certificate (drops a
key, puts in junk, wraps a value in a list, bumps an int or reverses a
string) and runs `verify` on the file, and every fourth round
`invariants` too, in process through ``main``.  No exception may
escape, every exit code must be 0, 1 or 2, and `verify` may accept a
document only when it is unchanged: the certificate promises that any
single mutated field fails verification.
"""

import copy
import json
import random

from hyptor.cli import main

SEED = 1812
ROUNDS = 80

JUNK = (None, True, False, 0.5, 10**40, "7" * 5000 + "/3", [[[]], [1, ["x"]]])


def _paths(node, path=()):
    """Every key or index path in a JSON document, the root excluded."""
    if path:
        yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, path + (index,))


def _value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(doc, rng: random.Random) -> str:
    """Change doc in place at one random path; describe the change."""
    kind = rng.choice(("drop", "junk", "wrap", "bump", "reverse"))
    paths = list(_paths(doc))
    if kind == "bump":
        paths = [p for p in paths if isinstance(_value_at(doc, p), int)]
    elif kind == "reverse":
        paths = [p for p in paths if isinstance(_value_at(doc, p), str)]
    path = rng.choice(paths)
    holder, key = _value_at(doc, path[:-1]), path[-1]
    if kind == "drop":
        del holder[key]
    elif kind == "junk":
        holder[key] = copy.deepcopy(rng.choice(JUNK))
    elif kind == "wrap":
        holder[key] = [holder[key]]
    elif kind == "bump":
        holder[key] += 1
    else:
        holder[key] = holder[key][::-1]
    return f"{kind} at {'/'.join(map(str, path))}"


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def test_mutated_certificates_keep_the_exit_code_contract(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["construct", "--tau=0/1+1/1i", "--tau-prime=0/1+2/1i", f"--out={cert}"]) == 0
    original = json.loads(cert.read_text())
    rng = random.Random(SEED)
    path = tmp_path / "mutated.json"
    faults = []
    for i in range(ROUNDS):
        doc = copy.deepcopy(original)
        what = mutate(doc, rng)
        path.write_text(json.dumps(doc))
        changed = _canonical(doc) != _canonical(original)
        code = main(["verify", str(path)])
        if code not in (0, 1, 2) or (changed and code == 0):
            faults.append(f"verify exit {code} after {what}")
        if i % 4 == 0:
            code = main(["invariants", str(path)])
            if code not in (0, 1, 2) or (changed and code == 0):
                faults.append(f"invariants exit {code} after {what}")
    capsys.readouterr()
    assert faults == []
