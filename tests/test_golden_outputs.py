"""Golden outputs: the exit code, stdout and stderr of a fixed set of
CLI commands, pinned by SHA-256.

Every command runs in process through hyptor.cli.main.  Certificates
are written to stdout and saved to a temporary directory for verify and
invariants, so no file path enters the hashed text.  A change that
alters any byte of these outputs fails here; if the change is meant,
the new hashes are recorded together with the reason.
"""

import contextlib
import copy
import hashlib
import io
import json

import pytest

from hyptor.cli import main

DISTINGUISHED = ["construct", "--tau", "0/1+1/1i", "--tau-prime", "0/1+2/1i"]
SKEW = [
    "construct",
    "--tau",
    "1/2+3/5i",
    "--tau-prime",
    "1/3+2/1i",
    "--h",
    "1/2,1/2",
    "--k",
    "0/1,1/2",
    "--h-prime",
    "3/4,1/2",
]
# h = k: rs has a fixed point, so construct reports the violated condition
NON_FREE = ["construct", "--tau", "0/1+1/1i", "--tau-prime", "0/1+2/1i", "--h", "1/2,0/1", "--k", "1/2,0/1"]
# curve parameters with denominators 3, 5 and 7: the quotient basis, its
# inverse and the complex structure all carry proper fractions
SEVENTHS = ["construct", "--tau", "1/3+5/7i", "--tau-prime", "2/5+3/7i"]
FIFTHS = [
    "construct",
    "--tau",
    "2/7+3/5i",
    "--tau-prime",
    "1/5+4/3i",
    "--h",
    "1/2,0/1",
    "--k",
    "1/2,1/2",
    "--h-prime",
    "1/4,0/1",
]

CERTIFICATES = {"distinguished": DISTINGUISHED, "skew": SKEW, "sevenths": SEVENTHS, "fifths": FIFTHS}


def _tamper_inclusion(doc):
    doc["lattice_inclusion"]["block_denominators"] = [4, 4, 4]


def _tamper_linear(doc):
    doc["generators"]["s"]["linear"]["entries"][0] = 2


TAMPERS = {"inclusion": _tamper_inclusion, "linear": _tamper_linear}

GOLDEN = {
    "classify-case1-q2-json": "0a078775088d1a8fcc865c9bb789f094ccaf45558f42f127a2214008843bd43f",
    "classify-case1-q4-g3-json": "32d597e012821b3efe9660d5f9d48726fba6a312a5acce4a6399744e923f8db4",
    "classify-case1-q4-g4-json": "81ba7a1d1eeeba7f4c91eeca42337d629f578016fe9f2b1c3b5efde2c8a37c61",
    "classify-case1-q4-json": "64ec747fc35bc3ff4714b8adc548b93103b7a4633e6b26261ef267e060dc4501",
    "classify-case1-q4-text": "d13cc25add6e61ab04f3d0ef26a670f8c0f23247e89b99602aed0d2eefcfbcda",
    "classify-case2-q8-g4-json": "c4518749e446ca14aa73caa85c4833ef848191dd8804914c3191d3e7f7ebd8b1",
    "classify-case2-q8-json": "a151883f5cf3775d466ca8938a24a9c26f4fa8afaa7e16760a297b6948791115",
    "construct-distinguished-json": "95c31175ade1ac38738ebcbc067d9b572cfc21152dd0e20e6968ef5b508eb1bc",
    "construct-distinguished-text": "becab7a282a4d745dec0b7a873016b8f508ddc398e76c9dd7add7a63f56a2a31",
    "construct-fifths-json": "6885123e4b8aa28830246faae7e608b5a6f324eff7f1cd340748eddd27f55989",
    "construct-fifths-text": "0d8d77733b4de201fcbb9906afc0affb7bebd0e7b9135a63911a5c1905d796d6",
    "construct-non-free-json": "624c91b4f21c5908fcb69efc3b4c467bc7a633a8fb3e959aca227c8d251e552c",
    "construct-sevenths-json": "8fe4d439ec8cb6a8fd83a74a776b50cd4b86b098e5d0b901563f0794bbb727f5",
    "construct-sevenths-text": "69fc81f46005a4242afb8e1ece817c1b4d931455266d4b9ac286fec1032e8741",
    "construct-skew-json": "a8dd690632011b7f392191d6e9d42857e53b1d2dc9ca7fc01c0fc25278f2116f",
    "construct-skew-text": "eabb4cf8771cc800a2e6d6897589b80d9d027c62194b40bf41d947426a0b6c3e",
    "invariants-distinguished-json": "1b44e27cafb47cc26e40eed2ee456bb449ccc74de5f122775f36f32440cc930a",
    "invariants-distinguished-text": "093b2e29ee7ffae146cfa888bc09999b94ab2b9dfc5ceddeb70d8fe65d14e0cb",
    "invariants-fifths-json": "1b44e27cafb47cc26e40eed2ee456bb449ccc74de5f122775f36f32440cc930a",
    "invariants-fifths-text": "093b2e29ee7ffae146cfa888bc09999b94ab2b9dfc5ceddeb70d8fe65d14e0cb",
    "invariants-sevenths-json": "1b44e27cafb47cc26e40eed2ee456bb449ccc74de5f122775f36f32440cc930a",
    "invariants-sevenths-text": "093b2e29ee7ffae146cfa888bc09999b94ab2b9dfc5ceddeb70d8fe65d14e0cb",
    "invariants-skew-json": "1b44e27cafb47cc26e40eed2ee456bb449ccc74de5f122775f36f32440cc930a",
    "invariants-skew-text": "093b2e29ee7ffae146cfa888bc09999b94ab2b9dfc5ceddeb70d8fe65d14e0cb",
    "verify-distinguished-json": "4f0a58ea5120c6a495a1b8ae299d52cb3fdb3d96da42ab767cac56ba44b764f9",
    "verify-distinguished-text": "38cf827a14053d209123f2d26437641c42570f7f11ec503b4987bab33719b4ee",
    "verify-fifths-json": "4f0a58ea5120c6a495a1b8ae299d52cb3fdb3d96da42ab767cac56ba44b764f9",
    "verify-fifths-text": "38cf827a14053d209123f2d26437641c42570f7f11ec503b4987bab33719b4ee",
    "verify-sevenths-json": "4f0a58ea5120c6a495a1b8ae299d52cb3fdb3d96da42ab767cac56ba44b764f9",
    "verify-sevenths-text": "38cf827a14053d209123f2d26437641c42570f7f11ec503b4987bab33719b4ee",
    "verify-skew-json": "4f0a58ea5120c6a495a1b8ae299d52cb3fdb3d96da42ab767cac56ba44b764f9",
    "verify-skew-text": "38cf827a14053d209123f2d26437641c42570f7f11ec503b4987bab33719b4ee",
    "verify-tampered-inclusion-json": "74ff9c9ebd56faec0b94aff88ce53f603f895534a20c4b51545344ad0bde4b45",
    "verify-tampered-linear-json": "dfb4341513a938746581cf0aa808ba2a043398755e3c6f0ba4282b264f0be56d",
}


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def cert_files(tmp_path_factory):
    """Certificate files by name, the tampered copies included."""
    directory = tmp_path_factory.mktemp("golden")
    paths = {}
    docs = {}
    for name, argv in CERTIFICATES.items():
        code, out, _ = _run(argv)
        assert code == 0
        docs[name] = json.loads(out)
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(out, encoding="utf-8")
    for name, mutate in TAMPERS.items():
        doc = copy.deepcopy(docs["distinguished"])
        mutate(doc)
        paths[f"tampered-{name}"] = directory / f"tampered-{name}.json"
        paths[f"tampered-{name}"].write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return paths


def _argv(name: str, cert_files) -> list[str]:
    command, rest = name.split("-", 1)
    target, fmt = rest.rsplit("-", 1)
    if command == "classify":
        case, q, *g = target.split("-")
        argv = ["classify", "--case", case[-1], "--max-denominator", q[1:], "--workers", "1"]
        if g:
            argv += ["--h-generators-max", g[0][1:]]
        return [*argv, "--format", fmt]
    if command == "construct":
        argv = {**CERTIFICATES, "non-free": NON_FREE}[target]
        return [*argv, "--format", fmt]
    return [command, str(cert_files[target]), "--format", fmt]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_bytes_are_pinned(name, cert_files):
    code, out, err = _run(_argv(name, cert_files))
    assert _digest(code, out, err) == GOLDEN[name], (code, out[:400], err[:400])
