"""Stable output bytes pinned by sha256.

The digests were recorded before the map specs were folded into the single
(g, c, k, d) representation, so they check the refactored core against the
output of the old one rather than against itself.  For json reports the
digest covers the stable section (cli.stable_json); catalog output and csv
carry no timings and are hashed whole.
"""

import hashlib
import json

import pytest

from permlab.cli import main, stable_json

GOLDEN = [
    ("verify", "json",
     "706c6b8783f855a163ecc0b2eec8a45bed1f5deb879b545338419fe690be3e37"),
    ("table1", "json",
     "37e6f99972d89dd8c264d0b179eb083fc3210927d45996e31743bdc75de5bcd0"),
    ("table1", "csv",
     "da5f19a2009a9e594114d75765e721f871f2a82aa88637246925f2778f89231e"),
    ("table1 --row 8 --k 3", "json",
     "2f5840166970951f9aac85a357fe858b61b32a396a65782792a7abb704a46681"),
    ("sweep --q 16", "json",
     "ff707500556522f4703e8aaafc17a4cf4e6a9fb17d573139a516cbe9020422aa"),
    ("sweep --q 16", "csv",
     "d44eb357eace51938b38a7fa45d3b4f6755f080883b857f0e3d03c56782579f2"),
    ("catalog", "json",
     "4699c9ffe7b994654ccedf293f1f8433a7424906033712a8645e44c63b6673a6"),
    ("catalog", "csv",
     "51510c3f9c6ec61e6b7439c1b15498cf92241ddea71ecfbe3b225b72ef533dac"),
]


@pytest.mark.parametrize("argv, fmt, digest", GOLDEN,
                         ids=[f"{a} {f}" for a, f, _ in GOLDEN])
def test_stable_output_digest(tmp_path, argv, fmt, digest):
    out = tmp_path / "out"
    code = main(argv.split() + ["--format", fmt, "--out", str(out)])
    assert code == (1 if "--row 8" in argv else 0)
    text = out.read_text()
    if fmt == "json" and argv != "catalog":
        text = stable_json(json.loads(text))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
