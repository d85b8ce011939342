"""Byte-level pins of eval and mc output at non-normalized axes.

The axes below lie outside [0, 180) and include negatives, -360 (which
normalizes to -0.0) and values just short of the period, so these digests
pin the axis normalization done when a SettingsQuad is built, and every
closed form that reads the normalized axes. The digests were taken from
the code before that normalization moved into SettingsQuad.
"""

import hashlib

import pytest

from belltest.cli import main

REAL = ["--source", "qm-real", "--eta", "0.37", "--phi", "41.3"]
FREE = "--angles=-30,400,12.25,179.99"
SYMMETRIC = "--angles=-360,480,-300,-600"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("ineq,source,angles,fmt,digest", [
    ("ternary", [], FREE, "json",
     "a77d8e7eaa3ac4e857ff239f27309cd5f0d7e811de29e7103264d4e269f3f3c5"),
    ("ternary", [], FREE, "csv",
     "31f28991582e3867b8db91380e403a2e8ef9c373eebcccae11acf0e122f0410b"),
    ("bell65", [], FREE, "json",
     "ef83c560cbb0f6e89e95a639d27b2d5971da2e0e182b2713093d51cc7a360b4e"),
    ("bell65", [], FREE, "csv",
     "15e666480fdfa7d8c0845973c5af88cf6cedf2c45d83e0ce62a28da333261d83"),
    ("chsh", [], FREE, "json",
     "793a8b60d97f169c075953e55293e5bbc652a252b3edce1353432017b2e5a7df"),
    ("chsh", [], FREE, "csv",
     "7eb0f471640b86b9f57cf400c87460d1900dfa03631eb412a7f2dd2f252fe351"),
    ("detection", REAL, FREE, "json",
     "c23cf3290548cd08c8e550fb37a9b5d676826dd410645d62a28beb205b1cfa58"),
    ("detection", REAL, FREE, "csv",
     "cbf25004cdda832680ed28797df660a88eb4c1b527b6fa476afcf737fc510022"),
    ("ternary-sym", [], SYMMETRIC, "json",
     "1fa1d901a98329752d0639ef70795ca57aa5859c75dad49807627d159dc62440"),
    ("ternary-sym", [], SYMMETRIC, "csv",
     "357bd7baf9ee4d0f901e8ec7151d5888633f35806b82fcb4c69fa7c265176e28"),
    ("detection-sym", REAL, SYMMETRIC, "json",
     "57a6398cd0646112d1552ba61999291bdf71a1effd150bb250d684b455d83e79"),
    ("detection-sym", REAL, SYMMETRIC, "csv",
     "21d295ff81332345f300ce8691cace9d38c36405ce09fc0a2edbe93d0fdcb011"),
])
def test_eval_stdout_is_pinned(capsys, ineq, source, angles, fmt, digest):
    assert main(["eval", "--ineq", ineq, *source, angles, "--format", fmt]) == 0
    assert sha256(capsys.readouterr().out) == digest


def test_mc_manifest_is_pinned(capsys, tmp_path):
    manifest = tmp_path / "manifest.txt"
    argv = ["mc", *REAL, SYMMETRIC, "--pairs", "200000", "--seed", "5",
            "--manifest", str(manifest)]
    assert main(argv) == 0
    capsys.readouterr()
    text = manifest.read_text(encoding="utf-8")
    assert text.splitlines()[1:5] == [
        "quad_a=-0.0", "quad_b=120.0", "quad_a_prime=60.0", "quad_b_prime=120.0",
    ]
    assert sha256(text) == "2873ebaf3587709021087a7e3b16c0ebc1e53360bb63f2e83a38f8f520059efd"
