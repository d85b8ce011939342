"""Byte-level pins of eval and mc output at non-normalized axes.

The axes below lie outside [0, 180) and include negatives, -360 (which
normalizes to -0.0) and values just short of the period, so these digests
pin the axis normalization done when a SettingsQuad is built, and every
closed form that reads the normalized axes. The digests were taken from
the code before that normalization moved into SettingsQuad. The mc stdout
digests (lhs, std_error and sigma_distance at each source) were taken from
the code before the distribution records shared one validation rule. The
verify-theorem and lhv counters digests were taken from the code before the
outcome-table sums, completions and indexes were derived from core. The
qm-ideal 3000000-pair stdout and counters digests are the ones the CI
entry-point step checks; that stdout digest was retaken when std_error
became the closed-form first-order error, which moved its std_error and
sigma_distance by 1 ulp each to the correctly rounded values. The qm-real
and qm-ideal stdout digests at the symmetric axes (200000 pairs, seed 5) were
retaken when the measurable lhs stopped summing the singles ratios (counted
as their sum, 2) and took the primed like fraction as one division: only lhs
moved, by rounding (0.06749279371930991 -> 0.06749279371931 and
0.00014000000000005675 -> 0.00013999999999997348; neither old nor new value
is the correctly rounded 0.06749279371930994... or 0.00014).
"""

import hashlib

import pytest

from belltest import lhv
from belltest.cli import main

REAL = ["--source", "qm-real", "--eta", "0.37", "--phi", "41.3"]
FREE = "--angles=-30,400,12.25,179.99"
SYMMETRIC = "--angles=-360,480,-300,-600"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


EVAL_PINS = [
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
]


def eval_argv(ineq, source, angles, fmt):
    return ["eval", "--ineq", ineq, *source, angles, "--format", fmt]


# Each case is named by its command, not its digest, so a retaken pin keeps its test id.
@pytest.mark.parametrize(
    "ineq,source,angles,fmt,digest", EVAL_PINS,
    ids=[" ".join(eval_argv(*pin[:4])) for pin in EVAL_PINS],
)
def test_eval_stdout_is_pinned(capsys, ineq, source, angles, fmt, digest):
    assert main(eval_argv(ineq, source, angles, fmt)) == 0
    assert sha256(capsys.readouterr().out) == digest


def test_verify_theorem_stdout_is_pinned(capsys):
    assert main(["verify-theorem"]) == 0
    assert sha256(capsys.readouterr().out) == (
        "12a8343bfab6f0c97b3cf2a4b8254f1b5c3d36e3bd1f5ab2484c5c40e607a493"
    )


@pytest.mark.parametrize("argv,digest", [
    (["--source", "lhv", "--model", "random3.lhv", "--pairs", "200000", "--seed", "5"],
     "fc5c46ab0cc0d7b8be2f727e1285835677d53c9a63c585c88271c6110d7a1693"),
    # Three chunks per setting pair: the sampler's raw PCG64 state writes.
    (["--source", "qm-ideal", "--pairs", "3000000", "--seed", "7"],
     "e49d88753e6235b33bb59b387c2aca42bdbe67845178cbac5af553c64c114fdf"),
], ids=["lhv", "qm-ideal"])
def test_mc_counters_are_pinned(capsys, tmp_path, monkeypatch, argv, digest):
    monkeypatch.chdir(tmp_path)
    lhv.save_model(lhv.random_model(3), "random3.lhv")
    assert main(["mc", *argv, "--counters", "counters.csv"]) == 0
    capsys.readouterr()
    assert sha256((tmp_path / "counters.csv").read_text(encoding="utf-8")) == digest


def test_negative_angles_after_a_space_match_the_pin(capsys):
    argv = ["eval", "--ineq", "detection", *REAL, "--angles", "-30,400,12.25,179.99"]
    assert main(argv) == 0
    assert sha256(capsys.readouterr().out) == (
        "c23cf3290548cd08c8e550fb37a9b5d676826dd410645d62a28beb205b1cfa58"
    )


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


MC = ["--pairs", "200000", "--seed", "5"]


MC_PINS = [
    (["--source", "qm-real", "--eta", "0.37", "--phi", "41.3", SYMMETRIC, *MC], "json",
     "94c559db0b158ee0e7c48b93c274e778550bc801622d97078e6fa4e559b63a1f"),
    (["--source", "qm-real", "--eta", "0.37", "--phi", "41.3", SYMMETRIC, *MC], "csv",
     "6d4b8769dd1738d9d93469d9ac6f1db426dd1e96da5f7c265112daa8ffc15d2b"),
    (["--source", "qm-ideal", SYMMETRIC, *MC], "json",
     "826b5904202fb82506e9a8e4a1f52b63e27b4fe52784a3e78814306abee7bf12"),
    (["--source", "qm-ideal", SYMMETRIC, *MC], "csv",
     "dd66f0d2ad33da4d77f36a4977f76c7252a413ff5b61381e5e0721b966957461"),
    # The 50/50 mixture of ++00 and +-0- reads lhs -3.0 at zero spread.
    (["--source", "lhv", "--model", "two-vertex.lhv", SYMMETRIC, *MC], "json",
     "11d7816cb758700b294111e17ab44eb385f9e9cda4c2154942670abe5299bd44"),
    (["--source", "lhv", "--model", "two-vertex.lhv", SYMMETRIC, *MC], "csv",
     "8a3604ead9208a0928702b16d9d21ce38b3e6b215298c4366c1cf5632ae74b5c"),
    # Zero spread at margin 4: sigma_distance is null in JSON, inf in CSV.
    (["--source", "qm-ideal", "--diffs", "0,0,0", "--pairs", "1000"], "json",
     "325b88ca323e9fa766444f3d5055fba233b512e0baa99f4f55e9d22b81fa2c03"),
    (["--source", "qm-ideal", "--diffs", "0,0,0", "--pairs", "1000"], "csv",
     "7d81c422607a8969b320f006a9fa295fad33053d14bd62619a7be46befd17ff0"),
    # The default quad, three chunks per setting pair.
    (["--source", "qm-ideal", "--pairs", "3000000", "--seed", "7"], "json",
     "7f4deff70f53b46b480c7a2ab75587cecfff29213ecb4c231491d6b279ffbd8d"),
]


@pytest.mark.parametrize(
    "argv,fmt,digest", MC_PINS,
    ids=[" ".join(["mc", *argv, "--format", fmt]) for argv, fmt, _ in MC_PINS],
)
def test_mc_stdout_is_pinned(capsys, tmp_path, monkeypatch, argv, fmt, digest):
    # The JSON echoes the --model path, so the model is read by relative name.
    monkeypatch.chdir(tmp_path)
    weights = [0.0] * 81
    for key in ("++00", "+-0-"):
        weights[lhv.assignment_index(lhv.DeterministicAssignment.from_key(key))] = 0.5
    lhv.save_model(lhv.FourAxisModel(tuple(weights)), "two-vertex.lhv")
    assert main(["mc", *argv, "--format", fmt]) == 0
    assert sha256(capsys.readouterr().out) == digest
