"""Byte-identity corpus: every command of tests/corpus/commands.txt still
prints, writes and exits exactly as when its digest was taken. The corpus is
the one home of the CLI's byte pins.

The digests were taken from the code before the scan surface writer moved
into optimizer; those of lines 105-114, scans without --surface, from the
code before the scan's coarse phase stopped building its plane with numpy.
The --surface scans of lines 70-77, 83 and 84 kept their digests when
surfaces stopped being built with numpy: like lines 105-114, their bytes
depend on math.cos, not on numpy.

Lines 115-147 hold the pins that test modules and CI kept of their own,
with digests taken from the code before they moved here:
- 115-118: the symmetric-angle eval pins (--angles=-360,480,-300,-600);
- 119-124: the seed-5 mc pins at those angles; line 119 also writes the
  manifest, and lines 123-124 read two-vertex.lhv (lhs -3.0 at zero spread);
- 125-126: zero spread at margin 4 (sigma_distance null in JSON, inf in CSV);
- 127: the counters of random3.lhv;
- 128-143: the step-15 and step-13 scans at rounds 0 and 2, JSON with
  --surface, then CSV (13 does not divide 180, so the a = 0 plane is an
  open step); line 128 is the surface CI checked;
- 144-147: the step-11 ternary and the step-3, 7 and 11 detection surfaces.
Earlier lines already held the rest: the free-angle eval pins (lines 6-7,
26-27, 36-37 and 46-47; line 46 passes its negative angles after a space),
verify-theorem (1), the 3000000-pair qm-ideal mc stdout and counters (62),
and the step-2, 3 and 7 surfaces (70-72 and 74).

Lines 148-150 pin steps whose axis differences round, with digests taken
when the scan grid became the lhs at grid offsets: the step-7.3 ternary and
detection surfaces, and the step-13.017994494867063 scan, whose coarse
phase breaks a symmetric tie there.

Lines 151-153 pin eval and scan at an eta whose detection rates underflow
(1e-160, 1e-300, 1e-200): each reads the lhs of eta 1, as every ternary form
at a qm source is F S + 1. Lines 154-160 are README's example commands that
no earlier line ran verbatim.

tests/corpus/update.py rewrites the digests; a change that runs it lists
every line whose digest moved.
"""

import importlib.util
import os
import shlex
from pathlib import Path

import numpy
import pytest

from belltest import lhv

_spec = importlib.util.spec_from_file_location(
    "belltest_corpus", Path(__file__).resolve().parent / "corpus" / "update.py"
)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

COMMANDS = corpus.load_commands()
TAKEN_WITH, DIGESTS = corpus.load_digests()


def test_one_digest_per_command():
    assert len(DIGESTS) == len(COMMANDS)


def test_no_two_lines_run_the_same_command():
    argvs = [shlex.join(argv) for _, argv in COMMANDS]
    assert sorted({argv for argv in argvs if argvs.count(argv) > 1}) == []


# Each valid fixture loads as the model its comment in update.FIXTURES names;
# bad.lhv is refused, so the lines that read it pin an error.
@pytest.mark.parametrize("name", sorted(corpus.FIXTURES))
def test_fixture_holds_its_named_model(name):
    text = corpus.FIXTURES[name]
    if name == "bad.lhv":
        with pytest.raises(lhv.ModelFileError):
            lhv.load_model_text(text)
        return
    keys = [assignment.key() for assignment in lhv.enumerate_assignments()]
    want = {
        "model.lhv": [k / 3321 for k in range(1, 82)],
        "two-vertex.lhv": [0.5 if key in ("++00", "+-0-") else 0.0 for key in keys],
        "random3.lhv": list(lhv.random_model(3).weights),
    }[name]
    assert list(lhv.load_model_text(text).weights) == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "number", range(1, len(COMMANDS) + 1),
    ids=[f"{n}:{shlex.join(argv)}" for n, (_, argv) in enumerate(COMMANDS, 1)],
)
def test_command_bytes_are_unchanged(tmp_path, number):
    marks, argv = COMMANDS[number - 1]
    if "@posix" in marks and os.name != "posix":
        pytest.skip("the digest holds a POSIX error text")
    note = (
        f" (its bytes depend on numpy: here {numpy.__version__}; digests {TAKEN_WITH.removeprefix('# ')})"
        if "@numpy" in marks else ""
    )
    assert corpus.run(argv, tmp_path) == DIGESTS[number - 1], f"line {number}{note}"
