"""Byte-identity corpus: every command of tests/corpus/commands.txt still
prints, writes and exits exactly as when its digest was taken.

The digests were taken from the code before the scan surface writer moved
into optimizer; those of lines 105-114, scans without --surface, from the
code before the scan's coarse phase stopped building its plane with numpy.
The --surface scans of lines 70-77, 83 and 84 kept their digests when
surfaces stopped being built with numpy: like lines 105-114, their bytes
depend on math.cos, not on numpy.
tests/corpus/update.py rewrites them; a change that runs it lists every
line whose digest moved.
"""

import importlib.util
import os
import shlex
from pathlib import Path

import numpy
import pytest

_spec = importlib.util.spec_from_file_location(
    "belltest_corpus", Path(__file__).resolve().parent / "corpus" / "update.py"
)
corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus)

COMMANDS = corpus.load_commands()
TAKEN_WITH, DIGESTS = corpus.load_digests()


def test_one_digest_per_command():
    assert len(DIGESTS) == len(COMMANDS)


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
