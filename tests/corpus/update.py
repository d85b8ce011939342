"""Byte-identity corpus: run each command line of commands.txt, digest its output.

Each line of commands.txt is one argv for `belltest` (shell-quoted), run in
process through `belltest.cli.main` in a fresh directory that holds the model
files of FIXTURES: `model.lhv`, `two-vertex.lhv` and `random3.lhv` (valid) and
`bad.lhv` (a negative weight). A line may start with marks:

- `@numpy`: its bytes come from mc's draws (numpy's PCG64 stream and
  multinomial), so another numpy may move them; a scan and its --surface
  are computed without numpy;
- `@posix`: its bytes hold an OS error text that differs off POSIX.

Line N of digests.txt, after its one comment line naming the numpy and Python
the digests were taken with, is the SHA-256 over command N's exit code,
stdout, stderr and every file it wrote, each length-prefixed.

Run `python tests/corpus/update.py` to rewrite digests.txt from the code in
`src/`. A change that does so lists every line whose digest moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import shlex
import sys
import tempfile
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))  # the code in src/, not an installed copy

import numpy  # noqa: E402

from belltest import cli, lhv  # noqa: E402

COMMANDS = HERE / "commands.txt"
DIGESTS = HERE / "digests.txt"
MARKS = ("@numpy", "@posix")

FIXTURES = {
    # the 81 keys with weights k/3321 for k = 1..81, which sum to 1 within rounding
    "model.lhv": "".join(
        f"{''.join(key)} {k / 3321!r}\n" for k, key in enumerate(product("+0-", repeat=4), 1)
    ),
    "bad.lhv": "++++ -0.5\n",
    # half on ++00 and half on +-0-: lhs -3.0 at zero spread
    "two-vertex.lhv": "".join(
        f"{key} {0.5 if key in ('++00', '+-0-') else 0.0}\n"
        for key in map("".join, product("+0-", repeat=4))
    ),
    "random3.lhv": lhv.save_model_text(lhv.random_model(3)),
}


def load_commands() -> list[tuple[frozenset[str], list[str]]]:
    """The (marks, argv) of each line of commands.txt."""
    lines = []
    for text in COMMANDS.read_text(encoding="utf-8").splitlines():
        tokens = shlex.split(text)
        marks = frozenset(t for t in tokens if t in MARKS)
        lines.append((marks, [t for t in tokens if t not in MARKS]))
    return lines


def load_digests() -> tuple[str, list[str]]:
    """The comment line naming where the digests were taken, and the digests."""
    header, *digests = DIGESTS.read_text(encoding="utf-8").splitlines()
    return header, digests


def run(argv: list[str], workdir: Path) -> str:
    """Run one command in workdir (which must be empty) and digest what it did."""
    for name, text in FIXTURES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(home)
    parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode()]
    for path in sorted(workdir.iterdir()):
        if path.name not in FIXTURES:
            parts += [path.name.encode(), path.read_bytes()]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(b"%d:" % len(part))
        digest.update(part)
    return digest.hexdigest()


def main() -> int:
    old = load_digests()[1] if DIGESTS.exists() else []
    digests = []
    for number, (_, argv) in enumerate(load_commands(), 1):
        with tempfile.TemporaryDirectory() as workdir:
            digests.append(run(argv, Path(workdir)))
        if number > len(old) or old[number - 1] != digests[-1]:
            print(f"line {number} changed: {shlex.join(argv)}")
    header = f"# taken with numpy {numpy.__version__}, Python {platform.python_version()}"
    DIGESTS.write_text("\n".join([header, *digests]) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
