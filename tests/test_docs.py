"""The README's code must run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README.name} quickstart", "exec"), {})
    # The run is seeded, so its estimate is fixed: a violation near -1.5.
    lhs, plus_minus, std_error = capsys.readouterr().out.split()
    assert plus_minus == "+/-"
    assert float(lhs) == -1.5040214477211795
    assert abs(float(std_error) - 0.09503716984706456) < 1e-12
