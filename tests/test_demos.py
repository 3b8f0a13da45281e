"""Every demo runs to its end against the current API.

Each script in demos/ runs in-process, as `python demos/<name>.py` would run
it, with stdout captured.  A demo prints its claims as "<claim>: True", so
one that prints ": False" has shown an identity failing.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), path.name
    assert ": False" not in out, out
