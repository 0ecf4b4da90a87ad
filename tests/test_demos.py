"""Every walkthrough script under demos/ runs to completion and prints
exactly its frozen output, kept under tests/golden/demos/."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
GOLDEN = pathlib.Path(__file__).parent / "golden" / "demos"


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out == (GOLDEN / (script.stem + ".txt")).read_text()
