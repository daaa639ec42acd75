"""Runs every script in demos/ in this process, and checks the neatness
verdict that demo 03 prints at the dimension jump."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_every_demo_runs(capsys):
    printed = {}
    for path in sorted(DEMOS.glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")
        printed[path.name] = capsys.readouterr().out
    assert len(printed) == 8
    assert ("complement ok = True | sequence: pass"
            in printed["03_varying_dimension_retract.py"])
