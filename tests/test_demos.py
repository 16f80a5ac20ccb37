"""Smoke tests: each demo runs as a script and prints what it promises."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script, expected",
    [
        ("clausify_and_saturate.py", "  someone_is_liked: ?[X] : likes(pat,X)\n"),
        ("find_finite_models.py", "  no model of size up to 4\n"),
        ("prove_a_theorem.py", "  conjecture: ![X] : doctor(X) => sane(X)\n"),
        ("sat_solver_basics.py", "  assignment verified: True\n"),
        ("solve_the_asylum.py", "core: ax4 ax5 ax7 ax9 ax10 ax12\n"),
    ],
)
def test_demo_runs(script, expected, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert expected in capsys.readouterr().out
