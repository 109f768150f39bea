"""The simplex kernel, driven through the best-response LPs it solves.

The equilibrium solver no longer runs the simplex; the LPs stay as a
reference for it (see ``test_equilibrium.TestLpReference``).
"""

import pytest

from honeyflow.equilibrium import build_best_response_lp, solve_lp
from honeyflow.game import NO_ATTACK, AttackerAction


def test_equilibrium_value_on_default_path(worked_example):
    actions = [AttackerAction.attack(0), AttackerAction.attack(1), NO_ATTACK]
    solutions = [solve_lp(build_best_response_lp(worked_example, a)) for a in actions]
    assert [s.status for s in solutions] == ["optimal", "optimal", "infeasible"]
    best = max(s.objective_value for s in solutions if s.status == "optimal")
    assert best == pytest.approx(-10.75, abs=1e-9)
