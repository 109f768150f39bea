"""The simplex kernel, driven through the equilibrium solver."""

import pytest

from honeyflow.equilibrium import solve_stackelberg


def test_equilibrium_value_on_default_path(worked_example):
    eq = solve_stackelberg(worked_example)
    assert eq.defender_value == pytest.approx(-10.75, abs=1e-9)
