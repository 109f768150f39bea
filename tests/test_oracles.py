"""The structured enumeration oracle must itself be trustworthy: on tiny
games it is cross-validated against a literal full-grid search over entire
probability simplexes, which encodes no structural insight at all."""

import numpy as np
import pytest

from honeyflow import experiments
from honeyflow.equilibrium import solve_stackelberg
from honeyflow.game import GameSpec, VulnerabilityType
from oracles import (
    exact_equilibrium,
    exact_fixed_action_value,
    exact_stackelberg_value,
    full_grid_stackelberg_value,
    pair_grid_fixed_action_value,
)


def _tiny_spec(rng: np.random.Generator) -> GameSpec:
    n = int(rng.integers(1, 3))
    types = []
    for i in range(n):
        real_v = float(rng.uniform(-0.5, 1.5))
        honey_v = float(rng.uniform(-1.5, real_v))
        types.append(
            VulnerabilityType(
                id=i,
                attacker_real_value=real_v,
                attacker_honey_value=honey_v,
                real_flow_count=int(rng.integers(0, 6)),
                honey_flow_bound=int(rng.integers(0, 3)),
                honey_flow_cost=float(rng.uniform(0.0, 0.15)),
            )
        )
    return GameSpec(tuple(types))


def test_exact_oracle_dominates_full_grid_and_matches_solver():
    """The adjacent-pair reduction must never lose value against the full
    simplex grid (which can only undershoot by its step size), and the LP
    must agree with the exact oracle to solver precision."""
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(25):
        spec = _tiny_spec(rng)
        if not spec.attackable_ids:
            continue
        exact = exact_stackelberg_value(spec)
        grid = full_grid_stackelberg_value(spec, steps=25)
        lp = solve_stackelberg(spec).defender_value
        assert grid <= exact + 1e-7
        assert exact - grid <= 0.01  # grid gap shrinks with step count
        assert lp == pytest.approx(exact, abs=1e-6)
        checked += 1
    assert checked >= 20


def test_pair_grid_underestimates_exact_fixed_action(worked_example):
    for k in worked_example.attackable_ids:
        exact = exact_fixed_action_value(worked_example, k)
        grid = pair_grid_fixed_action_value(worked_example, k, resolution=0.01)
        assert exact is not None and grid is not None
        assert grid <= exact + 1e-9
        assert exact - grid <= 1e-3


def test_no_attack_value_when_everything_deterrable():
    # Honey values negative enough that full bounds push both attacks
    # below zero; the no-attack branch must then price pure cost.
    spec = GameSpec(
        (
            VulnerabilityType(0, 1.0, -5.0, 2, 4, 0.01),
            VulnerabilityType(1, 0.5, -4.0, 2, 4, 0.02),
        )
    )
    value = exact_fixed_action_value(spec, None)
    assert value is not None
    assert value < 0.0
    eq = solve_stackelberg(spec)
    assert eq.defender_value == pytest.approx(exact_stackelberg_value(spec), abs=1e-6)


def _generated_games() -> list:
    """Small games of both value modes at three costs, ladder-size games
    (up to 16 types, or honey bounds up to 1000), and tiny games with
    arbitrary signs, zero real flows and zero bounds."""
    games = []
    modes = (experiments.MODE_FAKE_ZERO, experiments.MODE_FAKE_EQUALS_REAL)
    for mode in modes:
        for seed, cost in enumerate((1e-3, 1e-2, 0.1) * 2):
            params = experiments.GeneratorParams(
                type_count=3,
                real_flows=(5, 20),
                honey_bound_range=(2, 12),
                value_mode=mode,
                cost=cost,
            )
            spec = experiments.random_game(params, seed)
            games.append(pytest.param(spec, id=f"{mode}-small-{seed}"))
        for types, bound in ((5, 1000), (5, 500), (16, 100)):
            params = experiments.GeneratorParams(
                type_count=types,
                real_flows=(50, 500),
                honey_bound_range=(bound, bound),
                value_mode=mode,
            )
            spec = experiments.random_game(params, [7, bound])
            games.append(pytest.param(spec, id=f"{mode}-{types}x{bound}"))
    for seed in range(40):
        spec = _tiny_spec(np.random.default_rng(seed))
        games.append(pytest.param(spec, id=f"tiny-{seed}"))
    return games


@pytest.mark.parametrize("spec", _generated_games())
def test_solver_matches_exact_equilibrium(spec):
    """Attacker action, attacker value and defender value all agree with
    the exact-rational oracle, including the lowest-id tie rule."""
    eq = solve_stackelberg(spec)
    target, attacker_value, defender_value = exact_equilibrium(spec)
    assert eq.attacker_action.target == target
    assert eq.attacker_value == pytest.approx(float(attacker_value), abs=1e-9)
    assert eq.defender_value == pytest.approx(float(defender_value), abs=1e-9)
